#pragma once

#include <cstddef>
#include <vector>

#include "fastcast/runtime/group_set.hpp"
#include "fastcast/runtime/ids.hpp"

/// \file membership.hpp
/// Static deployment description: which nodes exist, how they are grouped,
/// and which region each node lives in. Groups are disjoint (the paper
/// requires this for genuine atomic multicast to be solvable) and contain
/// 2f+1 replicas. Clients are nodes with group kNoGroup.

namespace fastcast {

class Membership {
 public:
  /// Adds a replica group; returns its GroupId. `regions[i]` is the region
  /// of the i-th member. Member 0 is the conventional initial leader. At
  /// most GroupSet::kMaxGroups (64) groups exist.
  GroupId add_group(std::size_t replicas, const std::vector<RegionId>& regions);

  /// Adds a client node in `region`; returns its NodeId.
  NodeId add_client(RegionId region);

  std::size_t node_count() const { return group_of_.size(); }
  std::size_t group_count() const { return groups_.size(); }
  std::size_t client_count() const { return clients_.size(); }

  GroupId group_of(NodeId n) const;
  RegionId region_of(NodeId n) const;
  bool is_client(NodeId n) const { return group_of(n) == kNoGroup; }

  const std::vector<NodeId>& members(GroupId g) const;
  const std::vector<NodeId>& clients() const { return clients_; }

  /// Conventional initial leader of a group: its first member.
  NodeId initial_leader(GroupId g) const { return members(g).front(); }

  /// Majority quorum size for a group: floor(n/2) + 1.
  std::size_t quorum_size(GroupId g) const;

  std::vector<NodeId> all_nodes() const;
  std::vector<NodeId> all_replicas() const;

  /// Flattens the members of `dst` groups into one node list, in ascending
  /// group order (no duplicates because groups are disjoint).
  std::vector<NodeId> nodes_of_groups(GroupSet dst) const;

 private:
  std::vector<std::vector<NodeId>> groups_;
  std::vector<GroupId> group_of_;    // indexed by NodeId
  std::vector<RegionId> region_of_;  // indexed by NodeId
  std::vector<NodeId> clients_;
};

}  // namespace fastcast
