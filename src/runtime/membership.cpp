#include "fastcast/runtime/membership.hpp"

#include "fastcast/common/assert.hpp"

namespace fastcast {

GroupId Membership::add_group(std::size_t replicas, const std::vector<RegionId>& regions) {
  FC_ASSERT_MSG(replicas >= 1, "a group needs at least one replica");
  FC_ASSERT_MSG(regions.size() == replicas, "one region per replica required");
  FC_ASSERT_MSG(groups_.size() < GroupSet::kMaxGroups,
                "destination sets are GroupSets: at most 64 groups");
  const auto g = static_cast<GroupId>(groups_.size());
  std::vector<NodeId> members;
  members.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    const auto n = static_cast<NodeId>(group_of_.size());
    group_of_.push_back(g);
    region_of_.push_back(regions[i]);
    members.push_back(n);
  }
  groups_.push_back(std::move(members));
  return g;
}

NodeId Membership::add_client(RegionId region) {
  const auto n = static_cast<NodeId>(group_of_.size());
  group_of_.push_back(kNoGroup);
  region_of_.push_back(region);
  clients_.push_back(n);
  return n;
}

GroupId Membership::group_of(NodeId n) const {
  FC_ASSERT(n < group_of_.size());
  return group_of_[n];
}

RegionId Membership::region_of(NodeId n) const {
  FC_ASSERT(n < region_of_.size());
  return region_of_[n];
}

const std::vector<NodeId>& Membership::members(GroupId g) const {
  FC_ASSERT(g < groups_.size());
  return groups_[g];
}

std::size_t Membership::quorum_size(GroupId g) const {
  return members(g).size() / 2 + 1;
}

std::vector<NodeId> Membership::all_nodes() const {
  std::vector<NodeId> out(node_count());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<NodeId>(i);
  return out;
}

std::vector<NodeId> Membership::all_replicas() const {
  std::vector<NodeId> out;
  out.reserve(node_count() - clients_.size());
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (group_of_[i] != kNoGroup) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<NodeId> Membership::nodes_of_groups(GroupSet dst) const {
  std::size_t total = 0;
  for (GroupId g : dst) total += members(g).size();
  std::vector<NodeId> out;
  out.reserve(total);
  for (GroupId g : dst) {
    const auto& m = members(g);
    out.insert(out.end(), m.begin(), m.end());
  }
  return out;
}

}  // namespace fastcast
