// Membership / deployment-description tests, and the GroupSet mask that
// destination sets are stored in.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fastcast/runtime/membership.hpp"

namespace fastcast {
namespace {

Membership sample() {
  Membership m;
  m.add_group(3, {0, 1, 2});
  m.add_group(3, {0, 1, 2});
  m.add_group(5, {0, 0, 1, 1, 2});
  m.add_client(0);
  m.add_client(2);
  return m;
}

TEST(Membership, CountsAndIds) {
  const Membership m = sample();
  EXPECT_EQ(m.group_count(), 3u);
  EXPECT_EQ(m.node_count(), 13u);
  EXPECT_EQ(m.client_count(), 2u);
  EXPECT_EQ(m.members(0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(m.members(2).size(), 5u);
  EXPECT_EQ(m.clients(), (std::vector<NodeId>{11, 12}));
}

TEST(Membership, GroupOfAndRegions) {
  const Membership m = sample();
  EXPECT_EQ(m.group_of(0), 0u);
  EXPECT_EQ(m.group_of(4), 1u);
  EXPECT_EQ(m.group_of(10), 2u);
  EXPECT_EQ(m.group_of(11), kNoGroup);
  EXPECT_TRUE(m.is_client(12));
  EXPECT_FALSE(m.is_client(3));
  EXPECT_EQ(m.region_of(1), 1u);
  EXPECT_EQ(m.region_of(12), 2u);
}

TEST(Membership, QuorumSizes) {
  const Membership m = sample();
  EXPECT_EQ(m.quorum_size(0), 2u);  // 3 replicas -> majority 2
  EXPECT_EQ(m.quorum_size(2), 3u);  // 5 replicas -> majority 3
}

TEST(Membership, InitialLeaderIsFirstMember) {
  const Membership m = sample();
  EXPECT_EQ(m.initial_leader(1), 3u);
}

TEST(Membership, AllNodesAndReplicas) {
  const Membership m = sample();
  EXPECT_EQ(m.all_nodes().size(), 13u);
  const auto replicas = m.all_replicas();
  EXPECT_EQ(replicas.size(), 11u);
  for (NodeId n : replicas) EXPECT_NE(m.group_of(n), kNoGroup);
}

TEST(Membership, NodesOfGroupsFlattens) {
  const Membership m = sample();
  const auto nodes = m.nodes_of_groups({0, 2});
  EXPECT_EQ(nodes.size(), 8u);
  EXPECT_EQ(nodes.front(), 0u);
  EXPECT_EQ(nodes.back(), 10u);
}

TEST(Membership, SingleReplicaGroup) {
  Membership m;
  m.add_group(1, {0});
  EXPECT_EQ(m.quorum_size(0), 1u);
  EXPECT_EQ(m.initial_leader(0), 0u);
}

TEST(Membership, NodesOfGroupsFollowsAscendingGroupOrder) {
  const Membership m = sample();
  // Insertion order does not matter: the set iterates 0 before 2.
  const auto nodes = m.nodes_of_groups(GroupSet{2, 0});
  EXPECT_EQ(nodes, m.nodes_of_groups(GroupSet{0, 2}));
  EXPECT_EQ(nodes.front(), 0u);
}

TEST(GroupSet, IteratesInAscendingOrder) {
  const GroupSet s{9, 0, 63, 3, 9};
  EXPECT_EQ(s.size(), 4u);
  std::vector<GroupId> seen;
  for (GroupId g : s) seen.push_back(g);
  EXPECT_EQ(seen, (std::vector<GroupId>{0, 3, 9, 63}));
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(GroupSet, MembershipSizeAndEquality) {
  GroupSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.begin(), s.end());
  s.insert(5);
  s.insert(5);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.contains(64));  // beyond the mask: never a member
  EXPECT_FALSE(s.contains(kNoGroup));
  EXPECT_EQ(s, (GroupSet{5}));
  EXPECT_NE(s, (GroupSet{5, 6}));
  EXPECT_EQ(s.mask(), std::uint64_t{1} << 5);
}

TEST(GroupSet, BuildsFromADestinationList) {
  const std::vector<GroupId> dst{4, 1, 4};
  const GroupSet s(dst);
  EXPECT_EQ(s, (GroupSet{1, 4}));
  EXPECT_EQ(GroupSet(std::vector<GroupId>{}), GroupSet{});
}

TEST(GroupSetDeathTest, RejectsIdsBeyondItsWidth) {
  GroupSet s;
  EXPECT_DEATH(s.insert(64), "kMaxGroups");
}

TEST(MembershipDeathTest, RefusesMoreGroupsThanAGroupSetHolds) {
  Membership m;
  for (GroupId g = 0; g < GroupSet::kMaxGroups; ++g) m.add_group(1, {0});
  EXPECT_EQ(m.group_count(), 64u);
  EXPECT_DEATH(m.add_group(1, {0}), "at most 64 groups");
}

}  // namespace
}  // namespace fastcast
