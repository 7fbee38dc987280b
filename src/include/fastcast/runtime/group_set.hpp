#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <vector>

#include "fastcast/common/assert.hpp"
#include "fastcast/runtime/ids.hpp"

/// \file group_set.hpp
/// A set of destination groups stored as one 64-bit mask.
///
/// Every tuple, SEND-SOFT/SEND-HARD payload and reliable-multicast frame
/// carries its message's destination set; as a mask it copies, compares and
/// tests membership without touching the heap. Iteration yields the ids in
/// ascending order, which is also the wire order (a varint count followed
/// by the ids, see message.cpp). The paper evaluates at most 16 groups;
/// Membership refuses more than kMaxGroups.

namespace fastcast {

class GroupSet {
 public:
  static constexpr GroupId kMaxGroups = 64;

  /// Forward iterator over the set bits, lowest first.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = GroupId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = GroupId;

    constexpr const_iterator() = default;
    constexpr explicit const_iterator(std::uint64_t rest) : rest_(rest) {}

    constexpr GroupId operator*() const {
      return static_cast<GroupId>(std::countr_zero(rest_));
    }
    constexpr const_iterator& operator++() {
      rest_ &= rest_ - 1;  // clear the lowest set bit
      return *this;
    }
    constexpr const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend constexpr bool operator==(const_iterator, const_iterator) = default;

   private:
    std::uint64_t rest_ = 0;
  };
  using iterator = const_iterator;

  constexpr GroupSet() = default;
  GroupSet(std::initializer_list<GroupId> groups) {
    for (GroupId g : groups) insert(g);
  }
  /// From a MulticastMessage::dst list (any order; duplicates collapse).
  explicit GroupSet(const std::vector<GroupId>& groups) {
    for (GroupId g : groups) insert(g);
  }

  void insert(GroupId g) {
    FC_ASSERT_MSG(g < kMaxGroups, "group id beyond GroupSet::kMaxGroups");
    bits_ |= std::uint64_t{1} << g;
  }
  constexpr bool contains(GroupId g) const {
    return g < kMaxGroups && ((bits_ >> g) & 1u) != 0;
  }
  constexpr std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  constexpr bool empty() const { return bits_ == 0; }
  constexpr std::uint64_t mask() const { return bits_; }

  constexpr const_iterator begin() const { return const_iterator(bits_); }
  constexpr const_iterator end() const { return const_iterator(0); }

  friend constexpr bool operator==(GroupSet, GroupSet) = default;

 private:
  std::uint64_t bits_ = 0;
};

}  // namespace fastcast
