#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <vector>

namespace availsim::sim {

/// A set of node ids as a bitset. Node ids (net::NodeId, an int) are dense
/// and non-negative, so insert, erase and contains are O(1), and iteration
/// runs in ascending id order by construction: no send loop over a set
/// sees hash order. The words grow to the largest id inserted and are kept
/// across clear(), so refilling a set allocates nothing.
class NodeSet {
 public:
  using Id = int;

  /// Forward iterator over the members, lowest id first.
  struct const_iterator {
    using iterator_category = std::forward_iterator_tag;
    using value_type = Id;
    using difference_type = std::ptrdiff_t;
    using pointer = const Id*;
    using reference = Id;

    const NodeSet* set = nullptr;
    Id id = kEnd;

    Id operator*() const { return id; }
    const_iterator& operator++() { return *this = set->lower_bound(id + 1); }
    bool operator==(const const_iterator& other) const {
      return id == other.id;
    }
  };

  NodeSet() = default;
  NodeSet(std::initializer_list<Id> ids) : NodeSet(ids.begin(), ids.end()) {}
  template <typename It>
  NodeSet(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  /// Adds `id`; false if it was already a member.
  bool insert(Id id) {
    assert(id >= 0);
    if (word(id) >= words_.size()) words_.resize(word(id) + 1, 0);
    if (contains(id)) return false;
    words_[word(id)] |= bit(id);
    ++size_;
    return true;
  }
  /// Removes `id`; false if it was not a member.
  bool erase(Id id) {
    if (!contains(id)) return false;
    words_[word(id)] &= ~bit(id);
    --size_;
    return true;
  }
  bool contains(Id id) const {
    return id >= 0 && word(id) < words_.size() &&
           (words_[word(id)] & bit(id)) != 0;
  }
  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    size_ = 0;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const_iterator begin() const { return lower_bound(0); }
  const_iterator end() const { return {this, kEnd}; }
  /// The lowest member at or above `from`.
  const_iterator lower_bound(Id from) const {
    for (std::size_t w = word(from); w < words_.size(); ++w) {
      const std::uint64_t bits =
          words_[w] & (w == word(from) ? ~(bit(from) - 1) : ~std::uint64_t{0});
      if (bits != 0) {
        return {this, static_cast<Id>(w * 64) + std::countr_zero(bits)};
      }
    }
    return end();
  }

  /// The ring neighbours of `id` (in ascending order, wrapping around): the
  /// next member above it, and the next member below it.
  Id after(Id id) const {
    const const_iterator next = lower_bound(id + 1);
    return next != end() ? *next : *begin();
  }
  Id before(Id id) const {
    Id below = kEnd;
    Id top = kEnd;
    for (Id n : *this) {
      if (n < id) below = n;
      top = n;
    }
    return below != kEnd ? below : top;
  }

  /// The members below 64, one bit each: the mask a trace record carries.
  /// Members from 64 up do not fit and are left out.
  std::uint64_t mask() const { return words_.empty() ? 0 : words_[0]; }

  friend bool operator==(const NodeSet& a, const NodeSet& b) {
    // With equal sizes, equal common words leave no member in the longer
    // set's extra words.
    const std::size_t common = std::min(a.words_.size(), b.words_.size());
    return a.size_ == b.size_ && std::equal(a.words_.begin(),
                                            a.words_.begin() + common,
                                            b.words_.begin());
  }

 private:
  static constexpr Id kEnd = std::numeric_limits<Id>::max();
  static std::size_t word(Id id) { return static_cast<std::size_t>(id) / 64; }
  static std::uint64_t bit(Id id) { return std::uint64_t{1} << (id % 64); }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

// The benchmark's alias (availbench/src/microbench.cpp names the set NodeSet
// replaced): delete it with the benchmark's next change (ROADMAP).
template <typename> using FlatSet = NodeSet;

}  // namespace availsim::sim
