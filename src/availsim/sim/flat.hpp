#pragma once
// Flat sorted-vector containers for per-event state keyed by small ids
// (NodeId sets, request ids).  One contiguous allocation instead of a node
// per element: no per-insert heap traffic on the hot path, cache-friendly
// scans, and iteration is in ascending key order by construction — so
// send loops need no sorted copy, and hash order can never leak into
// event order.
//
// Deliberately minimal: exactly the operations the subsystems use.
// Inserts shift the tail (O(n)), which is the right trade for the
// cluster-sized (tens of entries) sets and append-mostly maps these
// replace.  Per-node state is a plain vector indexed by NodeId instead
// (ids are dense); the two FlatMaps left, press forwards_ and qmon
// outstanding_, are keyed by monotone request ids.

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

namespace availsim::sim {

/// Sorted-unique vector of keys.  Replaces unordered_set<K> where
/// iteration order must be deterministic and inserts are rare relative to
/// scans.
template <typename K>
class FlatSet {
 public:
  using const_iterator = typename std::vector<K>::const_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<K> init) : keys_(init) {
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  }

  bool insert(const K& key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return false;
    keys_.insert(it, key);
    return true;
  }

  bool erase(const K& key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) return false;
    keys_.erase(it);
    return true;
  }

  bool contains(const K& key) const {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }

  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  void clear() { keys_.clear(); }
  void reserve(std::size_t n) { keys_.reserve(n); }

  const_iterator begin() const { return keys_.begin(); }
  const_iterator end() const { return keys_.end(); }

  /// The underlying ascending key vector (for std:: algorithms).
  const std::vector<K>& values() const { return keys_; }

  friend bool operator==(const FlatSet& a, const FlatSet& b) {
    return a.keys_ == b.keys_;
  }
  friend bool operator!=(const FlatSet& a, const FlatSet& b) {
    return a.keys_ != b.keys_;
  }

 private:
  std::vector<K> keys_;
};

/// Sorted-unique vector of (key, value) pairs.  Replaces
/// unordered_map<K, V> for cluster-sized or append-mostly maps; supports
/// move-only V (e.g. unique_ptr payloads).
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  /// Returns the value for `key`, default-constructing it in place if
  /// absent (same contract as map::operator[]).
  V& operator[](const K& key) {
    auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.emplace(it, key, V{});
    }
    return it->second;
  }

  /// Inserts (key, value) if absent; returns {iterator, inserted}.
  std::pair<iterator, bool> emplace(const K& key, V value) {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    it = entries_.emplace(it, key, std::move(value));
    return {it, true};
  }

  iterator find(const K& key) {
    auto it = lower_bound(key);
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    auto it = lower_bound(key);
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }

  bool contains(const K& key) const { return find(key) != entries_.end(); }

  bool erase(const K& key) {
    auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) return false;
    entries_.erase(it);
    return true;
  }
  iterator erase(const_iterator it) { return entries_.erase(it); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  iterator lower_bound(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace availsim::sim
