/// \file lru.h
/// \brief Small intrusive-free LRU cache used to bound in-memory
/// memoization structures (the enclave pre-verification cache, the SDM
/// read-set profiles). Not thread-safe: callers hold their own lock.

#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace confide {

/// \brief Fixed-capacity LRU map. `Put` evicts the least-recently-used
/// entry once `capacity` is exceeded; `Get` refreshes recency.
template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// \brief Returns the value (and marks it most-recently-used), or
  /// nullptr when absent. The pointer stays valid until the next mutation.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// \brief Lookup without refreshing recency.
  const V* Peek(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// \brief Inserts or overwrites, evicting the LRU entry when full.
  void Put(const K& key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    if (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }

  /// \brief Key of the least-recently-used entry, or nullptr when empty.
  /// Byte-budgeted callers (the storage row cache) walk the tail with
  /// this to evict until their external charge accounting fits.
  const K* OldestKey() const {
    return order_.empty() ? nullptr : &order_.back().first;
  }

  /// \brief Removes an entry; returns whether it existed.
  bool Erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  std::list<std::pair<K, V>> order_;  // front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> index_;
};

}  // namespace confide
