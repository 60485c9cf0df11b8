//===- support/LruCache.h - Bounded LRU map ---------------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A capacity-bounded map with least-recently-used eviction: the one
/// recency mechanism behind the batch driver's outcome cache and the
/// on-disk outcome store (service/DiskCache.h).  A long-lived process (the
/// allocation server) must not grow without limit, and the eviction order
/// must be deterministic so driver reports stay a pure function of the
/// request stream: every find() and insert() the driver makes happens in
/// its *serial* phases, so the recency order -- and therefore which entry
/// is evicted -- never depends on thread scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SUPPORT_LRUCACHE_H
#define LAYRA_SUPPORT_LRUCACHE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace layra {

/// Bounded key-value cache with LRU eviction.  Capacity 0 means unbounded
/// (the CLI-sweep default; the server always configures a bound).
template <typename KeyT, typename ValueT> class LruCache {
public:
  /// \p OnEvict, when set, is called with each key the capacity bound
  /// evicts, least recently used first, before the entry is dropped.
  explicit LruCache(size_t Capacity = 0,
                    std::function<void(const KeyT &)> OnEvict = nullptr)
      : Cap(Capacity), OnEvict(std::move(OnEvict)) {}

  /// Entries currently held.
  size_t size() const { return Index.size(); }
  /// Maximum entries held at once; 0 = unbounded.
  size_t capacity() const { return Cap; }
  /// Entries evicted over the cache's lifetime.
  uint64_t evictions() const { return EvictionCount; }

  /// Changes the capacity, evicting the least recently used overflow
  /// immediately.  Setting 0 removes the bound (nothing is evicted).
  void setCapacity(size_t Capacity) {
    Cap = Capacity;
    evictOverflow();
  }

  /// Looks \p Key up and marks it most recently used.  Returns nullptr when
  /// absent.  The pointer stays valid until the entry is evicted.
  ValueT *find(const KeyT &Key) {
    auto It = Index.find(Key);
    if (It == Index.end())
      return nullptr;
    Entries.splice(Entries.begin(), Entries, It->second);
    return &It->second->second;
  }

  /// Looks \p Key up without touching the recency order.
  const ValueT *peek(const KeyT &Key) const {
    auto It = Index.find(Key);
    return It == Index.end() ? nullptr : &It->second->second;
  }

  /// Inserts \p Key (which must not be present) as most recently used and
  /// evicts the least recently used overflow.
  void insert(KeyT Key, ValueT Value) {
    assert(!Index.count(Key) && "inserting a key already in the cache");
    Entries.emplace_front(Key, std::move(Value));
    Index.emplace(std::move(Key), Entries.begin());
    evictOverflow();
  }

  /// Removes \p Key if present.  A removal is not an eviction: it is not
  /// counted and does not call the eviction hook.
  void erase(const KeyT &Key) {
    auto It = Index.find(Key);
    if (It == Index.end())
      return;
    Entries.erase(It->second);
    Index.erase(It);
  }

private:
  void evictOverflow() {
    if (Cap == 0)
      return;
    while (Index.size() > Cap) {
      if (OnEvict)
        OnEvict(Entries.back().first);
      Index.erase(Entries.back().first);
      Entries.pop_back();
      ++EvictionCount;
    }
  }

  size_t Cap;
  std::function<void(const KeyT &)> OnEvict;
  uint64_t EvictionCount = 0;
  /// Most recently used at the front.
  std::list<std::pair<KeyT, ValueT>> Entries;
  std::unordered_map<KeyT, typename std::list<std::pair<KeyT, ValueT>>::iterator>
      Index;
};

} // namespace layra

#endif // LAYRA_SUPPORT_LRUCACHE_H
