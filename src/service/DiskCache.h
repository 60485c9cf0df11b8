//===- service/DiskCache.h - Persistent on-disk outcome store ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed on-disk TaskOutcomeStore: one small binary file per
/// pipeline-cache key, laid out as `DIR/<2-hex>/<16-hex-key>` (the two-hex
/// fan-out keeps any one directory small).  Sitting underneath the
/// per-shard in-memory LRUs it gives the allocation server -- and
/// `layra-bench --disk-cache` -- warm starts across process restarts:
/// a key the memory caches never saw is still one 53-byte read away.
///
/// Every entry carries a versioned header (magic, format version, a
/// revision hash keyed on the wire-protocol version and the solver
/// revision, and the entry's own key).  Any mismatch -- truncation,
/// corruption, an entry written by a different solver revision -- reads
/// as a miss and deletes the file, so the driver transparently re-solves
/// and re-stores.  Combined with atomic writes (obs::writeFileAtomically:
/// temp file + rename) a crashed or concurrent writer can never leave a
/// half-entry that parses.
///
/// Capacity is an entry bound with LRU eviction.  Every entry is
/// entryBytes() long, so a byte cap of B keeps at most max(1, B /
/// entryBytes()) entries.  Recency lives in the shared support/LruCache
/// and is persisted through file mtimes (hits touch the file), so the
/// least-recently-used entry survives restarts too.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SERVICE_DISKCACHE_H
#define LAYRA_SERVICE_DISKCACHE_H

#include "driver/BatchDriver.h"
#include "support/LruCache.h"

#include <cstdint>
#include <mutex>
#include <string>

namespace layra {

/// Lifetime counters of one DiskCache.  Surfaced as the `disk_cache`
/// object of stats v4 and the `layra.serve.disk.*` metrics.
struct DiskCacheStats {
  uint64_t Hits = 0;      ///< lookup() served from disk.
  uint64_t Misses = 0;    ///< lookup() found nothing usable.
  uint64_t Writes = 0;    ///< Entries persisted.
  uint64_t Evictions = 0; ///< Entries removed by the capacity bound.
  uint64_t Entries = 0;   ///< Entries currently on disk.
  uint64_t Bytes = 0;     ///< Entries * entryBytes().
  /// Hits whose recency touch (mtime update) failed.  The entry was
  /// still served; only the *persisted* LRU order degrades -- after a
  /// restart the startup scan will see a stale mtime and may evict the
  /// entry earlier than true recency warrants.
  uint64_t TouchFailures = 0;
};

class DiskCache : public TaskOutcomeStore {
public:
  /// Opens (creating if needed) the cache rooted at \p Dir.  \p CapBytes
  /// bounds the total size, 0 = unbounded; it holds max(1, CapBytes /
  /// entryBytes()) entries.  Existing entries are indexed by scanning the
  /// fan-out directories once, oldest mtime first, so LRU eviction picks
  /// up where the previous process left off and an inherited directory
  /// over the bound is trimmed before serving.  A key-named file of any
  /// other size than entryBytes() is deleted by the scan.  On failure
  /// valid() is false and every operation is a no-op miss, so an
  /// unwritable directory degrades to "no disk cache" rather than
  /// killing the server.
  explicit DiskCache(std::string Dir, uint64_t CapBytes = 0);

  bool valid() const { return Valid; }
  const std::string &error() const { return InitError; }
  const std::string &directory() const { return Root; }

  // TaskOutcomeStore: both entry points are safe to call from multiple
  // shard drivers concurrently (internal mutex).
  bool lookup(uint64_t Key, TaskOutcome &Out) override;
  void store(uint64_t Key, const TaskOutcome &Out) override;

  DiskCacheStats stats() const;

  /// The revision hash every entry header embeds; mixes the wire-protocol
  /// version with the solver revision tag.  Exposed so tests can forge a
  /// mismatched header without chasing magic offsets.
  static uint64_t revisionHash();
  /// Exact on-disk size of one entry (header + payload), for tests that
  /// size a deliberately tiny --disk-cache-cap.
  static size_t entryBytes();

  /// Test seam: replaces the recency-touch syscall (utimensat) for this
  /// cache.  Production code never calls this; tests inject a failing
  /// hook because a root test process cannot provoke a real utimensat
  /// failure with permissions.  Call before concurrent use.
  void setTouchHookForTest(bool (*Hook)(const char *Path)) {
    TouchHook = Hook;
  }

private:
  std::string entryPath(uint64_t Key) const;
  void indexExisting();

  std::string Root;
  bool Valid = false;
  std::string InitError;

  mutable std::mutex Mutex;
  /// The keys on disk; the value is unused.  Its eviction hook deletes the
  /// evicted entry's file.
  LruCache<uint64_t, char> Lru;
  uint64_t Hits = 0, Misses = 0, Writes = 0;
  uint64_t TouchFailures = 0;
  /// Non-null in tests only (setTouchHookForTest).
  bool (*TouchHook)(const char *Path) = nullptr;
};

} // namespace layra

#endif // LAYRA_SERVICE_DISKCACHE_H
