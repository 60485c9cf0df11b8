//===- tests/service/DiskCacheTest.cpp - Persistent store tests -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the content-addressed on-disk outcome store: round-trips
/// within and across instances, rejection (and deletion) of truncated,
/// corrupted, wrong-revision and wrong-size entries, LRU eviction under
/// the byte cap (an entry bound) within and across instances, and the
/// degraded no-op mode for an unusable directory.
///
//===----------------------------------------------------------------------===//

#include "service/DiskCache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace layra;

namespace {

/// A scratch directory removed (recursively) on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Template[] = "/tmp/layra-disk-test-XXXXXX";
    const char *Made = mkdtemp(Template);
    EXPECT_NE(Made, nullptr);
    Path = Made ? Made : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::string Cmd = "rm -rf '" + Path + "'";
      (void)std::system(Cmd.c_str());
    }
  }
};

/// Where DiskCache files an entry: DIR/<2-hex>/<16-hex-key>.
std::string entryPathFor(const std::string &Dir, uint64_t Key) {
  char Name[17];
  std::snprintf(Name, sizeof Name, "%016llx",
                static_cast<unsigned long long>(Key));
  return Dir + "/" + std::string(Name).substr(0, 2) + "/" + Name;
}

TaskOutcome sampleOutcome(unsigned Seed) {
  TaskOutcome Out;
  Out.SpillCost = static_cast<Weight>(100 + Seed);
  Out.NumLoads = 3 + Seed;
  Out.NumStores = 2 + Seed;
  Out.LoadsFolded = Seed;
  Out.Rounds = 1 + Seed % 3;
  Out.FinalMaxLive = 7 + Seed;
  Out.Fits = (Seed % 2) == 0;
  return Out;
}

void expectEqualOutcome(const TaskOutcome &Got, const TaskOutcome &Want) {
  EXPECT_EQ(Got.SpillCost, Want.SpillCost);
  EXPECT_EQ(Got.NumLoads, Want.NumLoads);
  EXPECT_EQ(Got.NumStores, Want.NumStores);
  EXPECT_EQ(Got.LoadsFolded, Want.LoadsFolded);
  EXPECT_EQ(Got.Rounds, Want.Rounds);
  EXPECT_EQ(Got.FinalMaxLive, Want.FinalMaxLive);
  EXPECT_EQ(Got.Fits, Want.Fits);
}

bool fileExists(const std::string &Path) {
  struct stat Sb;
  return ::stat(Path.c_str(), &Sb) == 0;
}

} // namespace

TEST(DiskCacheTest, RoundTripsWithinAndAcrossInstances) {
  TempDir Dir;
  TaskOutcome Stored = sampleOutcome(1);
  {
    DiskCache Cache(Dir.Path);
    ASSERT_TRUE(Cache.valid()) << Cache.error();
    Cache.store(0xdeadbeefcafef00dULL, Stored);
    TaskOutcome Got;
    ASSERT_TRUE(Cache.lookup(0xdeadbeefcafef00dULL, Got));
    expectEqualOutcome(Got, Stored);
    DiskCacheStats S = Cache.stats();
    EXPECT_EQ(S.Writes, 1u);
    EXPECT_EQ(S.Hits, 1u);
    EXPECT_EQ(S.Entries, 1u);
    EXPECT_EQ(S.Bytes, DiskCache::entryBytes());
  }
  // A fresh instance re-indexes the directory and serves the same bytes:
  // the property that warm-starts a restarted server.
  DiskCache Reopened(Dir.Path);
  ASSERT_TRUE(Reopened.valid()) << Reopened.error();
  EXPECT_EQ(Reopened.stats().Entries, 1u);
  TaskOutcome Got;
  ASSERT_TRUE(Reopened.lookup(0xdeadbeefcafef00dULL, Got));
  expectEqualOutcome(Got, Stored);
}

TEST(DiskCacheTest, UnknownKeyIsACountedMiss) {
  TempDir Dir;
  DiskCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  TaskOutcome Got;
  EXPECT_FALSE(Cache.lookup(42, Got));
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Hits, 0u);
}

TEST(DiskCacheTest, TruncatedEntryReadsAsMissAndIsDeleted) {
  TempDir Dir;
  DiskCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  constexpr uint64_t Key = 7;
  Cache.store(Key, sampleOutcome(2));
  std::string Path = entryPathFor(Dir.Path, Key);
  ASSERT_TRUE(fileExists(Path));
  ASSERT_EQ(::truncate(Path.c_str(), static_cast<off_t>(
                                         DiskCache::entryBytes() - 5)),
            0);
  TaskOutcome Got;
  EXPECT_FALSE(Cache.lookup(Key, Got));
  // Useless bytes are scrubbed so the next store can re-persist cleanly.
  EXPECT_FALSE(fileExists(Path));
  DiskCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Evictions, 0u); // Corruption cleanup is not an eviction.
}

TEST(DiskCacheTest, CorruptedMagicReadsAsMissAndIsDeleted) {
  TempDir Dir;
  constexpr uint64_t Key = 9;
  {
    DiskCache Cache(Dir.Path);
    ASSERT_TRUE(Cache.valid()) << Cache.error();
    Cache.store(Key, sampleOutcome(3));
  }
  std::string Path = entryPathFor(Dir.Path, Key);
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fputc('X', F), 'X'); // Clobber the first magic byte.
  std::fclose(F);
  // Reopen: the startup scan indexes the file by name, but the first read
  // rejects it.
  DiskCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  TaskOutcome Got;
  EXPECT_FALSE(Cache.lookup(Key, Got));
  EXPECT_FALSE(fileExists(Path));
}

TEST(DiskCacheTest, RevisionMismatchInvalidatesEntry) {
  TempDir Dir;
  constexpr uint64_t Key = 11;
  {
    DiskCache Cache(Dir.Path);
    ASSERT_TRUE(Cache.valid()) << Cache.error();
    Cache.store(Key, sampleOutcome(4));
  }
  // Forge an entry "written by a different solver revision": flip one bit
  // of the revision-hash field (bytes 8..15 of the header).
  std::string Path = entryPathFor(Dir.Path, Key);
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fseek(F, 8, SEEK_SET), 0);
  int Byte = std::fgetc(F);
  ASSERT_NE(Byte, EOF);
  unsigned char Flipped = static_cast<unsigned char>(Byte) ^ 0x01;
  // The forged value must actually differ from the live revision hash.
  ASSERT_NE(static_cast<unsigned char>(DiskCache::revisionHash() & 0xFF),
            Flipped);
  ASSERT_EQ(std::fseek(F, 8, SEEK_SET), 0);
  ASSERT_EQ(std::fputc(Flipped, F), Flipped);
  std::fclose(F);

  DiskCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  TaskOutcome Got;
  EXPECT_FALSE(Cache.lookup(Key, Got));
  EXPECT_FALSE(fileExists(Path));
  // A re-store after the miss works, and the entry reads back again.
  Cache.store(Key, sampleOutcome(4));
  ASSERT_TRUE(Cache.lookup(Key, Got));
  expectEqualOutcome(Got, sampleOutcome(4));
}

TEST(DiskCacheTest, ByteCapEvictsLeastRecentlyUsed) {
  TempDir Dir;
  // Room for exactly two entries.
  DiskCache Cache(Dir.Path, 2 * DiskCache::entryBytes());
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  Cache.store(1, sampleOutcome(1));
  Cache.store(2, sampleOutcome(2));
  // Touch key 1 so key 2 becomes the least recently used.
  TaskOutcome Got;
  ASSERT_TRUE(Cache.lookup(1, Got));
  Cache.store(3, sampleOutcome(3));

  DiskCacheStats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Bytes, 2 * DiskCache::entryBytes());
  EXPECT_FALSE(fileExists(entryPathFor(Dir.Path, 2)));
  EXPECT_TRUE(Cache.lookup(1, Got));
  expectEqualOutcome(Got, sampleOutcome(1));
  EXPECT_TRUE(Cache.lookup(3, Got));
  EXPECT_FALSE(Cache.lookup(2, Got));
}

TEST(DiskCacheTest, StartupScanDeletesWrongSizeKeyFiles) {
  TempDir Dir;
  constexpr uint64_t Key = 13;
  {
    DiskCache Cache(Dir.Path);
    ASSERT_TRUE(Cache.valid()) << Cache.error();
    Cache.store(Key, sampleOutcome(5));
  }
  std::string Path = entryPathFor(Dir.Path, Key);
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fputc('X', F), 'X'); // One byte past the entry format.
  std::fclose(F);

  DiskCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  DiskCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Bytes, 0u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_FALSE(fileExists(Path));
}

TEST(DiskCacheTest, StartupScanSkipsKeyFilesOutsideTheirFanOutDirectory) {
  // A copy of an entry under another two-hex directory is not where
  // lookup() reads it, so it must not count as a second entry.
  TempDir Dir;
  constexpr uint64_t Key = 0xab00000000000011ULL;
  {
    DiskCache Cache(Dir.Path);
    ASSERT_TRUE(Cache.valid()) << Cache.error();
    Cache.store(Key, sampleOutcome(6));
  }
  ASSERT_EQ(::mkdir((Dir.Path + "/cd").c_str(), 0777), 0);
  std::string Cmd = "cp '" + entryPathFor(Dir.Path, Key) + "' '" + Dir.Path +
                    "/cd/ab00000000000011'";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);

  DiskCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  DiskCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Bytes, DiskCache::entryBytes());
  TaskOutcome Got;
  ASSERT_TRUE(Cache.lookup(Key, Got));
  expectEqualOutcome(Got, sampleOutcome(6));
}

TEST(DiskCacheTest, ReopeningUnderASmallerCapKeepsTheMostRecentlyUsed) {
  TempDir Dir;
  {
    DiskCache Cache(Dir.Path);
    ASSERT_TRUE(Cache.valid()) << Cache.error();
    for (uint64_t Key = 1; Key <= 5; ++Key)
      Cache.store(Key, sampleOutcome(unsigned(Key)));
  }
  // Pin the persisted recency (file mtimes): 4 and 2 are the most
  // recently used, then 5, 1, 3.  Explicit times keep the test off the
  // file system's timestamp granularity.
  const uint64_t Order[] = {3, 1, 5, 2, 4};
  for (unsigned I = 0; I < 5; ++I) {
    struct timespec Times[2];
    Times[0].tv_sec = Times[1].tv_sec = 1000000 + I;
    Times[0].tv_nsec = Times[1].tv_nsec = 0;
    ASSERT_EQ(::utimensat(AT_FDCWD, entryPathFor(Dir.Path, Order[I]).c_str(),
                          Times, 0),
              0);
  }

  DiskCache Cache(Dir.Path, 2 * DiskCache::entryBytes());
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  DiskCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Bytes, 2 * DiskCache::entryBytes());
  EXPECT_EQ(S.Evictions, 3u);
  for (uint64_t Key : {1, 3, 5})
    EXPECT_FALSE(fileExists(entryPathFor(Dir.Path, Key))) << Key;
  TaskOutcome Got;
  for (uint64_t Key : {2, 4}) {
    ASSERT_TRUE(Cache.lookup(Key, Got)) << Key;
    expectEqualOutcome(Got, sampleOutcome(unsigned(Key)));
  }
}

TEST(DiskCacheTest, TinyCapStillKeepsTheNewestEntry) {
  TempDir Dir;
  // A cap smaller than one entry must not make the cache evict what it
  // just wrote -- that would persist nothing, ever.
  DiskCache Cache(Dir.Path, 1);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  Cache.store(5, sampleOutcome(5));
  EXPECT_EQ(Cache.stats().Entries, 1u);
  TaskOutcome Got;
  EXPECT_TRUE(Cache.lookup(5, Got));
  // The next store displaces it: the newest entry wins.
  Cache.store(6, sampleOutcome(6));
  DiskCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_FALSE(Cache.lookup(5, Got));
  EXPECT_TRUE(Cache.lookup(6, Got));
}

TEST(DiskCacheTest, UnusableDirectoryDegradesToNoOpMisses) {
  TempDir Dir;
  // A path whose parent is a regular file can never become a directory.
  std::string FilePath = Dir.Path + "/plain-file";
  std::FILE *F = std::fopen(FilePath.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fclose(F);
  DiskCache Cache(FilePath + "/cache");
  EXPECT_FALSE(Cache.valid());
  EXPECT_FALSE(Cache.error().empty());
  // Every operation is a safe no-op.
  Cache.store(1, sampleOutcome(1));
  TaskOutcome Got;
  EXPECT_FALSE(Cache.lookup(1, Got));
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(DiskCacheTest, FailedRecencyTouchIsCountedNotFatal) {
  // The hit path refreshes each entry's mtime so LRU order survives a
  // restart; on filesystems where that touch fails (read-only remounts,
  // permission drift) the hit must still be served, with the failure
  // visible in stats (the server exports it as disk_cache.touch_failures).
  TempDir Dir;
  DiskCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  TaskOutcome Stored = sampleOutcome(3);
  Cache.store(0x42, Stored);

  Cache.setTouchHookForTest(+[](const char *) { return false; });
  TaskOutcome Got;
  ASSERT_TRUE(Cache.lookup(0x42, Got)); // The hit itself is unaffected.
  expectEqualOutcome(Got, Stored);
  ASSERT_TRUE(Cache.lookup(0x42, Got));
  DiskCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.TouchFailures, 2u);

  // Recovery: once touches succeed again the counter stops moving.
  Cache.setTouchHookForTest(nullptr);
  ASSERT_TRUE(Cache.lookup(0x42, Got));
  EXPECT_EQ(Cache.stats().TouchFailures, 2u);
  EXPECT_EQ(Cache.stats().Hits, 3u);
}
