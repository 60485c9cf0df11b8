//===- service/DiskCache.cpp - Persistent on-disk outcome store ------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "service/DiskCache.h"

#include "obs/EventLog.h"
#include "service/Protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <vector>

using namespace layra;

namespace {

/// Entry format identity.  kFormatVersion bumps when the layout below
/// changes; the revision hash (header) additionally keys on the protocol
/// and solver revisions so entries from an older build read as misses.
constexpr char kEntryMagic[4] = {'L', 'Y', 'R', 'D'};
constexpr uint32_t kFormatVersion = 1;
/// Bump when the solver's outcome semantics change: any alteration to
/// what TaskOutcome fields mean for a given key invalidates every
/// persisted entry.
constexpr const char *kSolverRevision = "layra-solver/2026-08";

// Header:  magic(4) version(4) revision(8) key(8)
// Payload: spill_cost(8,i64) loads(4) stores(4) folded(4) rounds(4)
//          max_live(4) fits(1)
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;
constexpr size_t kPayloadBytes = 8 + 4 + 4 + 4 + 4 + 4 + 1;
constexpr size_t kEntryBytes = kHeaderBytes + kPayloadBytes;

// Fixed little-endian integer codecs: the cache directory may be shared
// or archived, so the layout must not depend on host byte order.
void putU32(std::string &Buf, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

void putU64(std::string &Buf, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

uint32_t getU32(const unsigned char *P) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

uint64_t getU64(const unsigned char *P) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

uint64_t mixRevision(uint64_t H, const char *S) {
  for (; *S; ++S) {
    H ^= static_cast<unsigned char>(*S) + 0x9e3779b97f4a7c15ULL + (H << 6) +
         (H >> 2);
    H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ULL;
    H ^= H >> 27;
  }
  return H;
}

std::string keyFileName(uint64_t Key) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx",
                static_cast<unsigned long long>(Key));
  return std::string(Buf);
}

/// True when \p Name is exactly 16 lowercase-hex digits; fills \p Key.
bool parseKeyFileName(const char *Name, uint64_t &Key) {
  uint64_t V = 0;
  int Len = 0;
  for (; Name[Len]; ++Len) {
    char C = Name[Len];
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<unsigned>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<unsigned>(C - 'a') + 10;
    else
      return false;
    if (Len >= 16)
      return false;
    V = (V << 4) | Digit;
  }
  if (Len != 16)
    return false;
  Key = V;
  return true;
}

bool ensureDir(const std::string &Path) {
  if (::mkdir(Path.c_str(), 0777) == 0 || errno == EEXIST) {
    struct stat Sb;
    return ::stat(Path.c_str(), &Sb) == 0 && S_ISDIR(Sb.st_mode);
  }
  return false;
}

} // namespace

uint64_t DiskCache::revisionHash() {
  uint64_t H = 0x6c797264ULL; // "lyrd"
  H = mixRevision(H, kServeProtocolVersion);
  H = mixRevision(H, kSolverRevision);
  return H;
}

size_t DiskCache::entryBytes() { return kEntryBytes; }

DiskCache::DiskCache(std::string Dir, uint64_t CapBytes)
    : Root(std::move(Dir)),
      // Every entry is kEntryBytes long, so the byte cap is an entry
      // bound.  At least the newest entry stays even under a cap smaller
      // than one entry: a cache that evicts what it just wrote stores
      // nothing ever.
      Lru(CapBytes ? std::max<uint64_t>(1, CapBytes / kEntryBytes) : 0,
          [this](const uint64_t &Key) { ::remove(entryPath(Key).c_str()); }) {
  if (Root.empty()) {
    InitError = "disk cache directory must not be empty";
    return;
  }
  while (Root.size() > 1 && Root.back() == '/')
    Root.pop_back();
  if (!ensureDir(Root)) {
    InitError = "cannot create disk cache directory " + Root + ": " +
                std::strerror(errno);
    return;
  }
  Valid = true;
  indexExisting();
}

std::string DiskCache::entryPath(uint64_t Key) const {
  std::string Name = keyFileName(Key);
  return Root + "/" + Name.substr(0, 2) + "/" + Name;
}

void DiskCache::indexExisting() {
  struct Found {
    uint64_t Key;
    time_t MtimeSec;
    long MtimeNsec;
  };
  std::vector<Found> All;
  DIR *TopDir = ::opendir(Root.c_str());
  if (!TopDir)
    return;
  while (dirent *Sub = ::readdir(TopDir)) {
    if (Sub->d_name[0] == '.')
      continue;
    std::string SubPath = Root + "/" + Sub->d_name;
    DIR *Fan = ::opendir(SubPath.c_str());
    if (!Fan)
      continue; // Stray regular file; not ours to touch.
    while (dirent *E = ::readdir(Fan)) {
      uint64_t Key;
      if (!parseKeyFileName(E->d_name, Key))
        continue; // Leftover .tmp.<pid> scratch or foreign file.
      struct stat Sb;
      std::string Path = SubPath + "/" + E->d_name;
      if (Path != entryPath(Key) || ::stat(Path.c_str(), &Sb) != 0 ||
          !S_ISREG(Sb.st_mode))
        continue; // Misfiled (lookup() would never find it) or not a file.
      if (static_cast<uint64_t>(Sb.st_size) != kEntryBytes) {
        // Not an entry of this format: lookup() would reject and delete
        // it too.
        ::remove(Path.c_str());
        continue;
      }
      All.push_back({Key, Sb.st_mtime, Sb.st_mtim.tv_nsec});
    }
    ::closedir(Fan);
  }
  ::closedir(TopDir);
  // Least recently touched first, so the last insert is the most recently
  // used entry and an over-cap directory loses its oldest entries; ties
  // broken by descending key so the order -- and therefore eviction -- is
  // stable across scans.
  std::sort(All.begin(), All.end(), [](const Found &A, const Found &B) {
    if (A.MtimeSec != B.MtimeSec)
      return A.MtimeSec < B.MtimeSec;
    if (A.MtimeNsec != B.MtimeNsec)
      return A.MtimeNsec < B.MtimeNsec;
    return A.Key > B.Key;
  });
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Found &F : All)
    Lru.insert(F.Key, 0);
}

bool DiskCache::lookup(uint64_t Key, TaskOutcome &Out) {
  if (!Valid)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Lru.find(Key)) {
    ++Misses;
    return false;
  }
  std::string Path = entryPath(Key);
  unsigned char Buf[kEntryBytes];
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  bool Ok = In != nullptr;
  size_t Got = 0;
  if (Ok) {
    Got = std::fread(Buf, 1, sizeof Buf, In);
    // A trailing byte would mean a format change; reject oversize too.
    Ok = Got == kEntryBytes && std::fgetc(In) == EOF;
    std::fclose(In);
  }
  if (Ok)
    Ok = std::memcmp(Buf, kEntryMagic, sizeof kEntryMagic) == 0 &&
         getU32(Buf + 4) == kFormatVersion &&
         getU64(Buf + 8) == revisionHash() && getU64(Buf + 16) == Key;
  if (!Ok) {
    // Truncated, corrupted, or written by another revision: useless, so
    // delete it and report a miss -- the driver re-solves and re-stores.
    Lru.erase(Key);
    ::remove(Path.c_str());
    ++Misses;
    return false;
  }
  const unsigned char *P = Buf + kHeaderBytes;
  Out.SpillCost = static_cast<Weight>(static_cast<int64_t>(getU64(P)));
  Out.NumLoads = getU32(P + 8);
  Out.NumStores = getU32(P + 12);
  Out.LoadsFolded = getU32(P + 16);
  Out.Rounds = getU32(P + 20);
  Out.FinalMaxLive = getU32(P + 24);
  Out.Fits = P[28] != 0;
  ++Hits;
  // Touch: recency must survive restarts, and mtime is the persisted
  // order the startup scan rebuilds from.  A failed touch still serves
  // the entry -- only the persisted LRU order degrades -- but silently
  // eating the failure hid real trouble (read-only remount, deleted
  // file), so it is counted, surfaced in stats, and logged once.
  bool Touched = TouchHook
                     ? TouchHook(Path.c_str())
                     : ::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0) == 0;
  if (!Touched) {
    if (TouchFailures == 0)
      std::fprintf(stderr,
                   "layra-serve: disk-cache recency touch failed for %s "
                   "(LRU order will not survive a restart; further "
                   "failures counted in disk_cache.touch_failures)\n",
                   Path.c_str());
    ++TouchFailures;
  }
  return true;
}

void DiskCache::store(uint64_t Key, const TaskOutcome &Out) {
  if (!Valid)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Lru.peek(Key))
    return; // Outcomes are pure functions of the key; nothing to update.
  std::string Blob;
  Blob.reserve(kEntryBytes);
  Blob.append(kEntryMagic, sizeof kEntryMagic);
  putU32(Blob, kFormatVersion);
  putU64(Blob, revisionHash());
  putU64(Blob, Key);
  putU64(Blob, static_cast<uint64_t>(static_cast<int64_t>(Out.SpillCost)));
  putU32(Blob, Out.NumLoads);
  putU32(Blob, Out.NumStores);
  putU32(Blob, Out.LoadsFolded);
  putU32(Blob, Out.Rounds);
  putU32(Blob, Out.FinalMaxLive);
  Blob.push_back(Out.Fits ? '\1' : '\0');
  std::string Name = keyFileName(Key);
  if (!ensureDir(Root + "/" + Name.substr(0, 2)))
    return; // Degraded disk: skip persisting, the memory cache still has it.
  if (!obs::writeFileAtomically(entryPath(Key), Blob, nullptr))
    return;
  ++Writes;
  Lru.insert(Key, 0); // Evicting the overflow deletes its files.
}

DiskCacheStats DiskCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  DiskCacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Writes = Writes;
  S.Evictions = Lru.evictions();
  S.Entries = Lru.size();
  S.Bytes = S.Entries * kEntryBytes;
  S.TouchFailures = TouchFailures;
  return S;
}
