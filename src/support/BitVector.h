//===- support/BitVector.h - Dense fixed-size bit vector --------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bit vector used by the dataflow analyses (liveness) where
/// word-parallel set union dominates the running time.  Mirrors the subset of
/// llvm::BitVector the IR layer needs.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SUPPORT_BITVECTOR_H
#define LAYRA_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace layra {

/// Fixed-size dense bit vector with word-parallel set operations.
class BitVector {
public:
  BitVector() = default;

  explicit BitVector(std::size_t NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  std::size_t size() const { return NumBits; }

  /// The packed words, bit I at word I / 64, for loops that combine
  /// several vectors word by word (ir/Liveness.cpp).
  std::size_t numWords() const { return Words.size(); }
  uint64_t *words() { return Words.data(); }
  const uint64_t *words() const { return Words.data(); }

  bool test(std::size_t Bit) const {
    assert(Bit < NumBits && "bit index out of range");
    return (Words[Bit >> 6] >> (Bit & 63)) & 1;
  }

  void set(std::size_t Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit >> 6] |= uint64_t(1) << (Bit & 63);
  }

  void reset(std::size_t Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit >> 6] &= ~(uint64_t(1) << (Bit & 63));
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Grows or shrinks to \p NewNumBits.  Existing bits below the new size
  /// are preserved; new bits are zero.  Shrinking clears the dropped tail's
  /// partial word so a later grow re-exposes zeroes, matching
  /// llvm::BitVector::resize semantics.
  void resize(std::size_t NewNumBits) {
    Words.resize((NewNumBits + 63) / 64, 0);
    if (NewNumBits < NumBits && (NewNumBits & 63))
      Words[NewNumBits >> 6] &=
          (uint64_t(1) << (NewNumBits & 63)) - 1;
    NumBits = NewNumBits;
  }

  /// This |= Other.  \returns true if any bit changed.
  bool unionWith(const BitVector &Other) {
    assert(Other.NumBits == NumBits && "bit vector size mismatch");
    bool Changed = false;
    for (std::size_t I = 0; I < Words.size(); ++I) {
      uint64_t Old = Words[I];
      Words[I] |= Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// This &= ~Other.
  void subtract(const BitVector &Other) {
    assert(Other.NumBits == NumBits && "bit vector size mismatch");
    for (std::size_t I = 0; I < Words.size(); ++I)
      Words[I] &= ~Other.Words[I];
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t Total = 0;
    for (uint64_t W : Words)
      Total += static_cast<std::size_t>(__builtin_popcountll(W));
    return Total;
  }

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  /// Calls \p Fn(index) for every set bit, in increasing index order.
  template <typename CallbackT> void forEach(CallbackT Fn) const {
    for (std::size_t I = 0; I < Words.size(); ++I) {
      uint64_t W = Words[I];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(I * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  /// Collects the set bits into a vector of indices.
  std::vector<unsigned> toIndices() const {
    std::vector<unsigned> Out;
    Out.reserve(count());
    forEach([&](std::size_t Bit) { Out.push_back(static_cast<unsigned>(Bit)); });
    return Out;
  }

private:
  std::size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace layra

#endif // LAYRA_SUPPORT_BITVECTOR_H
