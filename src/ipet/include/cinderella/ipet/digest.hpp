// Byte-stable content addressing for constraint systems.
//
// The persistent SolveCache keys verified bounds by a digest of the
// *canonical* constraint system — not of the source text — so two
// submissions whose programs differ textually but induce the same ILP
// share one cache entry, and a key written to a disk snapshot on one
// machine still matches on another.  That requires the digest input to
// be defined down to the byte: every field is serialized explicitly in
// little-endian order (no memcpy of host-endian structs), doubles are
// hashed by IEEE-754 bit pattern with -0.0 collapsed into +0.0, and the
// terms of every constraint row are canonicalized (merged, sorted by
// variable, zero coefficients dropped, GreaterEq negated into LessEq,
// the expression constant folded into the right-hand side) before
// encoding.  A golden-hash test (tests/ipet/digest_test.cpp) pins the
// resulting bytes so an accidental encoding change cannot silently
// orphan every persisted cache entry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cinderella/lp/problem.hpp"

namespace cinderella::ipet {

/// 128-bit content digest (two independently seeded 64-bit lanes).
struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Digest&, const Digest&) = default;
  friend bool operator<(const Digest& a, const Digest& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  [[nodiscard]] bool empty() const { return hi == 0 && lo == 0; }
  /// 32 lowercase hex characters, `hi` first.
  [[nodiscard]] std::string hex() const;
  /// Inverse of hex(); nullopt unless exactly 32 hex characters.
  [[nodiscard]] static std::optional<Digest> fromHex(std::string_view text);
};

/// Streaming digest over an explicitly little-endian byte encoding.
///
/// Two FNV-1a-style 64-bit lanes with distinct offset bases run over the
/// same byte stream; finish() applies a splitmix64 finalizer to each so
/// closely related inputs still avalanche.  finish() is const, so a
/// prefix digest can be snapshot mid-stream (the structural digest is
/// exactly such a prefix of the full system digest).
class DigestBuilder {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);  ///< 4 bytes, little-endian.
  void u64(std::uint64_t v);  ///< 8 bytes, little-endian.
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern, little-endian; -0.0 collapses into +0.0 so a
  /// sign-flipping canonicalization round-trip cannot split a key.
  void f64(double v);
  /// u64 length prefix + raw bytes (so "ab","c" != "a","bc").
  void str(std::string_view text);
  /// One-byte domain separator between logical sections.
  void tag(char c) { u8(static_cast<std::uint8_t>(c)); }

  [[nodiscard]] Digest finish() const;

 private:
  // FNV-1a 64 offset basis / prime; lane b starts from a different
  // (arbitrary, fixed) offset so the lanes decorrelate.
  std::uint64_t a_ = 0xcbf29ce484222325ull;
  std::uint64_t b_ = 0x9ae16a3b2f90404full;
};

/// Canonical byte key of one LP constraint row (see file comment for the
/// canonical form).  Identical keys <=> identical half-spaces, so sorted
/// key vectors power both the analyzer's constraint-set deduplication
/// and the cache digest.  The returned string is binary, not printable.
[[nodiscard]] std::string canonicalRowKey(lp::Constraint c);

/// Every row's canonicalRowKey, sorted with duplicates removed, so the
/// result depends only on the region the rows carve: identical vectors
/// => identical regions, a proper subset => a superset region.
[[nodiscard]] std::vector<std::string> canonicalRowKeys(
    const std::vector<lp::Constraint>& rows);

}  // namespace cinderella::ipet
