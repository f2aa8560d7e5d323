#include "cinderella/ipet/digest.hpp"

#include <algorithm>
#include <cstring>

namespace cinderella::ipet {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnvByte(std::uint64_t state, std::uint8_t byte) {
  return (state ^ byte) * kFnvPrime;
}

/// splitmix64 finalizer: full avalanche over a 64-bit state.
std::uint64_t finalize(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::string Digest::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t word : {hi, lo}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kHex[(word >> shift) & 0xf]);
    }
  }
  return out;
}

std::optional<Digest> Digest::fromHex(std::string_view text) {
  if (text.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = text[static_cast<std::size_t>(w * 16 + i)];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        nibble = static_cast<std::uint64_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
      words[w] = (words[w] << 4) | nibble;
    }
  }
  return Digest{words[0], words[1]};
}

void DigestBuilder::u8(std::uint8_t v) {
  a_ = fnvByte(a_, v);
  b_ = fnvByte(b_, v);
}

void DigestBuilder::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void DigestBuilder::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void DigestBuilder::f64(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void DigestBuilder::str(std::string_view text) {
  u64(text.size());
  for (const char c : text) u8(static_cast<std::uint8_t>(c));
}

Digest DigestBuilder::finish() const {
  return Digest{finalize(a_), finalize(b_)};
}

std::string canonicalRowKey(lp::Constraint c) {
  c.expr.canonicalize();
  double rhs = c.rhs - c.expr.constant();
  // `expr >= rhs` and `-expr <= -rhs` are the same half-space; encode
  // both as LessEq so they share a key.
  double sign = 1.0;
  lp::Relation rel = c.rel;
  if (rel == lp::Relation::GreaterEq) {
    sign = -1.0;
    rel = lp::Relation::LessEq;
  }
  const auto appendU32 = [](std::string* out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
    }
  };
  const auto appendF64 = [&](std::string* out, double v) {
    if (v == 0.0) v = 0.0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      out->push_back(
          static_cast<char>(static_cast<std::uint8_t>(bits >> (8 * i))));
    }
  };
  std::string row;
  row.reserve(13 + 12 * c.expr.terms().size());
  row.push_back(rel == lp::Relation::Equal ? 'E' : 'L');
  appendU32(&row, static_cast<std::uint32_t>(c.expr.terms().size()));
  for (const auto& t : c.expr.terms()) {
    appendU32(&row, static_cast<std::uint32_t>(t.var));
    appendF64(&row, sign * t.coeff);
  }
  appendF64(&row, sign * rhs);
  return row;
}

std::vector<std::string> canonicalRowKeys(
    const std::vector<lp::Constraint>& rows) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const lp::Constraint& row : rows) keys.push_back(canonicalRowKey(row));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace cinderella::ipet
