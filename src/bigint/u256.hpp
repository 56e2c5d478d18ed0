// Fixed-width 256-bit and 512-bit unsigned integer arithmetic.
//
// These are the workhorse types underneath the Montgomery field arithmetic in
// src/field. They are deliberately simple value types (no dynamic allocation,
// trivially copyable) with explicit carry handling built on the compiler's
// 128-bit integer support.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dsaudit::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// 256-bit unsigned integer, little-endian limb order (limb[0] is least
/// significant). Arithmetic is modulo 2^256 unless the function reports carry.
struct U256 {
  std::array<u64, 4> limb{0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(u64 v) : limb{v, 0, 0, 0} {}
  constexpr U256(u64 l0, u64 l1, u64 l2, u64 l3) : limb{l0, l1, l2, l3} {}

  static U256 zero() { return U256{}; }
  static U256 one() { return U256{1}; }

  /// Parse a hex string (with or without 0x prefix). Throws std::invalid_argument
  /// on malformed input or overflow past 256 bits.
  static U256 from_hex(std::string_view hex);

  /// Parse a decimal string. Throws std::invalid_argument on malformed input.
  static U256 from_dec(std::string_view dec);

  /// 32-byte big-endian encoding (the conventional wire format for field
  /// elements in this library).
  static U256 from_be_bytes(std::span<const std::uint8_t, 32> bytes);
  void to_be_bytes(std::span<std::uint8_t, 32> out) const;

  std::string to_hex() const;
  std::string to_dec() const;

  constexpr bool is_zero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  constexpr bool is_odd() const { return limb[0] & 1; }
  constexpr bool bit(unsigned i) const { return (limb[i / 64] >> (i % 64)) & 1; }

  /// Bits [bit_offset, bit_offset + width) as an integer, width <= 64. Bits
  /// at or past 256 read as zero, so callers can scan fixed-width windows off
  /// the top without clamping. This is the MSM window-digit extractor: one
  /// shift (or two, straddling a limb boundary) instead of `width` bit()
  /// probes.
  u64 extract_window(unsigned bit_offset, unsigned width) const {
    if (bit_offset >= 256 || width == 0) return 0;
    unsigned idx = bit_offset / 64;
    unsigned shift = bit_offset % 64;
    u64 v = limb[idx] >> shift;
    if (shift != 0 && idx + 1 < 4) v |= limb[idx + 1] << (64 - shift);
    u64 mask = width >= 64 ? ~u64{0} : (u64{1} << width) - 1;
    return v & mask;
  }

  /// Number of significant bits (0 for zero).
  constexpr unsigned bit_length() const {
    for (int i = 3; i >= 0; --i) {
      if (limb[i] != 0) {
        return static_cast<unsigned>(64 * i + std::bit_width(limb[i]));
      }
    }
    return 0;
  }

  friend bool operator==(const U256& a, const U256& b) = default;
};

// The carry/borrow/compare/shift primitives below are the inner loop of every
// Montgomery field operation, so they live in the header where they inline
// into call sites (measurably faster than out-of-line calls for 4-limb work).
// They are constexpr so the field constants (src/field/fp.hpp) are computed
// and checked at compile time.

constexpr int cmp(const U256& a, const U256& b) {  // -1, 0, +1
  for (int i = 3; i >= 0; --i) {
    if (a.limb[i] < b.limb[i]) return -1;
    if (a.limb[i] > b.limb[i]) return 1;
  }
  return 0;
}

/// a < b, a <= b as unsigned 256-bit integers.
constexpr bool lt(const U256& a, const U256& b) { return cmp(a, b) < 0; }
constexpr bool lte(const U256& a, const U256& b) { return cmp(a, b) <= 0; }

/// out = a + b; returns carry-out (0 or 1).
constexpr u64 add_with_carry(const U256& a, const U256& b, U256& out) {
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 v = static_cast<u128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<u64>(v);
    carry = v >> 64;
  }
  return static_cast<u64>(carry);
}

/// out = a - b; returns borrow-out (0 or 1).
constexpr u64 sub_with_borrow(const U256& a, const U256& b, U256& out) {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 v = static_cast<u128>(a.limb[i]) - b.limb[i] - borrow;
    out.limb[i] = static_cast<u64>(v);
    borrow = (v >> 64) & 1;  // two's-complement borrow propagates in bit 64
  }
  return static_cast<u64>(borrow);
}

/// (a + b) mod m; requires a, b < m.
constexpr U256 add_mod(const U256& a, const U256& b, const U256& m) {
  U256 sum;
  u64 carry = add_with_carry(a, b, sum);
  if (carry || !lt(sum, m)) {
    U256 reduced;
    sub_with_borrow(sum, m, reduced);
    return reduced;
  }
  return sum;
}

/// (a - b) mod m; requires a, b < m.
constexpr U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  U256 diff;
  u64 borrow = sub_with_borrow(a, b, diff);
  if (borrow) {
    U256 fixed;
    add_with_carry(diff, m, fixed);
    return fixed;
  }
  return diff;
}

constexpr U256 shl1(const U256& a) {  // a << 1 (mod 2^256)
  U256 r;
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    r.limb[i] = (a.limb[i] << 1) | carry;
    carry = a.limb[i] >> 63;
  }
  return r;
}

constexpr U256 shr1(const U256& a) {  // a >> 1
  U256 r;
  u64 carry = 0;
  for (int i = 3; i >= 0; --i) {
    r.limb[i] = (a.limb[i] >> 1) | (carry << 63);
    carry = a.limb[i] & 1;
  }
  return r;
}

/// 512-bit unsigned integer, little-endian limbs.
struct U512 {
  std::array<u64, 8> limb{};

  constexpr bool is_zero() const {
    u64 acc = 0;
    for (u64 l : limb) acc |= l;
    return acc == 0;
  }
  constexpr U256 lo() const { return U256{limb[0], limb[1], limb[2], limb[3]}; }
  constexpr U256 hi() const { return U256{limb[4], limb[5], limb[6], limb[7]}; }

  friend bool operator==(const U512& a, const U512& b) = default;
};

/// Full 256x256 -> 512 bit product.
constexpr U512 mul_wide(const U256& a, const U256& b) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 v = static_cast<u128>(a.limb[i]) * b.limb[j] + r.limb[i + j] + carry;
      r.limb[i + j] = static_cast<u64>(v);
      carry = v >> 64;
    }
    r.limb[i + 4] = static_cast<u64>(carry);
  }
  return r;
}

/// Low 256 bits of a * b (the product modulo 2^256) — the lattice-vector
/// accumulation step of the GLV decomposition, where the small results are
/// exact in two's complement even though the intermediate products wrap.
U256 mul_lo(const U256& a, const U256& b);

/// round(a * b / 2^256) = floor((a * b + 2^255) / 2^256): the widening
/// mul-high with rounding used by the GLV Babai-rounding step, where b is a
/// precomputed round(2^256 * v / r) constant.
U256 mul_high_rounded(const U256& a, const U256& b);

// Two's-complement views of U256: the GLV half-scalars come out of the
// lattice subtraction as signed 256-bit values whose magnitudes are small
// (< 2^128); these helpers split them back into (magnitude, sign).

/// Top bit of a, read as the sign of the two's-complement interpretation.
inline bool sign_bit(const U256& a) { return (a.limb[3] >> 63) != 0; }

/// -a modulo 2^256 (two's-complement negation).
inline U256 neg2c(const U256& a) {
  U256 r;
  sub_with_borrow(U256{}, a, r);
  return r;
}

/// Magnitude of the two's-complement interpretation of a; sets `negative` to
/// the sign. abs2c(a).first <= 2^255, and for GLV half-scalars the result is
/// guaranteed < 2^128 (asserted by the decomposition).
inline U256 abs2c(const U256& a, bool& negative) {
  negative = sign_bit(a);
  return negative ? neg2c(a) : a;
}

/// Modular inverse of a mod m (m odd, gcd(a,m)=1) via the extended binary
/// Euclidean algorithm. Throws std::domain_error if not invertible.
U256 inv_mod(const U256& a, const U256& m);

/// -m^{-1} mod 2^64, for Montgomery reduction (m must be odd).
constexpr u64 mont_n0_inv(const U256& m) {
  if (!m.is_odd()) throw std::domain_error("mont_n0_inv: modulus must be odd");
  // Newton iteration: inv *= 2 - m*inv doubles correct bits each round.
  const u64 m0 = m.limb[0];
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;  // -inv mod 2^64
}

}  // namespace dsaudit::bigint
