// Arbitrary-precision unsigned integers and slow modular arithmetic: the
// reference integer arithmetic tests check the library's fixed-width,
// Montgomery and compile-time derivations against. Test and bench code only.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bigint/u256.hpp"

namespace dsaudit::bigint {

/// Little-endian dynamically sized unsigned integer. Normalized: no trailing
/// zero limbs (zero is represented by an empty limb vector).
class VarUInt {
 public:
  VarUInt() = default;
  explicit VarUInt(u64 v);
  explicit VarUInt(const U256& v);

  static VarUInt from_dec(const std::string& dec);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  unsigned bit_length() const;
  bool bit(unsigned i) const;
  std::size_t limb_count() const { return limbs_.size(); }
  u64 limb(std::size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }

  /// Truncate to the low 256 bits. Throws std::overflow_error if the value
  /// does not fit.
  U256 to_u256() const;
  std::string to_dec() const;

  friend VarUInt operator+(const VarUInt& a, const VarUInt& b);
  /// Requires a >= b; throws std::underflow_error otherwise.
  friend VarUInt operator-(const VarUInt& a, const VarUInt& b);
  friend VarUInt operator*(const VarUInt& a, const VarUInt& b);
  friend bool operator==(const VarUInt& a, const VarUInt& b) = default;

  static int cmp(const VarUInt& a, const VarUInt& b);

  VarUInt shl(unsigned bits) const;
  VarUInt shr(unsigned bits) const;

  /// Quotient and remainder by binary long division.
  /// Returns {quotient, remainder}.
  static std::pair<VarUInt, VarUInt> divmod(const VarUInt& a, const VarUInt& b);

  static VarUInt pow(const VarUInt& base, unsigned exp);

 private:
  void normalize();
  std::vector<u64> limbs_;
};

/// a mod m via binary long division, bit by bit.
U256 mod(const U512& a, const U256& m);

/// (a * b) mod m, via mul_wide + mod.
U256 mul_mod_slow(const U256& a, const U256& b, const U256& m);

/// a^e mod m by square-and-multiply using the slow modmul.
U256 pow_mod_slow(const U256& a, const U256& e, const U256& m);

}  // namespace dsaudit::bigint
