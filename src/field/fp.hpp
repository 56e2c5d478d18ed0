// Montgomery-form prime fields for the BN254 curve.
//
//   Fp — the base field (254-bit p), coordinates of G1/G2/GT elements.
//   Fr — the scalar field (group order r), the paper's Z_p of data blocks.
//
// Elements are stored in Montgomery form (x * 2^256 mod p) and multiplied
// with a 4-limb no-carry CIOS reduction. Every constant (R, R^2, R^3,
// -p^-1 mod 2^64, the exponents) is a compile-time constant computed from the
// modulus limbs, and the static_asserts after FpTag/FrTag check the limbs
// against the BN polynomials p(t), r(t) and the constants against their
// definitions, so a typo in a limb fails the build. The field operations are
// constexpr, so the tower, curve and GLV constants built on top of them are
// compile-time constants with static_asserted identities as well.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

#include "bigint/u256.hpp"
#include "primitives/random.hpp"

namespace dsaudit::ff {

using bigint::U256;
using bigint::u64;

struct MontParams {
  U256 modulus;
  U256 r_mod;    // 2^256 mod p  (Montgomery form of 1)
  U256 r2_mod;   // (2^256)^2 mod p
  U256 r3_mod;   // (2^256)^3 mod p (single-step Montgomery inversion)
  u64 n0_inv;    // -p^{-1} mod 2^64
  U256 p_plus_1_over_4;   // sqrt exponent, floor((p+1)/4); used iff p ≡ 3 mod 4
  U256 p_minus_1_over_2;  // Euler criterion exponent
  U256 p_minus_2;         // Fermat inversion exponent
};

/// Montgomery parameters of an odd modulus below 2^255. R^k mod p comes from
/// 256k modular doublings of 1, so the whole derivation is constexpr limb
/// arithmetic.
constexpr MontParams make_mont_params(const U256& modulus) {
  MontParams P{};
  P.modulus = modulus;
  P.n0_inv = bigint::mont_n0_inv(modulus);
  U256 x{1};
  for (int i = 1; i <= 768; ++i) {
    x = bigint::add_mod(x, x, modulus);
    if (i == 256) P.r_mod = x;
    if (i == 512) P.r2_mod = x;
  }
  P.r3_mod = x;
  const U256 one{1};
  U256 pm1, pp1;
  bigint::sub_with_borrow(modulus, one, pm1);
  bigint::sub_with_borrow(pm1, one, P.p_minus_2);
  P.p_minus_1_over_2 = bigint::shr1(pm1);
  bigint::add_with_carry(modulus, one, pp1);  // p < 2^255, no carry
  P.p_plus_1_over_4 = bigint::shr1(bigint::shr1(pp1));
  return P;
}

namespace detail {

/// CIOS Montgomery product a * b * 2^-256 mod p with the "no-carry"
/// optimization: the modulus' top limb is below 2^62 (static_asserted for
/// both BN254 moduli), so the interleaved multiply/reduce columns never
/// spill into a fifth limb and the product fits in four words plus two
/// running carries. Requires a < 2^256 and b < modulus: the accumulator
/// then stays below b + p < 2p, so the one final subtraction fully reduces
/// the result even for a >= p (from_u256 relies on this). Lives in the
/// header so it inlines into the field operators — this is the innermost
/// loop of every curve operation.
constexpr U256 mont_mul(const U256& a, const U256& b, const MontParams& P) {
  using bigint::u128;
  const std::array<u64, 4>& q = P.modulus.limb;
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 ai = a.limb[i];
    u128 v = static_cast<u128>(ai) * b.limb[0] + t0;
    u64 A = static_cast<u64>(v >> 64);
    const u64 m = static_cast<u64>(v) * P.n0_inv;
    u128 w = static_cast<u128>(m) * q[0] + static_cast<u64>(v);
    u64 C = static_cast<u64>(w >> 64);
    v = static_cast<u128>(ai) * b.limb[1] + t1 + A;
    A = static_cast<u64>(v >> 64);
    w = static_cast<u128>(m) * q[1] + static_cast<u64>(v) + C;
    C = static_cast<u64>(w >> 64);
    t0 = static_cast<u64>(w);
    v = static_cast<u128>(ai) * b.limb[2] + t2 + A;
    A = static_cast<u64>(v >> 64);
    w = static_cast<u128>(m) * q[2] + static_cast<u64>(v) + C;
    C = static_cast<u64>(w >> 64);
    t1 = static_cast<u64>(w);
    v = static_cast<u128>(ai) * b.limb[3] + t3 + A;
    A = static_cast<u64>(v >> 64);
    w = static_cast<u128>(m) * q[3] + static_cast<u64>(v) + C;
    C = static_cast<u64>(w >> 64);
    t2 = static_cast<u64>(w);
    t3 = A + C;  // cannot overflow: q[3] < 2^62 bounds both carries
  }
  U256 r{t0, t1, t2, t3};
  if (!bigint::lt(r, P.modulus)) {
    U256 reduced;
    bigint::sub_with_borrow(r, P.modulus, reduced);
    return reduced;
  }
  return r;
}

/// c[0] t^n + c[1] t^(n-1) + ... + c[n] by Horner's rule over U256 (wraps
/// mod 2^256; the BN polynomials at t stay below 2^254).
constexpr U256 horner(std::initializer_list<u64> coeffs, u64 t) {
  using bigint::u128;
  U256 acc;
  for (u64 c : coeffs) {
    u128 carry = c;
    for (u64& l : acc.limb) {
      const u128 v = static_cast<u128>(l) * t + carry;
      l = static_cast<u64>(v);
      carry = v >> 64;
    }
  }
  return acc;
}

}  // namespace detail

/// A prime-field element. Tag supplies the constants as Tag::kParams.
template <typename Tag>
class PrimeField {
 public:
  PrimeField() = default;  // zero

  static constexpr const MontParams& params() { return Tag::kParams; }
  static constexpr const U256& modulus() { return params().modulus; }

  static constexpr PrimeField zero() { return PrimeField{}; }
  static constexpr PrimeField one() {
    PrimeField r;
    r.v_ = params().r_mod;
    return r;
  }

  static constexpr PrimeField from_u64(u64 v) { return from_u256(U256{v}); }

  /// Reduce an arbitrary 256-bit value mod p and lift to Montgomery form:
  /// v * R^2 * R^-1 = v * R (mod p), which mont_mul returns fully reduced
  /// for any v < 2^256 because R^2 mod p < p.
  static constexpr PrimeField from_u256(const U256& v) {
    PrimeField r;
    r.v_ = detail::mont_mul(v, params().r2_mod, params());
    return r;
  }

  /// Interpret 32 big-endian bytes as an integer and reduce mod p. This is
  /// the PRF-output-to-Z_p mapping used during challenge expansion. It is
  /// NOT uniform: for BN254, 2^256 = 5p + 0.29p, so residues below 2^256 mod p
  /// have 6 preimages and the rest 5 (statistical distance ~0.039). Kept
  /// as is because challenges and seeds are pinned to it; use random() for
  /// secret or masking values.
  static PrimeField from_be_bytes_mod(std::span<const std::uint8_t, 32> bytes) {
    return from_u256(U256::from_be_bytes(bytes));
  }

  /// Uniform element: 512 random bits hi * 2^256 + lo reduced mod p, which
  /// is within 2^-250 of uniform.
  static PrimeField random(primitives::SecureRng& rng) {
    std::array<std::uint8_t, 64> b{};
    rng.fill(b);
    const std::span<const std::uint8_t, 64> bytes(b);
    PrimeField two_256;  // 2^256 mod p, whose Montgomery form is r2_mod
    two_256.v_ = params().r2_mod;
    return from_be_bytes_mod(bytes.first<32>()) * two_256 +
           from_be_bytes_mod(bytes.last<32>());
  }

  /// Canonical (non-Montgomery) integer value in [0, p).
  constexpr U256 to_u256() const {
    const auto& P = params();
    return detail::mont_mul(v_, U256{1}, P);
  }

  void to_be_bytes(std::span<std::uint8_t, 32> out) const {
    to_u256().to_be_bytes(out);
  }
  std::array<std::uint8_t, 32> to_bytes() const {
    std::array<std::uint8_t, 32> out;
    to_be_bytes(out);
    return out;
  }

  std::string to_dec() const { return to_u256().to_dec(); }

  constexpr bool is_zero() const { return v_.is_zero(); }
  constexpr bool is_one() const { return v_ == params().r_mod; }

  friend constexpr PrimeField operator+(const PrimeField& a, const PrimeField& b) {
    PrimeField r;
    r.v_ = bigint::add_mod(a.v_, b.v_, params().modulus);
    return r;
  }
  friend constexpr PrimeField operator-(const PrimeField& a, const PrimeField& b) {
    PrimeField r;
    r.v_ = bigint::sub_mod(a.v_, b.v_, params().modulus);
    return r;
  }
  constexpr PrimeField operator-() const {
    PrimeField r;
    r.v_ = v_.is_zero() ? v_ : bigint::sub_mod(U256{}, v_, params().modulus);
    return r;
  }
  friend constexpr PrimeField operator*(const PrimeField& a, const PrimeField& b) {
    PrimeField r;
    r.v_ = detail::mont_mul(a.v_, b.v_, params());
    return r;
  }
  constexpr PrimeField& operator+=(const PrimeField& o) { return *this = *this + o; }
  constexpr PrimeField& operator-=(const PrimeField& o) { return *this = *this - o; }
  constexpr PrimeField& operator*=(const PrimeField& o) { return *this = *this * o; }

  // A dedicated sum-of-squares path was measured slower than the interleaved
  // CIOS multiply at 4 limbs (the separate reduction pass costs more than the
  // 6 saved limb products), so squaring just multiplies.
  constexpr PrimeField square() const { return *this * *this; }
  constexpr PrimeField dbl() const { return *this + *this; }

  /// Inversion via binary extended GCD (an order of magnitude faster than
  /// Fermat at this size; the Miller loop inverts once per step). Returns
  /// zero for zero — callers that care check is_zero() first.
  PrimeField inverse() const {
    if (is_zero()) return zero();
    const auto& P = params();
    // v_ = a*R; inv_mod gives a^{-1} R^{-1}; multiply by R^3 (two Montgomery
    // reductions fold in) to land back on a^{-1} R.
    U256 raw = bigint::inv_mod(v_, P.modulus);
    PrimeField r;
    r.v_ = detail::mont_mul(raw, P.r3_mod, P);
    return r;
  }

  /// Fermat inversion a^{p-2}: the compile-time inverse (inv_mod is not
  /// constexpr) and an independent cross-check of inverse().
  constexpr PrimeField inverse_fermat() const { return pow_u256(params().p_minus_2); }

  constexpr PrimeField pow_u256(const U256& e) const {
    PrimeField result = one();
    PrimeField base = *this;
    unsigned n = e.bit_length();
    for (unsigned i = 0; i < n; ++i) {
      if (e.bit(i)) result *= base;
      base = base.square();
    }
    return result;
  }

  /// Square root via the p ≡ 3 (mod 4) shortcut; nullopt if not a quadratic
  /// residue. Only declared for such fields: Fr has r ≡ 1 (mod 4), so
  /// Fr::sqrt() does not compile (nothing in the protocol needs it).
  std::optional<PrimeField> sqrt() const
    requires(Tag::kParams.modulus.limb[0] % 4 == 3)
  {
    PrimeField cand = pow_u256(params().p_plus_1_over_4);
    if (cand.square() == *this) return cand;
    return std::nullopt;
  }

  /// Euler criterion: +1 residue, -1 non-residue, 0 for zero.
  int legendre() const {
    if (is_zero()) return 0;
    PrimeField e = pow_u256(params().p_minus_1_over_2);
    return e.is_one() ? 1 : -1;
  }

  /// True if the canonical integer representative is odd (used for point
  /// compression sign bits).
  bool is_odd_canonical() const { return to_u256().is_odd(); }

  friend constexpr bool operator==(const PrimeField& a, const PrimeField& b) = default;

  /// Raw Montgomery limbs (serialization of internal state for hashing
  /// would be non-canonical; use to_bytes() instead). Exposed for tests.
  constexpr const U256& mont_repr() const { return v_; }

 private:
  U256 v_{};  // Montgomery form
};

/// The BN parameter t: p = p(t) and r = r(t) below, and the curve and
/// pairing layers derive their constants from it.
inline constexpr u64 kBnParamT = 4965661367192848881ULL;

struct FpTag {
  // p = 0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47
  static constexpr MontParams kParams = make_mont_params(
      U256{0x3c208c16d87cfd47, 0x97816a916871ca8d, 0xb85045b68181585d,
           0x30644e72e131a029});
};
struct FrTag {
  // r = 0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001
  static constexpr MontParams kParams = make_mont_params(
      U256{0x43e1f593f0000001, 0x2833e84879b97091, 0xb85045b68181585d,
           0x30644e72e131a029});
};

// Compile-time checks of both fields' constants.
static_assert(FpTag::kParams.modulus ==
                  detail::horner({36, 36, 24, 6, 1}, kBnParamT),
              "p != 36t^4 + 36t^3 + 24t^2 + 6t + 1");
static_assert(FrTag::kParams.modulus ==
                  detail::horner({36, 36, 18, 6, 1}, kBnParamT),
              "r != 36t^4 + 36t^3 + 18t^2 + 6t + 1");
static_assert(FpTag::kParams.modulus.limb[3] < (u64{1} << 62) &&
                  FrTag::kParams.modulus.limb[3] < (u64{1} << 62),
              "no-carry mont_mul needs a top modulus limb below 2^62");
static_assert(FpTag::kParams.modulus.limb[0] * FpTag::kParams.n0_inv == ~u64{0} &&
                  FrTag::kParams.modulus.limb[0] * FrTag::kParams.n0_inv == ~u64{0},
              "n0 != -p^-1 mod 2^64");
static_assert(detail::mont_mul(FpTag::kParams.r2_mod, U256{1}, FpTag::kParams) ==
                      FpTag::kParams.r_mod &&
                  detail::mont_mul(FrTag::kParams.r2_mod, U256{1}, FrTag::kParams) ==
                      FrTag::kParams.r_mod,
              "mont_mul(R^2, 1) != R");
static_assert(detail::mont_mul(FpTag::kParams.r3_mod, U256{1}, FpTag::kParams) ==
                      FpTag::kParams.r2_mod &&
                  detail::mont_mul(FrTag::kParams.r3_mod, U256{1}, FrTag::kParams) ==
                      FrTag::kParams.r2_mod,
              "mont_mul(R^3, 1) != R^2");

/// 6t^2, which for BN curves is exactly p - r: the 127-bit exponent of the
/// G2 and GT subgroup checks (curve/g2.cpp, pairing/pairing.cpp).
inline constexpr U256 kSixTSq = detail::horner({6, 0, 0}, kBnParamT);
static_assert(
    [] {
      U256 p_minus_r;
      bigint::sub_with_borrow(FpTag::kParams.modulus, FrTag::kParams.modulus,
                              p_minus_r);
      return p_minus_r == kSixTSq;
    }(),
    "p - r != 6t^2");

/// Base field of BN254 (alt_bn128): coordinates of curve points.
using Fp = PrimeField<FpTag>;
/// Scalar field (group order r): the paper's Z_p of data blocks/exponents.
using Fr = PrimeField<FrTag>;

/// 1/2 in Fp, i.e. (p + 1)/2: the Miller-loop doubling step and the Fp2
/// square root halve.
inline constexpr Fp kFpHalf =
    Fp::from_u256(bigint::shl1(FpTag::kParams.p_plus_1_over_4));
static_assert(kFpHalf.dbl() == Fp::one(), "kFpHalf != 1/2");

}  // namespace dsaudit::ff
