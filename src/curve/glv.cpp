// GLV scalar decomposition, and the compile-time checks of the constants in
// glv.hpp (evaluated here once rather than in every includer).
#include "curve/glv.hpp"

#include <stdexcept>

namespace dsaudit::curve {

namespace {

using bigint::U256;
using bigint::U512;
using bigint::u128;
using bigint::u64;

constexpr const U256& kR = ff::Fr::modulus();

constexpr U512 add_wide(const U512& a, const U512& b) {
  U512 out;
  u128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 v = u128{a.limb[i]} + b.limb[i] + carry;
    out.limb[i] = static_cast<u64>(v);
    carry = v >> 64;
  }
  return out;
}

constexpr U512 widen(const U256& a) { return bigint::mul_wide(a, U256{1}); }

constexpr bool less_wide(const U512& a, const U512& b) {
  for (int i = 7; i >= 0; --i) {
    if (a.limb[i] != b.limb[i]) return a.limb[i] < b.limb[i];
  }
  return false;
}

/// x mod r by binary long division.
constexpr U256 mod_r(const U512& x) {
  U256 rem;
  for (int bit = 511; bit >= 0; --bit) {
    rem = bigint::shl1(rem);  // rem < r < 2^255: no bit is lost
    rem.limb[0] |= (x.limb[bit / 64] >> (bit % 64)) & 1;
    if (!bigint::lt(rem, kR)) bigint::sub_with_borrow(rem, kR, rem);
  }
  return rem;
}

/// q == floor(b * 2^256 / r), i.e. q*r <= b*2^256 < q*r + r.
constexpr bool is_scaled_reciprocal(const U256& q, const U256& b) {
  const U512 qr = bigint::mul_wide(q, kR);
  U512 b_shifted;
  for (int i = 0; i < 4; ++i) b_shifted.limb[4 + i] = b.limb[i];
  return !less_wide(b_shifted, qr) && less_wide(b_shifted, add_wide(qr, widen(kR)));
}

static_assert(bigint::lt(kGlv.lambda, kR), "lambda >= r");
// lambda^2 + lambda + 1 = (36t^2 + 3) r exactly, so lambda is a primitive
// cube root of unity mod r.
static_assert(add_wide(add_wide(bigint::mul_wide(kGlv.lambda, kGlv.lambda),
                                widen(kGlv.lambda)),
                       widen(U256{1})) ==
                  bigint::mul_wide(ff::detail::horner({36, 0, 3}, ff::kBnParamT), kR),
              "lambda^2 + lambda + 1 != (36t^2 + 3) r");
// Both basis vectors lie in the lattice: a1 + b1*lambda = 0 and
// b2*lambda - b1 = 0 (mod r).
static_assert(mod_r(add_wide(bigint::mul_wide(kGlv.b1, kGlv.lambda), widen(kGlv.a1)))
                  .is_zero(),
              "v1 not in the GLV lattice");
static_assert(mod_r(bigint::mul_wide(kGlv.b2, kGlv.lambda)) == kGlv.b1,
              "v2 not in the GLV lattice");
static_assert(add_wide(bigint::mul_wide(kGlv.a1, kGlv.b2),
                       bigint::mul_wide(kGlv.b1, kGlv.b1)) == widen(kR),
              "det(v1, v2) = a1*b2 + b1^2 != r");
static_assert(is_scaled_reciprocal(kGlv.g1, kGlv.b2) &&
                  is_scaled_reciprocal(kGlv.g2, kGlv.b1),
              "g_i != floor(2^256 * b_i / r)");
static_assert(kGlv.beta * kGlv.beta * kGlv.beta == ff::Fp::one() &&
                  kGlv.beta != ff::Fp::one(),
              "beta is not a primitive cube root of unity");

}  // namespace

GlvDecomposed glv_decompose(const U256& k) {
  const GlvParams& gp = kGlv;
  // Babai rounding: m1 = round(k * b2 / r), m2 = round(k * b1 / r) — the
  // magnitudes of the rational coordinates c1 = k*b2/r, c2 = -k*b1/r.
  const U256 m1 = bigint::mul_high_rounded(k, gp.g1);
  const U256 m2 = bigint::mul_high_rounded(k, gp.g2);
  // (k1, k2) = (k, 0) - m1 * (a1, b1) - (-m2) * (-b1, b2), exact in two's
  // complement because the true results are < 2^127 in magnitude.
  U256 k1;
  bigint::sub_with_borrow(k, bigint::mul_lo(m1, gp.a1), k1);
  bigint::sub_with_borrow(k1, bigint::mul_lo(m2, gp.b1), k1);
  U256 k2;
  bigint::sub_with_borrow(bigint::mul_lo(m2, gp.b2), bigint::mul_lo(m1, gp.b1), k2);

  GlvDecomposed d;
  d.k1 = bigint::abs2c(k1, d.neg1);
  d.k2 = bigint::abs2c(k2, d.neg2);
  if (d.k1.bit_length() > kGlvHalfBits || d.k2.bit_length() > kGlvHalfBits) {
    throw std::logic_error("glv_decompose: half-scalar exceeds bound");
  }
  return d;
}

}  // namespace dsaudit::curve
