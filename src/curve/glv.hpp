// GLV endomorphism scalar decomposition for BN254's G1.
//
// BN254 has j-invariant 0, so E(Fp) : y^2 = x^3 + 3 carries the efficient
// endomorphism phi(x, y) = (beta * x, y) with beta a primitive cube root of
// unity in Fp. On G1 (prime order r, cofactor 1) phi acts as multiplication
// by lambda, the cube root of unity mod r picked out by the curve:
//
//   lambda = 36 t^3 + 18 t^2 + 6 t + 1,   lambda^2 + lambda + 1 = 0 (mod r)
//
// with t the BN parameterization constant (ff::kBnParamT). Every scalar
// k < r then splits as k = k1 + k2 * lambda (mod r) with |k1|, |k2| < 2^127,
// so k * P = k1 * P + k2 * phi(P) runs half the doubling chain of a direct
// 254-bit ladder (Gallant-Lambert-Vanstone, CRYPTO 2001).
//
// The split is Babai rounding against an explicit short basis of the lattice
// L = {(x, y) : x + y*lambda = 0 (mod r)}, from the same t-parameterization:
//
//   v1 = (6 t^2 + 4 t + 1,  2 t + 1)
//   v2 = (-(2 t + 1),       6 t^2 + 2 t)         det(v1, v2) = r exactly
//
// Writing (k, 0) = c1 v1 + c2 v2 over the rationals gives c1 = k(6t^2+2t)/r
// and c2 = -k(2t+1)/r; rounding c_i to integers m_i with the precomputed
// 2^256-scaled reciprocals g_i = floor(2^256 * b_i / r) (one widening
// mul-high each, total rounding error < 3/4) leaves the short remainder
// (k1, k2) = (k, 0) - m1 v1 - m2 v2 with both coordinates < 2^127 in
// magnitude — strictly, 3/4 * (6t^2 + 6t + 2) < 2^127.
//
// Every constant below is computed at compile time from ff::kBnParamT and
// the moduli, and the static_asserts after kGlv check the algebra that makes
// the decomposition sound. beta's orientation (phi(G) = [lambda] G rather
// than [lambda^2] G) needs curve arithmetic and is pinned by a test.
#pragma once

#include "bigint/u256.hpp"
#include "field/fp.hpp"

namespace dsaudit::curve {

/// Upper bound (in bits) on the GLV half-scalar magnitudes; the
/// decomposition throws std::logic_error if a half ever exceeds it.
inline constexpr unsigned kGlvHalfBits = 127;

struct GlvParams {
  ff::Fp beta;        // phi(x, y) = (beta * x, y) acts as [lambda] on G1
  bigint::U256 lambda;  // canonical mod r
  bigint::U256 a1, b1, b2;  // v1 = (a1, b1), v2 = (-b1, b2)
  bigint::U256 g1, g2;      // floor(2^256 * b2 / r), floor(2^256 * b1 / r)
};

namespace detail {

/// floor(num * 2^256 / den) by binary long division over the 512-bit value
/// num * 2^256; requires num < den.
constexpr bigint::U256 div_pow256(const bigint::U256& num, const bigint::U256& den) {
  bigint::U256 rem = num, quo;
  for (int bit = 0; bit < 256; ++bit) {
    const bool top = (rem.limb[3] >> 63) != 0;
    rem = bigint::shl1(rem);
    quo = bigint::shl1(quo);
    if (top || !bigint::lt(rem, den)) {
      bigint::sub_with_borrow(rem, den, rem);
      quo.limb[0] |= 1;
    }
  }
  return quo;
}

}  // namespace detail

inline constexpr GlvParams kGlv = [] {
  using ff::detail::horner;
  const bigint::u64 t = ff::kBnParamT;
  GlvParams gp;
  // The cube root of unity 18t^3 + 18t^2 + 9t + 1 (the other one, its
  // square, would pair with lambda^2).
  gp.beta = ff::Fp::from_u256(horner({18, 18, 9, 1}, t));
  gp.lambda = horner({36, 18, 6, 1}, t);
  gp.a1 = horner({6, 4, 1}, t);
  gp.b1 = horner({2, 1}, t);
  gp.b2 = horner({6, 2, 0}, t);
  gp.g1 = detail::div_pow256(gp.b2, ff::Fr::modulus());
  gp.g2 = detail::div_pow256(gp.b1, ff::Fr::modulus());
  return gp;
}();

/// k = (neg1 ? -k1 : k1) + (neg2 ? -k2 : k2) * lambda (mod r), with the
/// magnitudes k1, k2 < 2^kGlvHalfBits. Requires k < r (canonical scalar).
struct GlvDecomposed {
  bigint::U256 k1, k2;
  bool neg1 = false, neg2 = false;
};

GlvDecomposed glv_decompose(const bigint::U256& k);

}  // namespace dsaudit::curve
