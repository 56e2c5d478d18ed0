// Reference implementations the library's fast paths are tested against.
// Test and bench code only: each is the slow, obviously-correct version of
// something the library does faster (or derives once at compile time).
#pragma once

#include "curve/g1.hpp"
#include "curve/g2.hpp"
#include "field/fp12.hpp"
#include "pairing/pairing.hpp"
#include "support/varuint.hpp"

namespace dsaudit::oracle {

/// base^e by LSB-first square-and-multiply with generic squarings, for any
/// multiplicative type (one(), operator*, square()) and any exponent type
/// (bit_length(), bit(i)): bigint::U256 or bigint::VarUInt.
template <typename T, typename E>
T pow(const T& base, const E& e) {
  T result = T::one();
  T b = base;
  for (unsigned i = 0, n = e.bit_length(); i < n; ++i) {
    if (e.bit(i)) result = result * b;
    b = b.square();
  }
  return result;
}

/// MSB-first double-and-add ladder: the reference for every scalar
/// multiplication route (GLV, wNAF, fixed-base tables, MSM).
template <typename P>
P mul_naive(const P& p, const bigint::U256& k) {
  P acc = P::infinity();
  for (unsigned i = k.bit_length(); i-- > 0;) {
    acc = acc.dbl();
    if (k.bit(i)) acc += p;
  }
  return acc;
}
template <typename P>
P mul_naive(const P& p, const ff::Fr& k) {
  return mul_naive(p, k.to_u256());
}

/// The full order-r ladder [r] Q == infinity, the reference for the
/// psi-based g2_in_subgroup.
bool g2_in_subgroup_naive(const curve::G2& p);

/// The final exponentiation as one giant exponent (p^12 - 1)/r.
ff::Fp12 final_exponentiation_slow(const ff::Fp12& f);

/// Textbook affine-coordinates Miller loop over the binary expansion of
/// 6t + 2 (chord/tangent lines through the untwisting map) and its pairing:
/// the reference for the prepared NAF engine. The raw Miller values differ
/// from the engine's by a subfield factor the final exponentiation kills, so
/// compare at the pairing level.
ff::Fp12 miller_loop_textbook(const curve::G1& p, const curve::G2& q);
ff::Fp12 pairing_textbook(const curve::G1& p, const curve::G2& q);

/// The tower constants re-derived without the identities kTower is built
/// from: every entry is its own power xi^{k(p^n - 1)/6} over VarUInt
/// exponents.
ff::TowerConsts tower_consts_by_varuint();

}  // namespace dsaudit::oracle
