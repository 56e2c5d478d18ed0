#include "field/sqrt.hpp"

#include "field/fp12.hpp"

namespace dsaudit::ff {

namespace {

/// p-power Frobenius on Fp6: conjugate each coefficient and scale the v and
/// v^2 terms by v^{p-1} = gamma[2] and v^{2(p-1)} = gamma[4].
Fp6 frobenius_p(const Fp6& a) {
  const auto& tc = tower_consts();
  return {a.c0.conjugate(), a.c1.conjugate() * tc.gamma[2],
          a.c2.conjugate() * tc.gamma[4]};
}

/// p^2-power Frobenius on Fp6 (the q-power map for q = p^2): Fp2 is fixed,
/// so only the v and v^2 terms scale.
Fp6 frobenius_p2(const Fp6& a) {
  const auto& tc = tower_consts();
  return {a.c0, a.c1 * tc.gamma_p2[2], a.c2 * tc.gamma_p2[4]};
}

}  // namespace

std::optional<Fp2> sqrt(const Fp2& a) {
  // Complex method: u^2 = -1 and p ≡ 3 (mod 4), so every root reduces to
  // base-field roots.
  if (a.c1.is_zero()) {
    // -1 is a non-residue mod p: exactly one of a0, -a0 is a square, and
    // (r u)^2 = -r^2 covers the second case.
    if (auto r = a.c0.sqrt()) return Fp2{*r, Fp::zero()};
    if (auto r = (-a.c0).sqrt()) return Fp2{Fp::zero(), *r};
    return std::nullopt;
  }
  // (x0 + x1 u)^2 = a gives x0^2 - x1^2 = a0 and 2 x0 x1 = a1, so with
  // gamma = sqrt(a0^2 + a1^2) (the root of the norm, which must exist) one of
  // (a0 +- gamma)/2 is x0^2. x0 != 0 because a1 != 0.
  auto gamma = (a.c0.square() + a.c1.square()).sqrt();
  if (!gamma) return std::nullopt;
  static const Fp half = Fp::from_u64(2).inverse();
  auto x0 = ((a.c0 + *gamma) * half).sqrt();
  if (!x0) x0 = ((a.c0 - *gamma) * half).sqrt();
  if (!x0) return std::nullopt;
  Fp2 x{*x0, a.c1 * x0->dbl().inverse()};
  if (x.square() == a) return x;
  return std::nullopt;
}

std::optional<Fp6> sqrt(const Fp6& a) {
  // Reduction to Fp2. With q = p^2, Fp6 = F_{q^3} and h = 1 + q + q^2 (odd):
  // the norm N = a^h = a * a^q * a^{q^2} lies in Fp2, and a is a square iff N
  // is (a^{(q^3-1)/2} = N^{(q-1)/2}). Then x = a^{(h+1)/2} / sqrt(N) squares
  // to a^{h+1} / N = a, where (h+1)/2 = 1 + q(q+1)/2 and
  // (q+1)/2 = (p-1)/2 * (p+1) + 1 give a^{(q+1)/2} = a * y * y^p for
  // y = a^{(p-1)/2}: one 253-bit power plus Frobenius maps.
  if (a.is_zero()) return Fp6::zero();
  const Fp6 aq = frobenius_p2(a);
  const Fp2 norm = (a * aq * frobenius_p2(aq)).c0;
  auto s = sqrt(norm);
  if (!s) return std::nullopt;
  static const VarUInt p_minus_1_over_2{Fp::params().p_minus_1_over_2};
  const Fp6 y = pow_var(a, p_minus_1_over_2);
  const Fp6 a_half_q1 = a * y * frobenius_p(y);  // a^{(q+1)/2}
  const Fp6 x = (a * frobenius_p2(a_half_q1)).mul_fp2(s->inverse());
  if (x.square() == a) return x;
  return std::nullopt;
}

}  // namespace dsaudit::ff
