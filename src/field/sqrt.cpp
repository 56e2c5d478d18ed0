#include "field/sqrt.hpp"

namespace dsaudit::ff {

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

}  // namespace dsaudit::ff
