#include "support/oracles.hpp"

#include <stdexcept>
#include <vector>

namespace dsaudit::oracle {

namespace {

using bigint::VarUInt;
using curve::G1;
using curve::G2;
using ff::Fp;
using ff::Fp12;
using ff::Fp2;
using ff::Fp6;

/// Affine point on the twist (Fp2 coordinates).
struct TwistPoint {
  Fp2 x, y;
};

TwistPoint to_twist_affine(const G2& q) {
  auto [x, y] = q.to_affine();
  return {x, y};
}

/// A chord/tangent line through untwisted points, evaluated at P = (xp, yp):
///   l = yp - lambda' * xp * w + (lambda' * xT - yT) * w^3,
/// where lambda' is the slope on the twist. Kept sparse — the Miller loop
/// folds it in with Fp12::mul_by_line.
struct Line {
  Fp2 a, b, c;  // (a,0,0) + (b, c, 0) w
};

Line line_value(const Fp2& lambda, const TwistPoint& t, const Fp& xp, const Fp& yp) {
  return Line{Fp2{yp, Fp::zero()}, -(lambda.mul_fp(xp)), lambda * t.x - t.y};
}

/// Vertical line x = xT evaluated at P (the degenerate T.x == Q.x, T != Q
/// addition case, unreachable for honest inputs): l = xp - xT * w^2. Not
/// sparse in the Line shape, so returned as a full Fp12.
Fp12 vertical_line_value(const TwistPoint& t, const Fp& xp) {
  return Fp12{Fp6{Fp2{xp, Fp::zero()}, -t.x, Fp2::zero()}, Fp6::zero()};
}

/// Tangent step: returns the line through (T, T) at P and doubles T in place.
Line double_step(TwistPoint& t, const Fp& xp, const Fp& yp) {
  Fp2 x2 = t.x.square();
  Fp2 lambda = x2.triple() * (t.y.dbl()).inverse();
  Line l = line_value(lambda, t, xp, yp);
  Fp2 xr = lambda.square() - t.x.dbl();
  Fp2 yr = lambda * (t.x - xr) - t.y;
  t = {xr, yr};
  return l;
}

/// Chord step: folds the chord line through (T, Q) into f and sets T = T + Q.
void add_step_into(Fp12& f, TwistPoint& t, const TwistPoint& q, const Fp& xp,
                   const Fp& yp) {
  if (t.x == q.x) {
    if (t.y == q.y) {
      Line l = double_step(t, xp, yp);
      f = f.mul_by_line(l.a, l.b, l.c);
      return;
    }
    f = f * vertical_line_value(t, xp);
    t = {Fp2::zero(), Fp2::zero()};  // poisoned; loop ends immediately after
    return;
  }
  Fp2 lambda = (q.y - t.y) * (q.x - t.x).inverse();
  Line l = line_value(lambda, t, xp, yp);
  Fp2 xr = lambda.square() - t.x - q.x;
  Fp2 yr = lambda * (t.x - xr) - t.y;
  t = {xr, yr};
  f = f.mul_by_line(l.a, l.b, l.c);
}

/// Binary expansion of the optimal-ate loop count 6t + 2, little-endian.
std::vector<bool> six_t_plus_2_bits() {
  bigint::u128 v = static_cast<bigint::u128>(6) * ff::kBnParamT + 2;
  std::vector<bool> b;
  for (; v != 0; v >>= 1) b.push_back((v & 1) != 0);
  return b;
}

}  // namespace

bool g2_in_subgroup_naive(const G2& p) {
  if (!p.is_on_curve()) return false;
  return p.mul(ff::Fr::modulus()).is_infinity();
}

Fp12 final_exponentiation_slow(const Fp12& f) {
  if (f.is_zero()) throw std::domain_error("final_exponentiation_slow: zero input");
  VarUInt p{Fp::modulus()};
  VarUInt e = VarUInt::pow(p, 12) - VarUInt{1};
  auto [q, rem] = VarUInt::divmod(e, VarUInt{ff::Fr::modulus()});
  if (!rem.is_zero()) throw std::logic_error("(p^12-1) not divisible by r");
  return pow(f, q);
}

Fp12 miller_loop_textbook(const G1& p, const G2& q) {
  if (p.is_infinity() || q.is_infinity()) return Fp12::one();
  auto [xp, yp] = p.to_affine();
  TwistPoint qa = to_twist_affine(q);
  const std::vector<bool> bits = six_t_plus_2_bits();

  Fp12 f = Fp12::one();
  TwistPoint t = qa;
  for (std::size_t i = bits.size() - 1; i-- > 0;) {
    f = f.square();
    Line l = double_step(t, xp, yp);
    f = f.mul_by_line(l.a, l.b, l.c);
    if (bits[i]) add_step_into(f, t, qa, xp, yp);
  }
  // Final two additions with the Frobenius images of Q.
  TwistPoint q1 = to_twist_affine(curve::g2_frobenius(q));
  TwistPoint q2 = to_twist_affine(-curve::g2_frobenius2(q));
  add_step_into(f, t, q1, xp, yp);
  add_step_into(f, t, q2, xp, yp);
  return f;
}

Fp12 pairing_textbook(const G1& p, const G2& q) {
  return pairing::final_exponentiation(miller_loop_textbook(p, q));
}

ff::TowerConsts tower_consts_by_varuint() {
  const VarUInt p{Fp::modulus()};
  const VarUInt one{1};
  ff::TowerConsts tc;
  VarUInt p_n = one;
  for (auto* row : {&tc.gamma, &tc.gamma_p2, &tc.gamma_p3}) {
    p_n = p_n * p;
    // (p^n - 1)/6 is exact: p ≡ 1 (mod 6) for BN primes, so p^n ≡ 1 too.
    auto [e, rem] = VarUInt::divmod(p_n - one, VarUInt{6});
    if (!rem.is_zero()) throw std::logic_error("p^n != 1 mod 6");
    for (bigint::u64 k = 0; k < 6; ++k) (*row)[k] = pow(ff::xi(), VarUInt{k} * e);
  }
  return tc;
}

}  // namespace dsaudit::oracle
