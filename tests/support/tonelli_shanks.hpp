// Generic Tonelli–Shanks square roots over Fp2: the differential oracle for
// the complex-method root in field/sqrt.cpp. Test-only — ~p^2-bit ladders
// per root, far too slow for the decode path.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>

#include "field/fp2.hpp"
#include "support/oracles.hpp"

namespace dsaudit::oracle {

using bigint::u64;
using bigint::VarUInt;
using ff::Fp;
using ff::Fp2;

/// Precomputed Tonelli–Shanks context for a field of order q.
template <typename F>
struct TsContext {
  unsigned e = 0;     // 2-adicity of q-1
  VarUInt m;          // odd part: q-1 = 2^e * m
  VarUInt m_plus_1_over_2;
  VarUInt q_minus_1_over_2;
  F z_pow_m;          // c = z^m for a quadratic non-residue z
};

template <typename F>
TsContext<F> make_ts_context(const VarUInt& q, const std::function<F(u64)>& candidate) {
  TsContext<F> ctx;
  VarUInt qm1 = q - VarUInt{1};
  ctx.q_minus_1_over_2 = qm1.shr(1);
  ctx.m = qm1;
  while (!ctx.m.is_odd()) {
    ctx.m = ctx.m.shr(1);
    ++ctx.e;
  }
  ctx.m_plus_1_over_2 = (ctx.m + VarUInt{1}).shr(1);
  // Deterministic non-residue search over small candidate elements.
  for (u64 n = 1; n < 1000; ++n) {
    F z = candidate(n);
    if (z.is_zero()) continue;
    F euler = pow(z, ctx.q_minus_1_over_2);
    if (!euler.is_one()) {
      ctx.z_pow_m = pow(z, ctx.m);
      return ctx;
    }
  }
  throw std::logic_error("tonelli_shanks: no non-residue found (broken field?)");
}

template <typename F>
std::optional<F> tonelli_shanks(const F& a, const TsContext<F>& ctx) {
  if (a.is_zero()) return F::zero();
  F x = pow(a, ctx.m_plus_1_over_2);
  F t = pow(a, ctx.m);
  F c = ctx.z_pow_m;
  unsigned e = ctx.e;
  while (!t.is_one()) {
    // Find the least i with t^{2^i} = 1.
    unsigned i = 0;
    F probe = t;
    while (!probe.is_one()) {
      probe = probe.square();
      ++i;
      if (i >= e) return std::nullopt;  // non-residue
    }
    F b = c;
    for (unsigned j = 0; j + i + 1 < e; ++j) b = b.square();
    x = x * b;
    c = b.square();
    t = t * c;
    e = i;
  }
  if (x.square() == a) return x;
  return std::nullopt;
}

inline std::optional<Fp2> ts_sqrt(const Fp2& a) {
  static const TsContext<Fp2> ctx = [] {
    VarUInt p{Fp::modulus()};
    // Candidates must leave the base field: every Fp element is a square in
    // Fp2 (its Euler exponent (p^2-1)/2 is a multiple of p-1).
    return make_ts_context<Fp2>(
        p * p, [](u64 n) { return Fp2::from_u64(n & 0xff, 1 + (n >> 8)); });
  }();
  return tonelli_shanks(a, ctx);
}

}  // namespace dsaudit::oracle
