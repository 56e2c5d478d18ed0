#include "pairing/pairing.hpp"

#include <array>
#include <atomic>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace dsaudit::pairing {

namespace {

/// Process-wide telemetry (relaxed atomics: counts only, no ordering). The
/// settlement tests assert "3 pairings for a whole batch" against these.
std::atomic<std::uint64_t> g_chains{0};
std::atomic<std::uint64_t> g_final_exps{0};

using ff::Fp;
using ff::Fp6;
using bigint::u128;

/// g^e through the one GT exponentiation engine, over a one-element span.
/// Cyclotomic-subgroup inputs only.
Fp12 gt_pow(const Fp12& g, const ff::U256& e) {
  return Fp12::multi_pow(std::span<const Fp12>(&g, 1),
                         std::span<const ff::U256>(&e, 1));
}

/// Affine point on the twist (Fp2 coordinates), never infinity inside the
/// Miller loop for valid inputs of prime order r.
struct TwistPoint {
  Fp2 x, y;
};

TwistPoint to_twist_affine(const G2& q) {
  auto [x, y] = q.to_affine();
  return {x, y};
}

/// Signed NAF digits of v (little-endian, digits in {-1, 0, 1}), written to
/// out unless it is null; returns the digit count.
constexpr std::size_t naf_digits(u128 v, std::int8_t* out) {
  std::size_t n = 0;
  while (v != 0) {
    std::int8_t d = 0;
    if (v & 1) {
      // Odd: pick the digit in {-1, 1} making v - digit divisible by 4,
      // which forces the next digit to 0 (the NAF property).
      d = (v & 3) == 3 ? -1 : 1;
      v -= d;  // unsigned wrap-around implements the -(-1) correctly
    }
    if (out != nullptr) out[n] = d;
    ++n;
    v >>= 1;
  }
  return n;
}

/// The optimal-ate loop count 6t + 2 (65 bits for BN254).
constexpr u128 kSixTPlus2 = u128{6} * ff::kBnParamT + 2;

/// Signed NAF digits of 6t + 2, little-endian: 22 nonzero digits where the
/// binary expansion has 37 set bits — 15 fewer addition steps per Miller
/// chain, paid for by one extra doubling (the NAF is one digit longer). A
/// digit of -1 adds -Q; for even embedding degree the dropped vertical lines
/// land in a subfield the final exponentiation kills, so pairing-level
/// results are unchanged (tests pin the pairing against a textbook binary
/// loop for exactly that equality). Shared by the G2Prepared coefficient
/// builder and the replay loops — both must walk the identical chain for
/// the lock-step cursor to line up.
constexpr auto kSixTPlus2Naf = [] {
  std::array<std::int8_t, naf_digits(kSixTPlus2, nullptr)> d{};
  naf_digits(kSixTPlus2, d.data());
  return d;
}();

static_assert(
    [] {
      u128 v = 0;
      for (std::size_t i = kSixTPlus2Naf.size(); i-- > 0;) {
        v = 2 * v + static_cast<u128>(static_cast<std::int64_t>(kSixTPlus2Naf[i]));
        if (i > 0 && kSixTPlus2Naf[i] != 0 && kSixTPlus2Naf[i - 1] != 0) return false;
      }
      return v == kSixTPlus2 && kSixTPlus2Naf.back() == 1;
    }(),
    "kSixTPlus2Naf is not the NAF of 6t + 2");

// ---------------------------------------------------------------------------
// Prepared engine: homogeneous projective Miller steps (Costello–Lange–
// Naehrig formulas for the D-type twist y^2 = x^3 + b/xi). The running point
// (X : Y : Z) represents (X/Z, Y/Z); both steps are inversion-free, and the
// produced line coefficients are the affine chord/tangent lines scaled by a
// factor in Fp2 — a subfield of Fp12 killed by the final exponentiation.
// ---------------------------------------------------------------------------

struct HomProjective {
  Fp2 x, y, z;
};


/// Tangent line at T, doubling T in place. Line = -H*yp + 3X^2*xp*w + (E-B)w^3
/// with E = 3b'Z^2, B = Y^2 (up to the shared projective scale).
G2Prepared::Coeffs doubling_step(HomProjective& r) {
  Fp2 a = (r.x * r.y).mul_fp(ff::kFpHalf);
  Fp2 b = r.y.square();
  Fp2 c = r.z.square();
  Fp2 e = G2::curve_b() * c.triple();
  Fp2 f = e.triple();
  Fp2 g = (b + f).mul_fp(ff::kFpHalf);
  Fp2 h = (r.y + r.z).square() - (b + c);
  Fp2 i = e - b;
  Fp2 j = r.x.square();
  Fp2 e2 = e.square();
  r.x = a * (b - f);
  r.y = g.square() - e2.triple();
  r.z = b * h;
  return {-h, j.triple(), i};
}

/// Chord line through (T, Q), setting T = T + Q. Never divides, so the
/// degenerate T = -Q case (unreachable for order-r Q and this chain) safely
/// yields the point at infinity (Z = 0) instead of crashing.
G2Prepared::Coeffs addition_step(HomProjective& r, const TwistPoint& q) {
  Fp2 theta = r.y - q.y * r.z;
  Fp2 lambda = r.x - q.x * r.z;
  Fp2 c = theta.square();
  Fp2 d = lambda.square();
  Fp2 e = lambda * d;
  Fp2 f = r.z * c;
  Fp2 g = r.x * d;
  Fp2 h = e + f - g.dbl();
  r.x = lambda * h;
  r.y = theta * (g - h) - e * r.y;
  r.z = r.z * e;
  Fp2 j = theta * q.x - lambda * q.y;
  return {lambda, -theta, j};
}

/// Folds one cached line into f, scaled by the G1 argument's coordinates.
inline void fold_line(Fp12& f, const G2Prepared::Coeffs& co, const Fp& xp,
                      const Fp& yp) {
  f = f.mul_by_line(co.a.mul_fp(yp), co.b.mul_fp(xp), co.c);
}

/// A pairing-product input with the G1 point resolved to affine; built once
/// per call so the lock-step replay loop only touches flat data.
struct ActivePair {
  Fp xp, yp;
  const std::vector<G2Prepared::Coeffs>* coeffs;
};

/// Lock-step Miller loops over any number of prepared pairs: one shared f,
/// one Fp12 squaring per bit for the whole product. Every coefficient chain
/// has identical length and layout (same NAF addition chain), so a single
/// cursor walks all of them.
Fp12 miller_loop_product(std::span<const ActivePair> pairs) {
  if (pairs.empty()) return Fp12::one();
  const auto& naf = kSixTPlus2Naf;
  Fp12 f = Fp12::one();
  std::size_t idx = 0;
  for (std::size_t i = naf.size() - 1; i-- > 0;) {
    f = f.square();
    for (const auto& p : pairs) fold_line(f, (*p.coeffs)[idx], p.xp, p.yp);
    ++idx;
    if (naf[i] != 0) {
      for (const auto& p : pairs) fold_line(f, (*p.coeffs)[idx], p.xp, p.yp);
      ++idx;
    }
  }
  // Final two additions with the Frobenius images of Q.
  for (const auto& p : pairs) fold_line(f, (*p.coeffs)[idx], p.xp, p.yp);
  ++idx;
  for (const auto& p : pairs) fold_line(f, (*p.coeffs)[idx], p.xp, p.yp);
  return f;
}

/// Sharded Miller product: splits the chains into one contiguous group per
/// pool thread, runs each group's lock-step loop concurrently, and multiplies
/// the group values together. Squarings distribute over products
/// ((f_a * f_b)^2 = f_a^2 * f_b^2) and the line folds commute, so the grouped
/// value is the exact same field element as the fully lock-step one — the
/// grouping only trades shared per-bit squarings for wall-clock. One thread
/// (or a single chain) takes the fully shared loop unchanged.
Fp12 miller_loop_product_sharded(std::span<const ActivePair> pairs) {
  const unsigned threads = parallel::thread_count();
  if (threads <= 1 || parallel::in_worker() || pairs.size() <= 1) {
    return miller_loop_product(pairs);
  }
  const std::size_t groups =
      std::size_t{threads} < pairs.size() ? threads : pairs.size();
  std::vector<Fp12> partial(groups, Fp12::one());
  const std::size_t base = pairs.size() / groups, extra = pairs.size() % groups;
  parallel::parallel_for(groups, [&](std::size_t g) {
    const std::size_t begin = g * base + (g < extra ? g : extra);
    const std::size_t end = begin + base + (g < extra ? 1 : 0);
    partial[g] = miller_loop_product(pairs.subspan(begin, end - begin));
  });
  Fp12 f = partial[0];
  for (std::size_t g = 1; g < groups; ++g) f = f * partial[g];
  return f;
}

/// Collects the finite pairs of a product (an infinite side contributes the
/// trivial factor 1) and checks chain-length consistency.
template <typename PairRange, typename GetG1, typename GetPrepared>
Fp12 miller_product_of(const PairRange& pairs, GetG1&& g1_of,
                       GetPrepared&& prep_of) {
  std::vector<ActivePair> active;
  active.reserve(pairs.size());
  std::size_t chain = 0;
  for (const auto& pr : pairs) {
    const G2Prepared& q = prep_of(pr);
    const G1& p = g1_of(pr);
    if (p.is_infinity() || q.is_infinity()) continue;
    if (chain == 0) {
      chain = q.coeffs().size();
    } else if (q.coeffs().size() != chain) {
      throw std::logic_error("multi_pairing: mismatched prepared chains");
    }
    auto [xp, yp] = p.to_affine();
    active.push_back({xp, yp, &q.coeffs()});
  }
  g_chains.fetch_add(active.size(), std::memory_order_relaxed);
  return miller_loop_product_sharded(active);
}

}  // namespace

G2Prepared::G2Prepared(const G2& q) {
  if (q.is_infinity()) return;
  auto [qx, qy] = q.to_affine();
  const TwistPoint qa{qx, qy};
  const TwistPoint qneg{qx, -qy};
  HomProjective r{qx, qy, Fp2::one()};
  const auto& naf = kSixTPlus2Naf;
  coeffs_.reserve(naf.size() + 24);
  for (std::size_t i = naf.size() - 1; i-- > 0;) {
    coeffs_.push_back(doubling_step(r));
    if (naf[i] == 1) {
      coeffs_.push_back(addition_step(r, qa));
    } else if (naf[i] == -1) {
      coeffs_.push_back(addition_step(r, qneg));
    }
  }
  coeffs_.push_back(addition_step(r, to_twist_affine(curve::g2_frobenius(q))));
  coeffs_.push_back(addition_step(r, to_twist_affine(-curve::g2_frobenius2(q))));
}

Fp12 miller_loop(const G1& p, const G2Prepared& q) {
  if (p.is_infinity() || q.is_infinity()) return Fp12::one();
  g_chains.fetch_add(1, std::memory_order_relaxed);
  auto [xp, yp] = p.to_affine();
  ActivePair pair{xp, yp, &q.coeffs()};
  return miller_loop_product(std::span<const ActivePair>(&pair, 1));
}

Fp12 miller_loop(const G1& p, const G2& q) {
  if (p.is_infinity() || q.is_infinity()) return Fp12::one();
  return miller_loop(p, G2Prepared(q));
}

Fp12 final_exponentiation(const Fp12& f) {
  if (f.is_zero()) throw std::domain_error("final_exponentiation: zero input");
  g_final_exps.fetch_add(1, std::memory_order_relaxed);
  // Easy part: f^{(p^6-1)(p^2+1)}.
  Fp12 t0 = f.conjugate() * f.inverse();       // f^{p^6 - 1}
  Fp12 elt = t0.frobenius2() * t0;             // ^{p^2 + 1}

  // Hard part: elt^{(p^4 - p^2 + 1)/r} via the Devegili et al. BN recipe
  // (the same structure as go-ethereum's bn256 finalExponentiation). All
  // values here live in the cyclotomic subgroup — the easy part put elt
  // there, and Frobenius maps, conjugates and products stay inside — so the
  // three exponentiations by the BN parameter run on the signed-window GT
  // engine with cyclotomic squarings.
  const ff::U256 u{ff::kBnParamT};
  Fp12 fp = elt.frobenius();
  Fp12 fp2 = elt.frobenius2();
  Fp12 fp3 = fp2.frobenius();
  Fp12 fu = gt_pow(elt, u);
  Fp12 fu2 = gt_pow(fu, u);
  Fp12 fu3 = gt_pow(fu2, u);
  Fp12 y3 = fu.frobenius().conjugate();
  Fp12 fu2p = fu2.frobenius();
  Fp12 fu3p = fu3.frobenius();
  Fp12 y2 = fu2.frobenius2();
  Fp12 y0 = fp * fp2 * fp3;
  Fp12 y1 = elt.conjugate();
  Fp12 y5 = fu2.conjugate();
  Fp12 y4 = (fu * fu2p).conjugate();
  Fp12 y6 = (fu3 * fu3p).conjugate();
  Fp12 a = y6.cyclotomic_square() * y4 * y5;
  Fp12 b = y3 * y5 * a;
  a = a * y2;
  b = (b.cyclotomic_square() * a).cyclotomic_square();
  a = b * y1;
  b = b * y0;
  a = a.cyclotomic_square();
  return a * b;
}

Fp12 pairing(const G1& p, const G2& q) {
  return final_exponentiation(miller_loop(p, q));
}

Fp12 pairing(const G1& p, const G2Prepared& q) {
  return final_exponentiation(miller_loop(p, q));
}

Fp12 multi_pairing(std::span<const std::pair<G1, G2>> pairs) {
  // One-shot path: prepare each finite Q, then replay in lock-step. The
  // preparation work equals the G2-side work a direct loop would do, so even
  // cold this wins the shared squarings.
  std::vector<G2Prepared> prepared(pairs.size());
  parallel::parallel_for(pairs.size(), [&](std::size_t i) {
    if (!pairs[i].first.is_infinity() && !pairs[i].second.is_infinity()) {
      prepared[i] = G2Prepared(pairs[i].second);
    }
  });
  std::vector<PreparedPair> pp(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pp[i] = {pairs[i].first, &prepared[i]};
  }
  return multi_pairing(std::span<const PreparedPair>(pp));
}

Fp12 multi_pairing(std::span<const PreparedPair> pairs) {
  Fp12 f = miller_product_of(
      pairs, [](const PreparedPair& p) -> const G1& { return p.g1; },
      [](const PreparedPair& p) -> const G2Prepared& {
        static const G2Prepared inf;
        return p.g2 ? *p.g2 : inf;
      });
  return final_exponentiation(f);
}

bool pairing_product_is_one(std::span<const std::pair<G1, G2>> pairs) {
  return multi_pairing(pairs).is_one();
}

bool pairing_product_is_one(std::span<const PreparedPair> pairs) {
  return multi_pairing(pairs).is_one();
}

bool gt_in_subgroup(const Fp12& g) {
  if (g.is_zero()) return false;
  // Cyclotomic subgroup membership: g^{Phi_12(p)} = 1 with Phi_12(p) =
  // p^4 - p^2 + 1, i.e. g^{p^4} * g == g^{p^2} — two Frobenius maps and one
  // multiplication.
  Fp12 gp2 = g.frobenius2();
  Fp12 gp4 = gp2.frobenius2();
  if (!(gp4 * g == gp2)) return false;
  // Order r: for BN curves p = r + 6t^2 as integers, so g^p * g^{-6t^2} =
  // g^r and g^r == 1 iff g^{6t^2} == frobenius(g). Same predicate as the
  // 254-bit ladder, on a 127-bit exponent; the cyclotomic squarings of the
  // GT engine are valid because the first stage passed.
  return gt_pow(g, ff::kSixTSq) == g.frobenius();
}

PairingCounters pairing_counters() {
  return {g_chains.load(std::memory_order_relaxed),
          g_final_exps.load(std::memory_order_relaxed)};
}

void reset_pairing_counters() {
  g_chains.store(0, std::memory_order_relaxed);
  g_final_exps.store(0, std::memory_order_relaxed);
}

}  // namespace dsaudit::pairing
