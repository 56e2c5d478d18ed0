// Optimal ate pairing e : G1 x G2 -> GT on BN254.
//
//   e(P, Q) = f_{6t+2,Q}(P) * l_{[6t+2]Q, psi(Q)}(P) * l_{..., -psi^2(Q)}(P),
//   all raised to (p^12 - 1)/r.
//
// The production path is a prepared-pairing engine: the Miller loop keeps the
// running G2 point in homogeneous projective coordinates on the twist
// (inversion-free doubling/addition step formulas), and every line
// coefficient depends only on Q — so G2Prepared computes the whole
// coefficient chain once per fixed Q and miller_loop replays it with two Fp
// scalings per line. Products of pairings replay all chains in lock-step
// under a single running f, sharing the per-bit Fp12 squaring across every
// pair, and one final exponentiation (its hard part's three BN-parameter
// powers run on Fp12::multi_pow, the one GT exponentiation engine) finishes
// the product. That is what makes the paper's 4-pairing on-chain
// verification constant-cost, and what lets one prepared verifier key serve
// many audit rounds.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "curve/g1.hpp"
#include "curve/g2.hpp"
#include "field/fp12.hpp"

namespace dsaudit::pairing {

using curve::G1;
using curve::G2;
using ff::Fp12;
using ff::Fp2;

/// All Miller-loop line coefficients for a fixed G2 point, cached once.
/// Every coefficient triple folds into the running f as the sparse element
/// (a*yp, 0, 0) + (b*xp, c, 0)w via Fp12::mul_by_line, where (xp, yp) is the
/// G1 argument — preparing removes all G2-side field work from the loop.
class G2Prepared {
 public:
  struct Coeffs {
    Fp2 a, b, c;  // line = (a*yp) + (b*xp) w + c w^3, up to a subfield factor
  };

  G2Prepared() = default;  // prepared infinity: pairs to 1 with anything
  explicit G2Prepared(const G2& q);

  bool is_infinity() const { return coeffs_.empty(); }
  const std::vector<Coeffs>& coeffs() const { return coeffs_; }

 private:
  std::vector<Coeffs> coeffs_;
};

/// One (G1, prepared-G2) input of a pairing product. Non-owning: the caller
/// keeps the G2Prepared alive for the duration of the call (verifier keys do
/// exactly that).
struct PreparedPair {
  G1 g1;
  const G2Prepared* g2 = nullptr;
};

/// Full pairing. e(inf, Q) = e(P, inf) = 1.
Fp12 pairing(const G1& p, const G2& q);
Fp12 pairing(const G1& p, const G2Prepared& q);

/// Miller loop only (no final exponentiation); building block for products.
Fp12 miller_loop(const G1& p, const G2& q);
Fp12 miller_loop(const G1& p, const G2Prepared& q);

/// Map a Miller-loop output (or any Fp12 value) to the r-order subgroup.
Fp12 final_exponentiation(const Fp12& f);

/// prod_i e(p_i, q_i) with lock-step Miller loops (one shared Fp12 squaring
/// per bit for the whole product) and one shared final exponentiation.
Fp12 multi_pairing(std::span<const std::pair<G1, G2>> pairs);
Fp12 multi_pairing(std::span<const PreparedPair> pairs);

/// True iff prod_i e(p_i, q_i) == 1 — the natural shape of Eq. (1)/(2)
/// checks after moving everything to one side.
bool pairing_product_is_one(std::span<const std::pair<G1, G2>> pairs);
bool pairing_product_is_one(std::span<const PreparedPair> pairs);

/// True iff g lies in GT, the order-r subgroup of Fp12^* hit by the pairing:
/// first the cyclotomic-subgroup identity g^{p^4+1} == g^{p^2} (cheap, two
/// Frobenius maps), then the order check g^{6t^2} == g^p through
/// Fp12::multi_pow. BN primes satisfy p - r = 6t^2 exactly (static_asserted
/// in field/fp.hpp), so g^p * g^{-6t^2} = g^r and the test is g^r == 1 itself, not a
/// weaker one, on a 127-bit exponent instead of 254 bits. Deserializers use
/// this to reject unit-norm Fp12 values that are not pairing outputs.
bool gt_in_subgroup(const Fp12& g);

/// Process-wide pairing-cost telemetry: `chains` counts Miller chains
/// evaluated — one per finite (G1, G2) pair in any pairing or product, i.e.
/// "number of pairings" in the paper's accounting — and `final_exps` counts
/// final exponentiations. The batched-settlement tests assert "3 pairings
/// for a whole block" against deltas of these counters.
struct PairingCounters {
  std::uint64_t chains = 0;
  std::uint64_t final_exps = 0;
};
PairingCounters pairing_counters();
void reset_pairing_counters();

}  // namespace dsaudit::pairing
