// Pairing correctness: bilinearity, non-degeneracy, final-exponentiation
// cross-check, multi-pairing consistency. These tests gate everything above
// them — if the pairing is right, the audit protocol's algebra follows.
#include <gtest/gtest.h>

#include "pairing/pairing.hpp"
#include "support/oracles.hpp"

namespace dsaudit::pairing {
namespace {

using ff::Fr;
using primitives::SecureRng;

TEST(Pairing, NonDegenerate) {
  Fp12 e = pairing(G1::generator(), G2::generator());
  EXPECT_FALSE(e.is_one());
  EXPECT_FALSE(e.is_zero());
  // Result has order dividing r: e^r == 1.
  EXPECT_TRUE(oracle::pow(e, Fr::modulus()).is_one());
}

TEST(Pairing, InfinityGivesOne) {
  auto rng = SecureRng::deterministic(60);
  EXPECT_TRUE(pairing(G1::infinity(), curve::g2_random(rng)).is_one());
  EXPECT_TRUE(pairing(curve::g1_random(rng), G2::infinity()).is_one());
}

TEST(Pairing, BilinearLeft) {
  auto rng = SecureRng::deterministic(61);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  Fr a = Fr::random(rng);
  EXPECT_EQ(pairing(p.mul(a), q), oracle::pow(pairing(p, q), a.to_u256()));
}

TEST(Pairing, BilinearRight) {
  auto rng = SecureRng::deterministic(62);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  Fr b = Fr::random(rng);
  EXPECT_EQ(pairing(p, q.mul(b)), oracle::pow(pairing(p, q), b.to_u256()));
}

TEST(Pairing, FullBilinearity) {
  auto rng = SecureRng::deterministic(63);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  Fr a = Fr::random(rng), b = Fr::random(rng);
  EXPECT_EQ(pairing(p.mul(a), q.mul(b)), pairing(p.mul(b), q.mul(a)));
  EXPECT_EQ(pairing(p.mul(a), q.mul(b)), oracle::pow(pairing(p, q), (a * b).to_u256()));
}

TEST(Pairing, AdditiveInFirstArgument) {
  auto rng = SecureRng::deterministic(64);
  G1 p1 = curve::g1_random(rng), p2 = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  EXPECT_EQ(pairing(p1 + p2, q), pairing(p1, q) * pairing(p2, q));
}

TEST(Pairing, AdditiveInSecondArgument) {
  auto rng = SecureRng::deterministic(65);
  G1 p = curve::g1_random(rng);
  G2 q1 = curve::g2_random(rng), q2 = curve::g2_random(rng);
  EXPECT_EQ(pairing(p, q1 + q2), pairing(p, q1) * pairing(p, q2));
}

TEST(Pairing, InverseRelation) {
  auto rng = SecureRng::deterministic(66);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  EXPECT_TRUE((pairing(p, q) * pairing(-p, q)).is_one());
  EXPECT_TRUE((pairing(p, q) * pairing(p, -q)).is_one());
}

TEST(FinalExp, FastMatchesSlow) {
  auto rng = SecureRng::deterministic(67);
  for (int i = 0; i < 3; ++i) {
    Fp12 f = Fp12::random(rng);
    if (f.is_zero()) continue;
    EXPECT_EQ(final_exponentiation(f), oracle::final_exponentiation_slow(f));
  }
  // And on an actual Miller-loop output.
  Fp12 m = miller_loop(G1::generator(), G2::generator());
  EXPECT_EQ(final_exponentiation(m), oracle::final_exponentiation_slow(m));
  EXPECT_THROW(final_exponentiation(Fp12::zero()), std::domain_error);
}

TEST(MultiPairing, MatchesProductOfPairings) {
  auto rng = SecureRng::deterministic(68);
  std::vector<std::pair<G1, G2>> pairs;
  Fp12 expect = Fp12::one();
  for (int i = 0; i < 4; ++i) {
    pairs.emplace_back(curve::g1_random(rng), curve::g2_random(rng));
    expect *= pairing(pairs.back().first, pairs.back().second);
  }
  EXPECT_EQ(multi_pairing(pairs), expect);
}

TEST(MultiPairing, ProductIsOneDetection) {
  auto rng = SecureRng::deterministic(69);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  // e(P,Q) * e(-P,Q) = 1, and with a third random pair it is not 1.
  std::vector<std::pair<G1, G2>> good{{p, q}, {-p, q}};
  EXPECT_TRUE(pairing_product_is_one(good));
  std::vector<std::pair<G1, G2>> bad{{p, q}, {-p, q},
                                     {curve::g1_random(rng), curve::g2_random(rng)}};
  EXPECT_FALSE(pairing_product_is_one(bad));
}

TEST(Prepared, MatchesTextbookPairingOnRandomPairs) {
  // The prepared projective engine and the textbook affine loop compute
  // Miller values differing by a subfield factor; the pairings must agree
  // exactly. This differential pins the whole prepared stack (projective
  // step formulas, cached coefficient chain, replay loop).
  auto rng = SecureRng::deterministic(70);
  for (int i = 0; i < 4; ++i) {
    G1 p = curve::g1_random(rng);
    G2 q = curve::g2_random(rng);
    Fp12 expect = oracle::pairing_textbook(p, q);
    EXPECT_EQ(pairing(p, q), expect);
    G2Prepared prep(q);
    EXPECT_EQ(pairing(p, prep), expect);
  }
}

TEST(Prepared, ReusedAcrossManyG1Points) {
  // One prepared Q serving many G1 arguments — the verifier-key usage
  // pattern — stays consistent with fresh pairings.
  auto rng = SecureRng::deterministic(71);
  G2 q = curve::g2_random(rng);
  G2Prepared prep(q);
  for (int i = 0; i < 3; ++i) {
    G1 p = curve::g1_random(rng);
    EXPECT_EQ(pairing(p, prep), oracle::pairing_textbook(p, q));
  }
}

TEST(Prepared, InfinityInputs) {
  auto rng = SecureRng::deterministic(72);
  G2Prepared inf_q{G2::infinity()};
  EXPECT_TRUE(inf_q.is_infinity());
  EXPECT_TRUE(pairing(curve::g1_random(rng), inf_q).is_one());
  G2Prepared q(curve::g2_random(rng));
  EXPECT_TRUE(pairing(G1::infinity(), q).is_one());
}

TEST(MultiPairing, InfinityEntriesAreNeutral) {
  // Infinity on either side of any entry contributes a factor 1 to the
  // product, for both the unprepared and the prepared overloads.
  auto rng = SecureRng::deterministic(73);
  G1 p1 = curve::g1_random(rng), p2 = curve::g1_random(rng);
  G2 q1 = curve::g2_random(rng), q2 = curve::g2_random(rng);
  std::vector<std::pair<G1, G2>> clean{{p1, q1}, {p2, q2}};
  std::vector<std::pair<G1, G2>> padded{{G1::infinity(), q1},
                                        {p1, q1},
                                        {p2, G2::infinity()},
                                        {p2, q2},
                                        {G1::infinity(), G2::infinity()}};
  EXPECT_EQ(multi_pairing(padded), multi_pairing(clean));

  G2Prepared pq1(q1), pq2(q2), pinf{G2::infinity()};
  std::vector<PreparedPair> prepared{{G1::infinity(), &pq1},
                                     {p1, &pq1},
                                     {p2, &pinf},
                                     {p2, &pq2}};
  EXPECT_EQ(multi_pairing(prepared), multi_pairing(clean));

  std::vector<std::pair<G1, G2>> all_inf{{G1::infinity(), q1},
                                         {p1, G2::infinity()}};
  EXPECT_TRUE(multi_pairing(all_inf).is_one());
  EXPECT_TRUE(pairing_product_is_one(all_inf));
}

TEST(MultiPairing, PreparedMatchesProductOfTextbookPairings) {
  auto rng = SecureRng::deterministic(74);
  std::vector<G2Prepared> prep;
  std::vector<std::pair<G1, G2>> raw;
  Fp12 expect = Fp12::one();
  for (int i = 0; i < 4; ++i) {
    raw.emplace_back(curve::g1_random(rng), curve::g2_random(rng));
    expect *= oracle::pairing_textbook(raw.back().first, raw.back().second);
  }
  prep.reserve(raw.size());
  std::vector<PreparedPair> pairs;
  for (const auto& [p, q] : raw) {
    prep.emplace_back(q);
    pairs.push_back({p, &prep.back()});
  }
  EXPECT_EQ(multi_pairing(pairs), expect);
}

TEST(FinalExp, FastMatchesSlowOnMultiPairProducts) {
  // The cyclotomic-squaring hard part must agree with the giant-exponent
  // reference on products of several Miller loops — the exact shape every
  // verification equation feeds it.
  auto rng = SecureRng::deterministic(75);
  Fp12 m = Fp12::one();
  for (int i = 0; i < 4; ++i) {
    m *= miller_loop(curve::g1_random(rng), curve::g2_random(rng));
  }
  EXPECT_EQ(final_exponentiation(m), oracle::final_exponentiation_slow(m));
}

TEST(Fp12Ops, CyclotomicSquareMatchesGenericOnCyclotomicElements) {
  // GT elements (pairing outputs) live in the cyclotomic subgroup, where
  // the Granger–Scott compressed squaring must equal the generic square.
  auto rng = SecureRng::deterministic(76);
  Fp12 g = pairing(curve::g1_random(rng), curve::g2_random(rng));
  Fp12 cur = g;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cur.cyclotomic_square(), cur.square());
    cur = cur.cyclotomic_square() * g;
  }
  ff::Fr e = ff::Fr::random(rng);
  EXPECT_EQ(g.cyclotomic_pow_u256(e.to_u256()), oracle::pow(g, e.to_u256()));
  EXPECT_EQ(g.cyclotomic_pow_u256(ff::U256{ff::kBnParamT}),
            oracle::pow(g, ff::U256{ff::kBnParamT}));
}

TEST(Fp12Ops, DirectFrobeniusPowersMatchIterated) {
  auto rng = SecureRng::deterministic(77);
  for (int i = 0; i < 3; ++i) {
    Fp12 f = Fp12::random(rng);
    EXPECT_EQ(f.frobenius2(), f.frobenius().frobenius());
    EXPECT_EQ(f.frobenius3(), f.frobenius().frobenius().frobenius());
    EXPECT_EQ(f.frobenius_pow(6), f.conjugate());
    EXPECT_EQ(f.frobenius_pow(12), f);
  }
}

TEST(GtSubgroup, MatchesOrderRDefinition) {
  // The order stage tests g^{6t^2} == g^p, which is g^r == 1 exactly
  // because p - r == 6t^2 as integers.
  ff::U256 p_minus_r;
  bigint::sub_with_borrow(ff::Fp::modulus(), Fr::modulus(), p_minus_r);
  const bigint::u128 six_t_sq = bigint::u128{6} * ff::kBnParamT * ff::kBnParamT;
  EXPECT_EQ(p_minus_r, (ff::U256{static_cast<ff::u64>(six_t_sq),
                                 static_cast<ff::u64>(six_t_sq >> 64), 0, 0}));
  // Definition: the Phi_12 identity, then the kept order-r reference ladder.
  auto in_gt = [](const Fp12& g) {
    Fp12 gp2 = g.frobenius2();
    if (!(gp2.frobenius2() * g == gp2)) return false;
    return g.cyclotomic_pow_u256(Fr::modulus()).is_one();
  };
  auto rng = SecureRng::deterministic(78);
  for (int i = 0; i < 3; ++i) {
    Fp12 g = pairing(curve::g1_random(rng), curve::g2_random(rng));
    Fp12 f = Fp12::random(rng);
    Fp12 t0 = f.conjugate() * f.inverse();  // f^{p^6-1}: unit norm only
    Fp12 e = t0.frobenius2() * t0;          // easy-part output: cyclotomic
    const std::pair<Fp12, bool> cases[] = {
        {g, true}, {e, false}, {g * e, false}, {t0, false}, {-Fp12::one(), false},
        {Fp12::one(), true}};
    for (const auto& [x, expect] : cases) {
      EXPECT_EQ(in_gt(x), expect);
      EXPECT_EQ(gt_in_subgroup(x), expect);
    }
  }
}

TEST(Pairing, KnownExponentPairingIdentity) {
  // e(aG1, G2) == e(G1, aG2) for several small a — catches scalar/loop-count
  // mixups that bilinearity with random scalars might mask.
  for (ff::u64 a : {2ULL, 3ULL, 65537ULL}) {
    EXPECT_EQ(pairing(G1::generator().mul(Fr::from_u64(a)), G2::generator()),
              pairing(G1::generator(), G2::generator().mul(Fr::from_u64(a))))
        << "a=" << a;
  }
}

TEST(PairingCountersHook, CountsChainsAndFinalExps) {
  auto rng = SecureRng::deterministic(83);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  reset_pairing_counters();
  pairing(p, q);
  auto c1 = pairing_counters();
  EXPECT_EQ(c1.chains, 1u);
  EXPECT_EQ(c1.final_exps, 1u);

  std::vector<G2Prepared> prep;
  std::vector<PreparedPair> pairs;
  prep.reserve(3);
  for (int i = 0; i < 3; ++i) prep.emplace_back(curve::g2_random(rng));
  for (int i = 0; i < 3; ++i) pairs.push_back({curve::g1_random(rng), &prep[i]});
  reset_pairing_counters();
  multi_pairing(std::span<const PreparedPair>(pairs));
  auto c3 = pairing_counters();
  EXPECT_EQ(c3.chains, 3u);
  EXPECT_EQ(c3.final_exps, 1u);

  // Infinite inputs contribute no chain.
  pairs[1].g1 = G1::infinity();
  reset_pairing_counters();
  multi_pairing(std::span<const PreparedPair>(pairs));
  EXPECT_EQ(pairing_counters().chains, 2u);
}

}  // namespace
}  // namespace dsaudit::pairing
