// Group-law, hashing, compression and MSM tests for G1/G2.
#include <gtest/gtest.h>

#include "curve/g1.hpp"
#include "curve/g2.hpp"
#include "curve/glv.hpp"
#include "field/sqrt.hpp"
#include "support/oracles.hpp"

namespace dsaudit::curve {
namespace {

using ff::Fr;
using primitives::SecureRng;

// The BN254 constants whose checks need curve arithmetic (the integer and
// field identities are static_asserts next to the constants).
TEST(Params, GeneratorsHaveOrderR) {
  EXPECT_TRUE(G1::generator().is_on_curve());
  EXPECT_TRUE(oracle::mul_naive(G1::generator(), Fr::modulus()).is_infinity());
  EXPECT_FALSE(G1::generator().is_infinity());
  EXPECT_TRUE(oracle::g2_in_subgroup_naive(G2::generator()));
  EXPECT_FALSE(G2::generator().is_infinity());
}

TEST(Params, TwistEndomorphismEigenvalues) {
  // psi acts as [p] on the r-subgroup of the twist (p mod r is the
  // eigenvalue of Frobenius on G2), psi^2 as [p^2].
  const Fr p_mod_r = Fr::from_u256(ff::Fp::modulus());
  const G2 q = oracle::mul_naive(G2::generator(), Fr::from_u64(12345));
  EXPECT_EQ(g2_frobenius(q), oracle::mul_naive(q, p_mod_r));
  EXPECT_EQ(g2_frobenius2(q), oracle::mul_naive(q, p_mod_r * p_mod_r));
}

TEST(Params, GlvEndomorphismActsAsLambda) {
  // beta's orientation: phi(x, y) = (beta x, y) is [lambda] on G1, not
  // [lambda^2] (which the other cube root of unity, beta^2, would give).
  for (const G1& g : {G1::generator(),
                      oracle::mul_naive(G1::generator(), Fr::from_u64(987654321))}) {
    auto [x, y] = g.to_affine();
    EXPECT_EQ(G1(x * kGlv.beta, y), oracle::mul_naive(g, kGlv.lambda));
    EXPECT_NE(G1(x * kGlv.beta.square(), y), oracle::mul_naive(g, kGlv.lambda));
  }
}

TEST(Params, GlvConstantsMatchVarUIntDerivation) {
  using bigint::VarUInt;
  const VarUInt t{ff::kBnParamT};
  const VarUInt t2 = t * t, t3 = t2 * t;
  const VarUInt r{Fr::modulus()};
  EXPECT_EQ(VarUInt{kGlv.lambda},
            VarUInt{36} * t3 + VarUInt{18} * t2 + VarUInt{6} * t + VarUInt{1});
  EXPECT_EQ(VarUInt{kGlv.a1}, VarUInt{6} * t2 + VarUInt{4} * t + VarUInt{1});
  EXPECT_EQ(VarUInt{kGlv.b1}, VarUInt{2} * t + VarUInt{1});
  EXPECT_EQ(VarUInt{kGlv.b2}, VarUInt{6} * t2 + VarUInt{2} * t);
  EXPECT_EQ(VarUInt{kGlv.g1}, VarUInt::divmod(VarUInt{kGlv.b2}.shl(256), r).first);
  EXPECT_EQ(VarUInt{kGlv.g2}, VarUInt::divmod(VarUInt{kGlv.b1}.shl(256), r).first);
  const VarUInt p{ff::Fp::modulus()};
  const VarUInt beta{kGlv.beta.to_u256()};
  EXPECT_TRUE(VarUInt::divmod(beta * beta + beta + VarUInt{1}, p).second.is_zero());
}

template <typename G>
class GroupLaw : public ::testing::Test {
 public:
  static G random(SecureRng& rng) { return G::generator().mul(Fr::random(rng)); }
};

using Groups = ::testing::Types<G1, G2>;
TYPED_TEST_SUITE(GroupLaw, Groups);

TYPED_TEST(GroupLaw, GeneratorOnCurve) {
  EXPECT_TRUE(TypeParam::generator().is_on_curve());
  EXPECT_TRUE(TypeParam::infinity().is_on_curve());
  EXPECT_TRUE(TypeParam::infinity().is_infinity());
}

TYPED_TEST(GroupLaw, AbelianGroupAxioms) {
  auto rng = SecureRng::deterministic(41);
  for (int i = 0; i < 10; ++i) {
    TypeParam p = this->random(rng);
    TypeParam q = this->random(rng);
    TypeParam r = this->random(rng);
    EXPECT_TRUE((p + q).is_on_curve());
    EXPECT_EQ(p + q, q + p);
    EXPECT_EQ((p + q) + r, p + (q + r));
    EXPECT_EQ(p + TypeParam::infinity(), p);
    EXPECT_TRUE((p + (-p)).is_infinity());
    EXPECT_EQ(p - q, p + (-q));
  }
}

TYPED_TEST(GroupLaw, DoublingConsistent) {
  auto rng = SecureRng::deterministic(42);
  TypeParam p = this->random(rng);
  EXPECT_EQ(p.dbl(), p + p);
  EXPECT_EQ(p.dbl().dbl(), p + p + p + p);
  EXPECT_TRUE(TypeParam::infinity().dbl().is_infinity());
  // Adding a point to itself must fall back to doubling.
  TypeParam q = p;
  EXPECT_EQ(p + q, p.dbl());
}

TYPED_TEST(GroupLaw, ScalarMulMatchesRepeatedAdd) {
  auto rng = SecureRng::deterministic(43);
  TypeParam p = this->random(rng);
  TypeParam acc = TypeParam::infinity();
  for (int k = 0; k <= 20; ++k) {
    EXPECT_EQ(p.mul(Fr::from_u64(k)), acc) << "k=" << k;
    acc += p;
  }
}

TYPED_TEST(GroupLaw, ScalarMulHomomorphism) {
  auto rng = SecureRng::deterministic(44);
  TypeParam p = this->random(rng);
  Fr a = Fr::random(rng), b = Fr::random(rng);
  EXPECT_EQ(p.mul(a) + p.mul(b), p.mul(a + b));
  EXPECT_EQ(p.mul(a).mul(b), p.mul(a * b));
}

TYPED_TEST(GroupLaw, OrderIsR) {
  auto rng = SecureRng::deterministic(45);
  TypeParam p = this->random(rng);
  EXPECT_TRUE(p.mul(Fr::modulus()).is_infinity());
}

TEST(G1Hash, DeterministicAndOnCurve) {
  G1 a = hash_to_g1("name||0");
  G1 b = hash_to_g1("name||0");
  G1 c = hash_to_g1("name||1");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a.is_on_curve());
  EXPECT_TRUE(c.is_on_curve());
  EXPECT_FALSE(a.is_infinity());
}

TEST(G1Hash, ManyInputsAllValid) {
  for (int i = 0; i < 100; ++i) {
    std::string s = "file-xyz||" + std::to_string(i);
    G1 p = hash_to_g1(s);
    EXPECT_TRUE(p.is_on_curve());
    EXPECT_FALSE(p.is_infinity());
  }
}

TEST(G1Compress, RoundTrip) {
  auto rng = SecureRng::deterministic(46);
  for (int i = 0; i < 30; ++i) {
    G1 p = g1_random(rng);
    auto bytes = g1_compress(p);
    auto q = g1_decompress(bytes);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, p);
  }
  // Infinity round-trips.
  auto inf_bytes = g1_compress(G1::infinity());
  auto inf = g1_decompress(inf_bytes);
  ASSERT_TRUE(inf.has_value());
  EXPECT_TRUE(inf->is_infinity());
}

TEST(G1Compress, RejectsMalformed) {
  std::array<std::uint8_t, 32> bad{};
  bad.fill(0xff);  // x >= p with flag bits set oddly
  EXPECT_FALSE(g1_decompress(bad).has_value());
  // x = p (non-canonical)
  auto pbytes = ff::Fp::modulus();
  std::array<std::uint8_t, 32> buf;
  pbytes.to_be_bytes(buf);
  EXPECT_FALSE(g1_decompress(buf).has_value());
  // infinity flag with non-zero payload
  std::array<std::uint8_t, 32> inf_bad{};
  inf_bad[0] = 0x80;
  inf_bad[31] = 1;
  EXPECT_FALSE(g1_decompress(inf_bad).has_value());
}

TEST(G2Compress, RoundTrip) {
  auto rng = SecureRng::deterministic(47);
  for (int i = 0; i < 10; ++i) {
    G2 p = g2_random(rng);
    auto bytes = g2_compress(p);
    auto q = g2_decompress(bytes);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, p);
  }
  auto inf = g2_decompress(g2_compress(G2::infinity()));
  ASSERT_TRUE(inf.has_value());
  EXPECT_TRUE(inf->is_infinity());
}

TEST(G2Subgroup, GeneratorInButTwistPointOut) {
  EXPECT_TRUE(g2_in_subgroup(G2::generator()));
  // A point on the twist but outside the r-subgroup: found by hashing x
  // candidates on the twist and excluding the subgroup. The twist's order is
  // r * c2 with c2 > 1, so a random twist point is in the subgroup with
  // negligible probability.
  auto rng = SecureRng::deterministic(48);
  for (int tries = 0; tries < 50; ++tries) {
    ff::Fp2 x = ff::Fp2::random(rng);
    ff::Fp2 rhs = x.square() * x + G2Tag::curve_b();
    auto y = ff::sqrt(rhs);
    if (!y) continue;
    G2 p{x, *y};
    EXPECT_TRUE(p.is_on_curve());
    EXPECT_FALSE(g2_in_subgroup(p));
    // And decompression must reject its encoding.
    EXPECT_FALSE(g2_decompress(g2_compress(p)).has_value());
    return;
  }
  FAIL() << "no twist point found in 50 attempts (sqrt broken?)";
}

TEST(G2Frobenius, MatchesScalarP) {
  auto rng = SecureRng::deterministic(49);
  Fr p_mod_r = Fr::from_u256(ff::Fp::modulus());
  for (int i = 0; i < 5; ++i) {
    G2 q = g2_random(rng);
    EXPECT_EQ(g2_frobenius(q), q.mul(p_mod_r));
    EXPECT_EQ(g2_frobenius2(q), g2_frobenius(g2_frobenius(q)));
  }
  EXPECT_TRUE(g2_frobenius(G2::infinity()).is_infinity());
}

// ---------------------------------------------------------------------------
// Fast-path differential tests: every optimized route must be bit-identical
// to the retained naive reference.
// ---------------------------------------------------------------------------

TYPED_TEST(GroupLaw, WnafMulMatchesDoubleAndAdd) {
  auto rng = SecureRng::deterministic(53);
  TypeParam p = this->random(rng);
  // Random scalars plus the adversarial shapes for signed-digit recoding:
  // all-ones windows, single bits, values near the modulus, and the full
  // 256-bit range (wNAF must handle the transient overflow past 2^256).
  std::vector<ff::U256> ks;
  for (int i = 0; i < 10; ++i) ks.push_back(Fr::random(rng).to_u256());
  ks.push_back(ff::U256{0});
  ks.push_back(ff::U256{1});
  ks.push_back(ff::U256{31});   // 11111b: max-magnitude wNAF digit
  ks.push_back(ff::U256{0xffffffffffffffffULL, 0xffffffffffffffffULL,
                        0xffffffffffffffffULL, 0xffffffffffffffffULL});
  ks.push_back(Fr::modulus());
  for (unsigned b : {1u, 63u, 64u, 127u, 254u, 255u}) {
    ff::U256 k;
    k.limb[b / 64] = std::uint64_t{1} << (b % 64);
    ks.push_back(k);
  }
  for (const auto& k : ks) {
    EXPECT_EQ(p.mul(k), oracle::mul_naive(p, k)) << "k=" << k.to_hex();
  }
  EXPECT_TRUE(TypeParam::infinity().mul(ks[0]).is_infinity());
}

TYPED_TEST(GroupLaw, MixedAddMatchesGeneralAdd) {
  auto rng = SecureRng::deterministic(54);
  TypeParam p = this->random(rng);
  TypeParam q = this->random(rng);
  auto qa = q.to_affine_point();
  EXPECT_EQ(p.mixed_add(qa), p + q);
  // Edge cases: infinity operands, doubling, cancellation.
  EXPECT_EQ(TypeParam::infinity().mixed_add(qa), q);
  EXPECT_EQ(p.mixed_add(typename TypeParam::Affine{}), p);
  EXPECT_EQ(q.mixed_add(qa), q.dbl());
  EXPECT_TRUE((-q).mixed_add(qa).is_infinity());
}

TYPED_TEST(GroupLaw, BatchToAffineMatchesElementwise) {
  auto rng = SecureRng::deterministic(55);
  std::vector<TypeParam> pts;
  for (int i = 0; i < 9; ++i) {
    pts.push_back(this->random(rng));
    if (i % 3 == 1) pts.push_back(TypeParam::infinity());
  }
  auto affs = TypeParam::batch_to_affine(pts);
  ASSERT_EQ(affs.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(affs[i].is_infinity(), pts[i].is_infinity());
    EXPECT_EQ(TypeParam::from_affine(affs[i]), pts[i]);
  }
}

TEST(FixedBase, MatchesGenericMul) {
  auto rng = SecureRng::deterministic(56);
  for (int i = 0; i < 10; ++i) {
    Fr k = Fr::random(rng);
    EXPECT_EQ(g1_mul_generator(k), oracle::mul_naive(G1::generator(), k));
    EXPECT_EQ(g2_mul_generator(k), oracle::mul_naive(G2::generator(), k));
  }
  EXPECT_TRUE(g1_mul_generator(Fr::zero()).is_infinity());
  EXPECT_EQ(g1_mul_generator(Fr::one()), G1::generator());
  EXPECT_TRUE(g2_mul_generator(Fr::zero()).is_infinity());
  EXPECT_EQ(g2_mul_generator(Fr::one()), G2::generator());
  // Non-default widths agree too.
  FixedBaseTable<G1> narrow(G1::generator(), 4);
  Fr k = Fr::random(rng);
  EXPECT_EQ(narrow.mul(k), g1_mul_generator(k));
}

TEST(Msm, DuplicatePointsAndStructuredScalars) {
  // Duplicate bases with equal scalars force same-bucket doublings and
  // cancellations through the batched-affine accumulator.
  auto rng = SecureRng::deterministic(57);
  G1 p = g1_random(rng);
  for (std::size_t n : {2u, 5u, 33u, 200u}) {
    std::vector<G1> pts(n, p);
    std::vector<Fr> sc(n, Fr::from_u64(7));
    EXPECT_EQ(msm<G1>(pts, sc), oracle::mul_naive(p, ff::U256{7 * n})) << "n=" << n;
    // Alternating k and -k over the same point cancels to infinity.
    if (n % 2 == 0) {
      Fr k = Fr::random(rng);
      for (std::size_t i = 0; i < n; ++i) sc[i] = i % 2 ? k : -k;
      EXPECT_TRUE(msm<G1>(pts, sc).is_infinity()) << "n=" << n;
    }
  }
}

TEST(Msm, PrecomputedMatchesCold) {
  auto rng = SecureRng::deterministic(58);
  for (std::size_t n : {1u, 2u, 30u, 300u}) {
    std::vector<G1> pts;
    std::vector<Fr> sc;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(i % 7 == 3 ? G1::infinity() : g1_random(rng));
      sc.push_back(i % 5 == 2 ? Fr::zero() : Fr::random(rng));
    }
    auto tbl = msm_precompute<G1>(pts);
    EXPECT_EQ(msm_precomputed(tbl, sc), msm<G1>(pts, sc)) << "n=" << n;
    // Fewer scalars than table bases commits against a prefix.
    if (n > 2) {
      std::span<const Fr> prefix(sc.data(), n - 2);
      std::span<const G1> ppts(pts.data(), n - 2);
      EXPECT_EQ(msm_precomputed(tbl, prefix), msm<G1>(ppts, prefix));
    }
    std::vector<Fr> too_many(tbl.n + 1, Fr::one());
    EXPECT_THROW(msm_precomputed(tbl, too_many), std::invalid_argument);
  }
}

TEST(Msm, MatchesNaive) {
  auto rng = SecureRng::deterministic(50);
  for (std::size_t n : {1u, 2u, 3u, 17u, 64u, 200u}) {
    std::vector<G1> pts;
    std::vector<Fr> sc;
    G1 expect = G1::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(g1_random(rng));
      sc.push_back(Fr::random(rng));
      expect += pts.back().mul(sc.back());
    }
    EXPECT_EQ(msm<G1>(pts, sc), expect) << "n=" << n;
  }
}

TEST(Msm, EdgeCases) {
  auto rng = SecureRng::deterministic(51);
  // Zero scalars, infinity points, mismatched sizes.
  std::vector<G1> pts{g1_random(rng), G1::infinity(), g1_random(rng)};
  std::vector<Fr> sc{Fr::zero(), Fr::random(rng), Fr::from_u64(1)};
  EXPECT_EQ(msm<G1>(pts, sc), pts[2]);
  std::vector<Fr> wrong{Fr::one()};
  EXPECT_THROW(msm<G1>(pts, wrong), std::invalid_argument);
  EXPECT_TRUE(msm<G1>(std::span<const G1>{}, std::span<const Fr>{}).is_infinity());
}

TEST(Msm, AllZeroScalarsAndEmptyInputsEverywhere) {
  auto rng = SecureRng::deterministic(60);
  std::vector<G1> pts;
  for (int i = 0; i < 40; ++i) pts.push_back(g1_random(rng));
  std::vector<Fr> zeros(pts.size(), Fr::zero());
  EXPECT_TRUE(msm<G1>(pts, zeros).is_infinity());

  auto tbl = msm_precompute<G1>(pts);
  EXPECT_TRUE(msm_precomputed(tbl, zeros).is_infinity());
  EXPECT_TRUE(msm_precomputed(tbl, std::span<const Fr>{}).is_infinity());

  // Empty table, empty everything.
  auto empty_tbl = msm_precompute<G1>(std::span<const G1>{});
  EXPECT_EQ(empty_tbl.n, 0u);
  EXPECT_TRUE(msm_precomputed(empty_tbl, std::span<const Fr>{}).is_infinity());
  EXPECT_TRUE(msm_precomputed(empty_tbl, std::span<const std::uint64_t>{},
                              std::span<const Fr>{})
                  .is_infinity());

  // Single-point table and single-point MSM.
  std::span<const G1> one_pt(pts.data(), 1);
  Fr k = Fr::random(rng);
  std::span<const Fr> one_sc(&k, 1);
  EXPECT_EQ(msm<G1>(one_pt, one_sc), pts[0].mul(k));
  auto tbl1 = msm_precompute<G1>(one_pt);
  EXPECT_EQ(msm_precomputed(tbl1, one_sc), pts[0].mul(k));
}

TEST(Msm, ScalarsAtThe254BitBound) {
  // r - 1 (the largest canonical scalar) and high-bit-heavy values exercise
  // the signed-digit carry into the extra top window position across all
  // three MSM entry points.
  auto rng = SecureRng::deterministic(61);
  Fr r_minus_1 = Fr::zero() - Fr::one();
  Fr high_bit = Fr::from_u256(ff::U256{0, 0, 0, std::uint64_t{1} << 61});
  std::vector<G1> pts;
  std::vector<Fr> sc;
  G1 expect = G1::infinity();
  for (int i = 0; i < 24; ++i) {
    pts.push_back(g1_random(rng));
    sc.push_back(i % 3 == 0 ? r_minus_1 : (i % 3 == 1 ? high_bit : Fr::random(rng)));
    expect += oracle::mul_naive(pts.back(), sc.back());
  }
  EXPECT_EQ(msm<G1>(pts, sc), expect);
  auto tbl = msm_precompute<G1>(pts);
  EXPECT_EQ(msm_precomputed(tbl, sc), expect);
  // r - 1 == -1: a single max-scalar multiply must be the negation.
  std::span<const G1> one_pt(pts.data(), 1);
  std::span<const Fr> one_sc(&r_minus_1, 1);
  EXPECT_EQ(msm<G1>(one_pt, one_sc), -pts[0]);
}

TEST(Msm, SubsetEdgeCases) {
  auto rng = SecureRng::deterministic(62);
  std::vector<G1> pts;
  for (int i = 0; i < 16; ++i) pts.push_back(g1_random(rng));
  auto tbl = msm_precompute<G1>(pts);

  // Empty subset.
  EXPECT_TRUE(msm_precomputed(tbl, std::span<const std::uint64_t>{},
                              std::span<const Fr>{})
                  .is_infinity());

  // Duplicate indices accumulate (the verifier may sample a chunk twice).
  std::vector<std::uint64_t> dup{3, 3, 3, 7};
  std::vector<Fr> dup_sc{Fr::from_u64(5), Fr::from_u64(6), Fr::zero(),
                         Fr::from_u64(9)};
  G1 expect = pts[3].mul(Fr::from_u64(11)) + pts[7].mul(Fr::from_u64(9));
  EXPECT_EQ(msm_precomputed(tbl, dup, dup_sc), expect);

  // Duplicate index with cancelling scalars collapses to infinity.
  Fr k = Fr::random(rng);
  std::vector<std::uint64_t> pair{5, 5};
  std::vector<Fr> cancel{k, Fr::zero() - k};
  EXPECT_TRUE(msm_precomputed(tbl, pair, cancel).is_infinity());

  // Max-bound scalars through the subset path.
  Fr r_minus_1 = Fr::zero() - Fr::one();
  std::vector<std::uint64_t> idx{0, 15, 15};
  std::vector<Fr> big{r_minus_1, r_minus_1, r_minus_1};
  EXPECT_EQ(msm_precomputed(tbl, idx, big),
            -(pts[0] + pts[15].mul(Fr::from_u64(2))));

  // Out-of-range index throws, size mismatch throws.
  std::vector<std::uint64_t> oor{16};
  std::vector<Fr> one_sc{Fr::one()};
  EXPECT_THROW(msm_precomputed(tbl, oor, one_sc), std::invalid_argument);
  std::vector<std::uint64_t> two_idx{1, 2};
  EXPECT_THROW(msm_precomputed(tbl, two_idx, one_sc), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GLV endomorphism: decomposition invariants and bit-identity of every
// endo-accelerated route against its retained oracle.
// ---------------------------------------------------------------------------

/// The adversarial scalar set for GLV: identities, the eigenvalue itself and
/// its negation (one half collapses to zero), the 2^128 boundary, and the
/// lattice-basis coordinates (Babai rounding lands exactly on a lattice
/// vertex).
std::vector<ff::U256> glv_edge_scalars() {
  const GlvParams& gp = kGlv;
  ff::U256 r = Fr::modulus();
  ff::U256 rm1, r_minus_lambda;
  bigint::sub_with_borrow(r, ff::U256{1}, rm1);
  bigint::sub_with_borrow(r, gp.lambda, r_minus_lambda);
  ff::U256 two128{0, 0, 1, 0};
  ff::U256 two128m1{~0ULL, ~0ULL, 0, 0}, two128p1{1, 0, 1, 0};
  std::vector<ff::U256> ks{ff::U256{},  ff::U256{1}, rm1,      gp.lambda,
                           r_minus_lambda, two128,   two128m1, two128p1,
                           gp.a1,       gp.b1,       gp.b2};
  // Lattice-adjacent: a1 +/- 1 and b2 + b1 sit on rounding boundaries.
  ff::U256 t;
  bigint::add_with_carry(gp.a1, ff::U256{1}, t);
  ks.push_back(t);
  bigint::sub_with_borrow(gp.a1, ff::U256{1}, t);
  ks.push_back(t);
  bigint::add_with_carry(gp.b2, gp.b1, t);
  ks.push_back(t);
  return ks;
}

TEST(Glv, DecomposeRoundTripAndBounds) {
  const GlvParams& gp = kGlv;
  const ff::U256 r = Fr::modulus();
  auto check = [&](const ff::U256& k) {
    GlvDecomposed d = glv_decompose(k);
    EXPECT_LE(d.k1.bit_length(), kGlvHalfBits) << "k=" << k.to_hex();
    EXPECT_LE(d.k2.bit_length(), kGlvHalfBits) << "k=" << k.to_hex();
    // (+/- k1) + (+/- k2) * lambda == k (mod r).
    ff::U256 s{};
    s = d.neg1 ? bigint::sub_mod(s, d.k1, r) : bigint::add_mod(s, d.k1, r);
    ff::U256 t = bigint::mul_mod_slow(d.k2, gp.lambda, r);
    s = d.neg2 ? bigint::sub_mod(s, t, r) : bigint::add_mod(s, t, r);
    EXPECT_EQ(s, k) << "k=" << k.to_hex();
  };
  for (const auto& k : glv_edge_scalars()) check(k);
  auto rng = SecureRng::deterministic(63);
  for (int i = 0; i < 200; ++i) check(Fr::random(rng).to_u256());
}

TEST(Glv, MulRoutesAgreeOnEdgeScalars) {
  auto rng = SecureRng::deterministic(64);
  G1 p = g1_random(rng);
  for (const auto& k : glv_edge_scalars()) {
    G1 naive = oracle::mul_naive(p, k);
    EXPECT_EQ(p.mul(k), naive) << "k=" << k.to_hex();          // GLV route
    EXPECT_EQ(p.mul_wnaf(k), naive) << "k=" << k.to_hex();     // generic wNAF
  }
  // Infinity is absorbed by every route.
  for (const auto& k : glv_edge_scalars()) {
    EXPECT_TRUE(G1::infinity().mul(k).is_infinity());
  }
}

TEST(Glv, MsmEntryPointsAgreeOnEdgeScalars) {
  // Edge scalars through cold, precomputed, and subset MSM: the endo-split
  // digit extraction and the phi-image table rows must reproduce the naive
  // per-point sum exactly.
  auto rng = SecureRng::deterministic(65);
  auto edges = glv_edge_scalars();
  std::vector<G1> pts;
  std::vector<Fr> sc;
  G1 expect = G1::infinity();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    pts.push_back(i % 5 == 4 ? G1::infinity() : g1_random(rng));
    sc.push_back(Fr::from_u256(edges[i]));
    expect += oracle::mul_naive(pts.back(), sc.back().to_u256());
  }
  EXPECT_EQ(msm<G1>(pts, sc), expect);
  auto tbl = msm_precompute<G1>(pts);
  EXPECT_EQ(msm_precomputed(tbl, sc), expect);
  std::vector<std::uint64_t> idx;
  for (std::size_t i = 0; i < pts.size(); ++i) idx.push_back(i);
  EXPECT_EQ(msm_precomputed(tbl, idx, sc), expect);
}

TEST(Glv, ColdMsmUnsplitRegimeMatchesNaive) {
  // Scalars at or below 128 bits keep the cold MSM on the unsplit path
  // (2 * max_bits <= 3 * kGlvHalfBits); it must agree with the naive sum
  // just like the split path does.
  auto rng = SecureRng::deterministic(66);
  std::vector<G1> pts;
  std::vector<Fr> sc;
  G1 expect = G1::infinity();
  for (int i = 0; i < 20; ++i) {
    pts.push_back(g1_random(rng));
    sc.push_back(Fr::from_u256(ff::U256{rng.next_u64(), rng.next_u64(), 0, 0}));
    expect += oracle::mul_naive(pts.back(), sc.back().to_u256());
  }
  EXPECT_EQ(msm<G1>(pts, sc), expect);
}

TEST(G2Subgroup, PsiCheckAgreesWithOrderLadder) {
  // The psi(Q) == [6t^2] Q fast path and the retained [r] Q == 0 oracle must
  // agree on every input class: subgroup points, infinity, cofactor points,
  // and off-curve garbage.
  auto rng = SecureRng::deterministic(67);
  EXPECT_TRUE(oracle::g2_in_subgroup_naive(G2::generator()));
  EXPECT_EQ(g2_in_subgroup(G2::infinity()), oracle::g2_in_subgroup_naive(G2::infinity()));
  for (int i = 0; i < 5; ++i) {
    G2 q = g2_random(rng);
    EXPECT_TRUE(g2_in_subgroup(q));
    EXPECT_TRUE(oracle::g2_in_subgroup_naive(q));
  }
  // Off-curve: an arbitrary (x, y) almost surely misses the twist.
  G2 bad{ff::Fp2::random(rng), ff::Fp2::random(rng)};
  if (!bad.is_on_curve()) {
    EXPECT_FALSE(g2_in_subgroup(bad));
    EXPECT_FALSE(oracle::g2_in_subgroup_naive(bad));
  }
  // On the twist but outside the r-subgroup.
  int found = 0;
  for (int tries = 0; tries < 100 && found < 3; ++tries) {
    ff::Fp2 x = ff::Fp2::random(rng);
    ff::Fp2 rhs = x.square() * x + G2Tag::curve_b();
    auto y = ff::sqrt(rhs);
    if (!y) continue;
    G2 p{x, *y};
    EXPECT_EQ(g2_in_subgroup(p), oracle::g2_in_subgroup_naive(p));
    EXPECT_FALSE(g2_in_subgroup(p));
    ++found;
  }
  EXPECT_GE(found, 1) << "no twist point found (sqrt broken?)";
}

TEST(Msm, WorksOnG2) {
  auto rng = SecureRng::deterministic(52);
  std::vector<G2> pts;
  std::vector<Fr> sc;
  G2 expect = G2::infinity();
  for (int i = 0; i < 9; ++i) {
    pts.push_back(g2_random(rng));
    sc.push_back(Fr::random(rng));
    expect += pts.back().mul(sc.back());
  }
  EXPECT_EQ(msm<G2>(pts, sc), expect);
}

}  // namespace
}  // namespace dsaudit::curve
