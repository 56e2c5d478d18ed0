// Field-arithmetic tests: Montgomery Fp/Fr, the Fp2/Fp6/Fp12 tower,
// Frobenius maps and the Fp2 square root (pinned against a Tonelli–Shanks
// oracle).
#include <gtest/gtest.h>

#include <vector>

#include "field/batch_inverse.hpp"
#include "field/fp12.hpp"
#include "field/sqrt.hpp"
#include "support/tonelli_shanks.hpp"

namespace dsaudit::ff {
namespace {

using primitives::SecureRng;

// ---------------------------------------------------------------------------
// Generic field axioms, parameterized over the tower levels via typed tests.
// ---------------------------------------------------------------------------

template <typename F>
class FieldAxioms : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fp, Fr, Fp2, Fp6, Fp12>;
TYPED_TEST_SUITE(FieldAxioms, FieldTypes);

TYPED_TEST(FieldAxioms, AdditiveGroup) {
  auto rng = SecureRng::deterministic(21);
  for (int i = 0; i < 25; ++i) {
    TypeParam a = TypeParam::random(rng);
    TypeParam b = TypeParam::random(rng);
    TypeParam c = TypeParam::random(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + TypeParam::zero(), a);
    EXPECT_EQ(a + (-a), TypeParam::zero());
    EXPECT_EQ(a - b, a + (-b));
  }
}

TYPED_TEST(FieldAxioms, MultiplicativeGroup) {
  auto rng = SecureRng::deterministic(22);
  for (int i = 0; i < 25; ++i) {
    TypeParam a = TypeParam::random(rng);
    TypeParam b = TypeParam::random(rng);
    TypeParam c = TypeParam::random(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * TypeParam::one(), a);
    EXPECT_EQ(a * TypeParam::zero(), TypeParam::zero());
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), TypeParam::one());
    }
  }
}

TYPED_TEST(FieldAxioms, Distributivity) {
  auto rng = SecureRng::deterministic(23);
  for (int i = 0; i < 25; ++i) {
    TypeParam a = TypeParam::random(rng);
    TypeParam b = TypeParam::random(rng);
    TypeParam c = TypeParam::random(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TYPED_TEST(FieldAxioms, SquareMatchesMul) {
  auto rng = SecureRng::deterministic(24);
  for (int i = 0; i < 25; ++i) {
    TypeParam a = TypeParam::random(rng);
    EXPECT_EQ(a.square(), a * a);
  }
}

// ---------------------------------------------------------------------------
// Base-field specifics.
// ---------------------------------------------------------------------------

TEST(Fp, CanonicalRoundTrip) {
  auto rng = SecureRng::deterministic(25);
  for (int i = 0; i < 50; ++i) {
    Fp a = Fp::random(rng);
    EXPECT_EQ(Fp::from_u256(a.to_u256()), a);
  }
  EXPECT_EQ(Fp::from_u64(5).to_dec(), "5");
  EXPECT_TRUE(Fp::zero().to_u256().is_zero());
  EXPECT_EQ(Fp::one().to_dec(), "1");
}

// from_u256 reduces with at most five subtractions of p; pin it against
// VarUInt division on 2^256 - 1 and on k*p + j for k = 1..5.
template <typename F>
void check_reduction_of_large_values() {
  const VarUInt p{F::modulus()};
  const VarUInt two_256 = VarUInt{1}.shl(256);
  auto check = [&](const VarUInt& v) {
    ASSERT_EQ(VarUInt::cmp(v, two_256), -1);
    EXPECT_EQ(VarUInt{F::from_u256(v.to_u256()).to_u256()},
              VarUInt::divmod(v, p).second);
  };
  EXPECT_TRUE(F::from_u256(F::modulus()).is_zero());
  check(two_256 - VarUInt{1});
  for (u64 k = 1; k <= 5; ++k) {
    for (const VarUInt& j : {VarUInt{0}, VarUInt{1}, VarUInt{2}, p - VarUInt{1}}) {
      const VarUInt v = VarUInt{k} * p + j;
      if (VarUInt::cmp(v, two_256) < 0) check(v);
    }
  }
}

TEST(Fp, ReductionOfLargeValues) {
  check_reduction_of_large_values<Fp>();
  check_reduction_of_large_values<Fr>();
}

// The Montgomery kernel against the shift-subtract slow path, on random
// operands and on 0, 1, p-1, p-2 and (p-1)/2: both the field product and
// the raw kernel, whose output times R must equal a*b mod p. The raw kernel
// also runs with a >= p (2^256-1 and k*p+j), which its "a < 2^256, b < p"
// precondition admits and from_u256 relies on: the output must still be
// fully reduced.
template <typename F>
void check_mul_against_slow_path(std::uint64_t seed) {
  const MontParams& P = F::params();
  const U256& p = P.modulus;
  std::vector<U256> ops{U256{0}, U256{1}};
  U256 pm1, pm2;
  bigint::sub_with_borrow(p, U256{1}, pm1);
  bigint::sub_with_borrow(p, U256{2}, pm2);
  ops.insert(ops.end(), {pm1, pm2, bigint::shr1(pm1)});
  auto rng = SecureRng::deterministic(seed);
  for (int i = 0; i < 30; ++i) ops.push_back(F::random(rng).to_u256());
  for (const U256& a : ops) {
    for (const U256& b : ops) {
      const U256 expect = bigint::mul_mod_slow(a, b, p);
      EXPECT_EQ((F::from_u256(a) * F::from_u256(b)).to_u256(), expect);
      EXPECT_EQ(bigint::mul_mod_slow(detail::mont_mul(a, b, P), P.r_mod, p),
                expect);
    }
  }
  const VarUInt pv{p};
  const VarUInt two_256 = VarUInt{1}.shl(256);
  std::vector<U256> wide{(two_256 - VarUInt{1}).to_u256()};
  for (u64 k = 1; k <= 5; ++k) {
    for (const VarUInt& j : {VarUInt{0}, VarUInt{1}, pv - VarUInt{1}}) {
      const VarUInt v = VarUInt{k} * pv + j;
      if (VarUInt::cmp(v, two_256) < 0) wide.push_back(v.to_u256());
    }
  }
  for (const U256& a : wide) {
    const U256 a_mod = VarUInt::divmod(VarUInt{a}, pv).second.to_u256();
    for (const U256& b : ops) {
      const U256 out = detail::mont_mul(a, b, P);
      EXPECT_TRUE(bigint::lt(out, p));
      EXPECT_EQ(bigint::mul_mod_slow(out, P.r_mod, p),
                bigint::mul_mod_slow(a_mod, b, p));
    }
  }
}

TEST(Fp, MulAgainstSlowPath) {
  check_mul_against_slow_path<Fp>(26);
  check_mul_against_slow_path<Fr>(41);
}

// The compile-time constants against the runtime derivation they replaced:
// R^k mod p and the exponents by VarUInt division, n0 by its definition
// p * n0 = -1 (mod 2^64), which fixes it uniquely below 2^64.
template <typename F>
void check_mont_params_match_varuint() {
  const MontParams& P = F::params();
  const VarUInt p{P.modulus};
  const VarUInt r = VarUInt{1}.shl(256);
  EXPECT_EQ(VarUInt{P.r_mod}, VarUInt::divmod(r, p).second);
  EXPECT_EQ(VarUInt{P.r2_mod}, VarUInt::divmod(r * r, p).second);
  EXPECT_EQ(VarUInt{P.r3_mod}, VarUInt::divmod(r * r * r, p).second);
  EXPECT_TRUE(VarUInt::divmod(p * VarUInt{P.n0_inv} + VarUInt{1},
                              VarUInt{1}.shl(64))
                  .second.is_zero());
  EXPECT_EQ(VarUInt{P.p_plus_1_over_4},
            VarUInt::divmod(p + VarUInt{1}, VarUInt{4}).first);
  EXPECT_EQ(VarUInt{P.p_minus_1_over_2},
            VarUInt::divmod(p - VarUInt{1}, VarUInt{2}).first);
  EXPECT_EQ(VarUInt{P.p_minus_2}, p - VarUInt{2});
}

// A concept, because a requires-expression outside a template may not name
// an invalid expression.
template <typename F>
concept HasSqrt = requires(const F& f) { f.sqrt(); };

TEST(MontParams, MatchVarUIntDerivation) {
  check_mont_params_match_varuint<Fp>();
  check_mont_params_match_varuint<Fr>();
  // r = 1 (mod 4): Fr has no p = 3 (mod 4) square root, and calling one is a
  // compile error rather than a run-time throw.
  static_assert(HasSqrt<Fp>);
  static_assert(!HasSqrt<Fr>);
}

TEST(Fp, FermatLittleTheorem) {
  auto rng = SecureRng::deterministic(27);
  Fp a = Fp::random(rng);
  U256 pm1;
  bigint::sub_with_borrow(Fp::modulus(), U256{1}, pm1);
  EXPECT_TRUE(a.pow_u256(pm1).is_one());
}

TEST(Fp, SqrtOfSquares) {
  auto rng = SecureRng::deterministic(28);
  for (int i = 0; i < 25; ++i) {
    Fp a = Fp::random(rng);
    Fp sq = a.square();
    auto root = sq.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
  }
  // -1 is a non-residue for p = 3 mod 4.
  EXPECT_FALSE((-Fp::one()).sqrt().has_value());
  EXPECT_EQ((-Fp::one()).legendre(), -1);
  EXPECT_EQ(Fp::one().legendre(), 1);
  EXPECT_EQ(Fp::zero().legendre(), 0);
}

TEST(Fr, ModulusMatchesPaperGroupOrder) {
  EXPECT_EQ(Fr::modulus().to_dec(),
            "21888242871839275222246405745257275088548364400416034343698204186575808495617");
}

TEST(Fr, FromBeBytesModReducesConsistently) {
  // 2^256 - 1 mod r, cross-checked with VarUInt.
  std::array<std::uint8_t, 32> all_ff;
  all_ff.fill(0xff);
  Fr got = Fr::from_be_bytes_mod(all_ff);
  VarUInt v = VarUInt{1}.shl(256) - VarUInt{1};
  VarUInt expect = VarUInt::divmod(v, VarUInt{Fr::modulus()}).second;
  EXPECT_EQ(VarUInt{got.to_u256()}, expect);
}

TEST(Fr, RandomReducesA512BitDraw) {
  // random() consumes 64 bytes and returns (hi * 2^256 + lo) mod r, fully
  // reduced in its Montgomery representation.
  auto rng = SecureRng::deterministic(40);
  auto ref = SecureRng::deterministic(40);
  for (int i = 0; i < 50; ++i) {
    std::array<std::uint8_t, 64> b{};
    ref.fill(b);
    const std::span<const std::uint8_t, 64> bytes(b);
    VarUInt wide = VarUInt{U256::from_be_bytes(bytes.first<32>())}.shl(256) +
                   VarUInt{U256::from_be_bytes(bytes.last<32>())};
    Fr x = Fr::random(rng);
    EXPECT_TRUE(bigint::lt(x.mont_repr(), Fr::modulus()));
    EXPECT_EQ(VarUInt{x.to_u256()},
              VarUInt::divmod(wide, VarUInt{Fr::modulus()}).second);
  }
}

TEST(Fr, RandomIsUniform) {
  // 2^256 = 5r + 0.29r, so one 256-bit draw reduced mod r lands below
  // 2^256 mod r with probability 6*0.29/5.29 ~ 0.329 instead of ~0.2902.
  const U256 cut = Fr::params().r_mod;  // 2^256 mod r
  auto to_double = [](const U256& v) {
    double d = 0;
    for (int i = 3; i >= 0; --i) d = d * 18446744073709551616.0 + double(v.limb[i]);
    return d;
  };
  const double expect = to_double(cut) / to_double(Fr::modulus());
  EXPECT_NEAR(expect, 0.2902, 1e-3);
  auto rng = SecureRng::deterministic(37);
  constexpr int kDraws = 20000;
  int below = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (bigint::lt(Fr::random(rng).to_u256(), cut)) ++below;
  }
  EXPECT_NEAR(double(below) / kDraws, expect, 0.015);
}

// ---------------------------------------------------------------------------
// Tower specifics.
// ---------------------------------------------------------------------------

TEST(Fp2Tower, USquaredIsMinusOne) {
  Fp2 u{Fp::zero(), Fp::one()};
  EXPECT_EQ(u.square(), -Fp2::one());
}

TEST(Fp2Tower, MulByXiMatchesMul) {
  auto rng = SecureRng::deterministic(29);
  for (int i = 0; i < 20; ++i) {
    Fp2 a = Fp2::random(rng);
    EXPECT_EQ(a.mul_by_xi(), a * xi());
  }
}

TEST(Fp2Tower, FrobeniusIsPthPower) {
  auto rng = SecureRng::deterministic(30);
  Fp2 a = Fp2::random(rng);
  Fp2 frob = a.frobenius();
  Fp2 pth = pow_var(a, VarUInt{Fp::modulus()});
  EXPECT_EQ(frob, pth);
}

TEST(Fp6Tower, VCubedIsXi) {
  Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  Fp6 v3 = v * v * v;
  EXPECT_EQ(v3, Fp6(xi(), Fp2::zero(), Fp2::zero()));
}

// The T2 GT decode divides by c^2 - v, which is never zero only because v
// is a non-square in Fp6 (Euler's criterion: v^((p^6-1)/2) = -1).
TEST(Fp6Tower, VIsANonSquare) {
  const Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  const VarUInt p{Fp::modulus()};
  const VarUInt half_order = (VarUInt::pow(p, 6) - VarUInt{1}).shr(1);
  EXPECT_EQ(pow_var(v, half_order), -Fp6::one());
}

TEST(Fp6Tower, MulByVMatchesMul) {
  auto rng = SecureRng::deterministic(31);
  Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  for (int i = 0; i < 20; ++i) {
    Fp6 a = Fp6::random(rng);
    EXPECT_EQ(a.mul_by_v(), a * v);
  }
}

TEST(Fp12Tower, WSquaredIsV) {
  Fp12 w{Fp6::zero(), Fp6::one()};
  Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  EXPECT_EQ(w.square(), Fp12(v, Fp6::zero()));
}

TEST(Fp12Tower, FrobeniusIsPthPower) {
  auto rng = SecureRng::deterministic(32);
  Fp12 a = Fp12::random(rng);
  EXPECT_EQ(a.frobenius(), pow_var(a, VarUInt{Fp::modulus()}));
}

TEST(Fp12Tower, FrobeniusOrderTwelve) {
  auto rng = SecureRng::deterministic(33);
  Fp12 a = Fp12::random(rng);
  EXPECT_EQ(a.frobenius_pow(12), a);
  EXPECT_NE(a.frobenius_pow(6), a);  // overwhelming probability for random a
  EXPECT_EQ(a.frobenius_pow(6), Fp12(a.c0, -a.c1));  // p^6 Frobenius == conjugate
}

TEST(Fp12Tower, PowHomomorphism) {
  auto rng = SecureRng::deterministic(34);
  Fp12 a = Fp12::random(rng);
  EXPECT_EQ(a.pow_u256(U256{3}) * a.pow_u256(U256{5}), a.pow_u256(U256{8}));
  EXPECT_EQ(a.pow_u256(U256{0}), Fp12::one());
  U256 e1{123456789}, e2{987654321};
  U256 sum;
  bigint::add_with_carry(e1, e2, sum);
  EXPECT_EQ(a.pow_u256(e1) * a.pow_u256(e2), a.pow_u256(sum));
}

// ---------------------------------------------------------------------------
// Square roots in Fp2.
// ---------------------------------------------------------------------------

TEST(Sqrt, Fp2RoundTrip) {
  auto rng = SecureRng::deterministic(35);
  int residues = 0;
  for (int i = 0; i < 10; ++i) {
    Fp2 a = Fp2::random(rng);
    Fp2 sq = a.square();
    auto root = sqrt(sq);
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
    if (sqrt(a).has_value()) ++residues;
  }
  // Roughly half of random elements are squares; just ensure both kinds occur.
  EXPECT_GT(residues, 0);
  EXPECT_LT(residues, 10);
}

/// The fast root and the Tonelli–Shanks oracle agree on existence, and on
/// the root up to sign. Returns whether a root exists.
bool expect_matches_oracle(const Fp2& a) {
  auto fast = sqrt(a);
  auto ref = oracle::ts_sqrt(a);
  EXPECT_EQ(fast.has_value(), ref.has_value());
  if (fast && ref) {
    EXPECT_TRUE(*fast == *ref || *fast == -*ref);
  }
  return ref.has_value();
}

TEST(Sqrt, Fp2MatchesTonelliShanks) {
  auto rng = SecureRng::deterministic(38);
  const Fp2 u{Fp::zero(), Fp::one()};
  std::vector<Fp2> inputs = {Fp2::zero(), Fp2::one(), -Fp2::one(), u, -u, xi()};
  for (int i = 0; i < 24; ++i) {
    Fp2 a = Fp2::random(rng);
    inputs.push_back(a);
    inputs.push_back(a.square());
    inputs.push_back({Fp::zero(), a.c1});  // pure imaginary
    // a1 = 0 with a0 a non-residue: the root is purely imaginary.
    inputs.push_back({a.c0.legendre() < 0 ? a.c0 : -a.c0, Fp::zero()});
  }
  int residues = 0;
  for (const Fp2& a : inputs) residues += expect_matches_oracle(a);
  EXPECT_GT(residues, 0);
  EXPECT_LT(residues, static_cast<int>(inputs.size()));
}

// ---------------------------------------------------------------------------
// batch_inverse (Montgomery's trick) vs. per-element inverse().
// ---------------------------------------------------------------------------

TYPED_TEST(FieldAxioms, BatchInverseMatchesElementwise) {
  auto rng = SecureRng::deterministic(27);
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 257u}) {
    std::vector<TypeParam> xs(n);
    std::vector<TypeParam> expect(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = TypeParam::random(rng);
      expect[i] = xs[i].inverse();
    }
    batch_inverse(xs);
    EXPECT_EQ(xs, expect) << "n=" << n;
  }
}

TYPED_TEST(FieldAxioms, BatchInverseSkipsZeros) {
  auto rng = SecureRng::deterministic(28);
  // Zeros interleaved at every position pattern, including all-zero.
  for (int pattern = 0; pattern < 8; ++pattern) {
    std::vector<TypeParam> xs(3);
    std::vector<TypeParam> expect(3);
    for (int i = 0; i < 3; ++i) {
      xs[i] = (pattern >> i) & 1 ? TypeParam::random(rng) : TypeParam::zero();
      expect[i] = xs[i].inverse();  // inverse() returns zero for zero
    }
    batch_inverse(xs);
    EXPECT_EQ(xs, expect) << "pattern=" << pattern;
  }
}

TEST(BatchInverse, LargeSetSingleInversionIsConsistent) {
  auto rng = SecureRng::deterministic(29);
  std::vector<Fp> xs(1000);
  for (auto& x : xs) x = Fp::random(rng);
  std::vector<Fp> orig = xs;
  batch_inverse(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(orig[i] * xs[i], Fp::one());
  }
}

TEST(TowerConsts, GammaConsistency) {
  const auto& tc = tower_consts();
  // gamma[k] = gamma[1]^k and gamma[1]^6 = xi^{p-1}.
  EXPECT_EQ(tc.gamma[2], tc.gamma[1] * tc.gamma[1]);
  EXPECT_EQ(tc.gamma[3], tc.gamma[2] * tc.gamma[1]);
  Fp2 g6 = tc.gamma[3] * tc.gamma[3];
  VarUInt pm1 = VarUInt{Fp::modulus()} - VarUInt{1};
  EXPECT_EQ(g6, pow_var(xi(), pm1));
}

}  // namespace
}  // namespace dsaudit::ff
