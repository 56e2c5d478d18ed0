// End-to-end tests of the main auditing protocol (§V): completeness of
// Eq. 1 / Eq. 2, soundness against corruption and tampering, tag acceptance,
// batching, and the exact paper wire sizes.
#include <gtest/gtest.h>

#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "pairing/pairing.hpp"
#include "poly/polynomial.hpp"

namespace dsaudit::audit {
namespace {

using primitives::SecureRng;

std::vector<std::uint8_t> random_bytes(std::size_t n, SecureRng& rng) {
  std::vector<std::uint8_t> v(n);
  rng.fill(v);
  return v;
}

struct Scenario {
  KeyPair kp;
  storage::EncodedFile file;
  FileTag tag;
  Fr name;
};

Scenario make_scenario(std::size_t file_size, std::size_t s, SecureRng& rng,
                       unsigned threads = 1) {
  Scenario sc;
  sc.kp = keygen(s, rng);
  auto data = random_bytes(file_size, rng);
  sc.file = storage::encode_file(data, s);
  sc.name = Fr::random(rng);
  sc.tag = generate_tags(sc.kp.sk, sc.kp.pk, sc.file, sc.name, threads);
  return sc;
}

Challenge make_challenge(SecureRng& rng, std::size_t k) {
  Challenge c;
  c.c1 = rng.bytes32();
  c.c2 = rng.bytes32();
  c.r = Fr::random(rng);
  c.k = k;
  return c;
}

// ---------------------------------------------------------------------------
// Completeness, parameterized over (file size, s, k).
// ---------------------------------------------------------------------------

struct Params {
  std::size_t file_size;
  std::size_t s;
  std::size_t k;
};

class AuditCompleteness : public ::testing::TestWithParam<Params> {};

TEST_P(AuditCompleteness, BasicProofVerifies) {
  auto [file_size, s, k] = GetParam();
  auto rng = SecureRng::deterministic(200 + file_size + s + k);
  Scenario sc = make_scenario(file_size, s, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, k);
  ProofBasic proof = prover.prove(chal);
  EXPECT_TRUE(verify(sc.kp.pk, sc.name, sc.file.num_chunks(), chal, proof));
}

TEST_P(AuditCompleteness, PrivateProofVerifies) {
  auto [file_size, s, k] = GetParam();
  auto rng = SecureRng::deterministic(300 + file_size + s + k);
  Scenario sc = make_scenario(file_size, s, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, k);
  ProofPrivate proof = prover.prove_private(chal, rng);
  EXPECT_TRUE(verify_private(sc.kp.pk, sc.name, sc.file.num_chunks(), chal, proof));
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, AuditCompleteness,
    ::testing::Values(Params{1, 1, 1},        // single block, s = 1 edge
                      Params{100, 1, 3},      // s = 1 (classic HLA, no chunks)
                      Params{100, 4, 2},      // tiny
                      Params{1000, 2, 5},     // more chunks than blocks/chunk
                      Params{5000, 10, 8},    // k < d
                      Params{5000, 10, 999},  // k > d: challenge all chunks
                      Params{20000, 50, 13},  // paper's preferred s = 50
                      Params{3100, 100, 1}),  // single challenged chunk
    [](const auto& info) {
      return "file" + std::to_string(info.param.file_size) + "_s" +
             std::to_string(info.param.s) + "_k" + std::to_string(info.param.k);
    });

// ---------------------------------------------------------------------------
// Soundness / failure injection.
// ---------------------------------------------------------------------------

class AuditSoundness : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<SecureRng>(SecureRng::deterministic(400));
    sc_ = make_scenario(4000, 8, *rng_);
  }
  std::unique_ptr<SecureRng> rng_;
  Scenario sc_;
};

TEST_F(AuditSoundness, CorruptedBlockFailsBasic) {
  // Flip one block, keep the (now stale) tags: every challenge touching the
  // chunk must fail.
  storage::EncodedFile bad = sc_.file;
  bad.chunks[0][0] += Fr::one();
  Prover prover(sc_.kp.pk, bad, sc_.tag);
  int failures = 0, rounds = 0;
  for (int i = 0; i < 10; ++i) {
    Challenge chal = make_challenge(*rng_, bad.num_chunks());  // challenge all
    ProofBasic proof = prover.prove(chal);
    ++rounds;
    if (!verify(sc_.kp.pk, sc_.name, bad.num_chunks(), chal, proof)) ++failures;
  }
  EXPECT_EQ(failures, rounds);  // k = d always hits chunk 0
}

TEST_F(AuditSoundness, CorruptedBlockFailsPrivate) {
  storage::EncodedFile bad = sc_.file;
  bad.chunks[2][3] += Fr::from_u64(7);
  Prover prover(sc_.kp.pk, bad, sc_.tag);
  Challenge chal = make_challenge(*rng_, bad.num_chunks());
  ProofPrivate proof = prover.prove_private(chal, *rng_);
  EXPECT_FALSE(verify_private(sc_.kp.pk, sc_.name, bad.num_chunks(), chal, proof));
}

TEST_F(AuditSoundness, DroppedChunkDetectedWithSamplingProbability) {
  // Provider silently zeroes one chunk; with k < d, detection happens iff the
  // challenge samples it. Over many rounds, both outcomes must occur and the
  // verifier must never accept a proof computed over the corrupted chunk.
  storage::EncodedFile bad = sc_.file;
  std::size_t victim = 5;
  for (auto& b : bad.chunks[victim]) b = Fr::zero();
  ASSERT_NE(bad.chunks[victim], sc_.file.chunks[victim]);
  Prover prover(sc_.kp.pk, bad, sc_.tag);
  int detected = 0, sampled = 0;
  for (int i = 0; i < 30; ++i) {
    Challenge chal = make_challenge(*rng_, 4);
    auto ex = expand_challenge(chal, bad.num_chunks());
    bool hits = std::find(ex.indices.begin(), ex.indices.end(), victim) !=
                ex.indices.end();
    ProofBasic proof = prover.prove(chal);
    bool ok = verify(sc_.kp.pk, sc_.name, bad.num_chunks(), chal, proof);
    if (hits) ++sampled;
    if (!ok) ++detected;
    EXPECT_EQ(ok, !hits);  // fails exactly when the victim chunk is sampled
  }
  EXPECT_GT(sampled, 0);
  EXPECT_EQ(detected, sampled);
}

TEST_F(AuditSoundness, TamperedProofElementsFail) {
  Prover prover(sc_.kp.pk, sc_.file, sc_.tag);
  Challenge chal = make_challenge(*rng_, 5);
  ProofBasic good = prover.prove(chal);
  ASSERT_TRUE(verify(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal, good));

  ProofBasic bad = good;
  bad.sigma = bad.sigma + curve::G1::generator();
  EXPECT_FALSE(verify(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal, bad));

  bad = good;
  bad.y += Fr::one();
  EXPECT_FALSE(verify(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal, bad));

  bad = good;
  bad.psi = bad.psi.dbl();
  EXPECT_FALSE(verify(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal, bad));
}

TEST_F(AuditSoundness, TamperedPrivateProofElementsFail) {
  Prover prover(sc_.kp.pk, sc_.file, sc_.tag);
  Challenge chal = make_challenge(*rng_, 5);
  ProofPrivate good = prover.prove_private(chal, *rng_);
  ASSERT_TRUE(verify_private(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal, good));

  ProofPrivate bad = good;
  bad.y_prime += Fr::one();
  EXPECT_FALSE(verify_private(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal, bad));

  bad = good;
  bad.big_r = bad.big_r * bad.big_r;  // different commitment, stale y'
  EXPECT_FALSE(verify_private(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal, bad));

  bad = good;
  bad.sigma = -bad.sigma;
  EXPECT_FALSE(verify_private(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal, bad));
}

TEST_F(AuditSoundness, ReplayedProofFromOldChallengeFails) {
  Prover prover(sc_.kp.pk, sc_.file, sc_.tag);
  Challenge chal1 = make_challenge(*rng_, 5);
  Challenge chal2 = make_challenge(*rng_, 5);
  ProofBasic old_proof = prover.prove(chal1);
  EXPECT_TRUE(verify(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal1, old_proof));
  EXPECT_FALSE(verify(sc_.kp.pk, sc_.name, sc_.file.num_chunks(), chal2, old_proof));
}

TEST_F(AuditSoundness, WrongFileNameFails) {
  Prover prover(sc_.kp.pk, sc_.file, sc_.tag);
  Challenge chal = make_challenge(*rng_, 5);
  ProofBasic proof = prover.prove(chal);
  EXPECT_FALSE(verify(sc_.kp.pk, sc_.name + Fr::one(), sc_.file.num_chunks(), chal, proof));
}

// ---------------------------------------------------------------------------
// Tag acceptance (the provider's Initialize-phase check).
// ---------------------------------------------------------------------------

TEST_F(AuditSoundness, HonestTagsAccepted) {
  EXPECT_TRUE(verify_tags(sc_.kp.pk, sc_.file, sc_.tag));
}

TEST_F(AuditSoundness, ForgedTagRejected) {
  // A cheating owner who corrupts one authenticator (to later frame the
  // provider) is caught at acceptance time.
  FileTag bad = sc_.tag;
  bad.sigmas[1] = bad.sigmas[1] + curve::G1::generator();
  EXPECT_FALSE(verify_tags(sc_.kp.pk, sc_.file, bad));
}

TEST_F(AuditSoundness, TagForDifferentDataRejected) {
  storage::EncodedFile other = sc_.file;
  other.chunks[0][0] += Fr::one();
  EXPECT_FALSE(verify_tags(sc_.kp.pk, other, sc_.tag));
}

TEST_F(AuditSoundness, StructuralMismatchesRejected) {
  FileTag bad = sc_.tag;
  bad.sigmas.pop_back();
  bad.num_chunks--;
  EXPECT_FALSE(verify_tags(sc_.kp.pk, sc_.file, bad));
  auto rng2 = SecureRng::deterministic(401);
  auto other_kp = keygen(sc_.kp.pk.s + 1, rng2);
  EXPECT_FALSE(verify_tags(other_kp.pk, sc_.file, sc_.tag));
}

TEST(AuditVerifier, PreparedVerifierMatchesFreeFunctions) {
  // One Verifier serving many rounds — basic, private, tags and batch — must
  // agree with the one-shot free functions on both accepts and rejects.
  auto rng = SecureRng::deterministic(450);
  Scenario sc = make_scenario(4000, 8, rng);
  Verifier verifier(sc.kp.pk);
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  EXPECT_TRUE(verifier.verify_tags(sc.file, sc.tag));

  PreparedFile file_ctx = prepare_file(sc.name, sc.file.num_chunks());
  for (int round = 0; round < 3; ++round) {
    Challenge chal = make_challenge(rng, 5);
    ProofBasic proof = prover.prove(chal);
    EXPECT_TRUE(verifier.verify(sc.name, sc.file.num_chunks(), chal, proof));
    EXPECT_TRUE(verifier.verify(file_ctx, chal, proof));
    ProofPrivate priv = prover.prove_private(chal, rng);
    EXPECT_TRUE(
        verifier.verify_private(sc.name, sc.file.num_chunks(), chal, priv));
    EXPECT_TRUE(verifier.verify_private(file_ctx, chal, priv));

    ProofBasic bad = proof;
    bad.y = bad.y + Fr::one();
    EXPECT_FALSE(verifier.verify(sc.name, sc.file.num_chunks(), chal, bad));
    EXPECT_FALSE(verifier.verify(file_ctx, chal, bad));
    ProofPrivate badp = priv;
    badp.y_prime = badp.y_prime + Fr::one();
    EXPECT_FALSE(
        verifier.verify_private(sc.name, sc.file.num_chunks(), chal, badp));
    EXPECT_FALSE(verifier.verify_private(file_ctx, chal, badp));
  }

  std::vector<BasicInstance> instances;
  for (int i = 0; i < 3; ++i) {
    BasicInstance inst;
    inst.name = sc.name;
    inst.num_chunks = sc.file.num_chunks();
    inst.challenge = make_challenge(rng, 4);
    inst.proof = prover.prove(inst.challenge);
    instances.push_back(inst);
  }
  EXPECT_TRUE(verifier.verify_batch(instances, rng));
  instances[1].proof.y = instances[1].proof.y + Fr::one();
  EXPECT_FALSE(verifier.verify_batch(instances, rng));
}

TEST(AuditProver, PreparedSigmaTableMatchesColdPath) {
  // The sigma subset-MSM over the prepared tag table must emit byte-for-byte
  // the proofs of the gather-then-cold-MSM path it replaces.
  auto rng = SecureRng::deterministic(415);
  Scenario sc = make_scenario(5000, 8, rng);
  Prover prepared(sc.kp.pk, sc.file, sc.tag, /*prepare_psi=*/true,
                  /*prepare_sigma=*/true);
  Prover cold(sc.kp.pk, sc.file, sc.tag);
  for (int i = 0; i < 3; ++i) {
    Challenge chal = make_challenge(rng, 4 + 3 * i);
    EXPECT_EQ(serialize(prepared.prove(chal)), serialize(cold.prove(chal)));
    auto rng_a = SecureRng::deterministic(500 + i);
    auto rng_b = SecureRng::deterministic(500 + i);
    EXPECT_EQ(serialize(prepared.prove_private(chal, rng_a)),
              serialize(cold.prove_private(chal, rng_b)));
  }
}

TEST(AuditProver, PreparedPsiTablesMatchColdPath) {
  // The prepared shifted-base tables for pk.g1_alpha_powers must leave the
  // proof bit-identical to the cold-MSM prover.
  auto rng = SecureRng::deterministic(451);
  Scenario sc = make_scenario(6000, 12, rng);
  Prover prepared(sc.kp.pk, sc.file, sc.tag, /*prepare_psi=*/true);
  Prover cold(sc.kp.pk, sc.file, sc.tag, /*prepare_psi=*/false);
  for (int i = 0; i < 2; ++i) {
    Challenge chal = make_challenge(rng, 6);
    ProofBasic a = prepared.prove(chal);
    ProofBasic b = cold.prove(chal);
    EXPECT_EQ(a.sigma, b.sigma);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.psi, b.psi);
  }
}

TEST(AuditProver, SharedPsiTableMatchesColdPath) {
  // A prover borrowing the key's shared psi table must emit byte-for-byte
  // the proofs of a prover owning its table and of a table-less prover, and
  // psi must equal a cold MSM of the KZG quotient over the SRS powers.
  for (std::size_t s : {1u, 2u, 4u, 10u}) {
    SCOPED_TRACE("s = " + std::to_string(s));
    auto rng = SecureRng::deterministic(460 + s);
    Scenario sc = make_scenario(3000, s, rng);
    auto table = prepare_psi_table(sc.kp.pk);
    // Only a key with two or more SRS powers (s >= 3) gets a table.
    ASSERT_EQ(table != nullptr, s >= 3);
    if (table) {
      EXPECT_EQ(table->n, s - 1);
    }

    // A second file under the same key shares the one table.
    auto data2 = random_bytes(2000, rng);
    storage::EncodedFile file2 = storage::encode_file(data2, s);
    Fr name2 = Fr::random(rng);
    FileTag tag2 = generate_tags(sc.kp.sk, sc.kp.pk, file2, name2);

    const Prover borrowed(sc.kp.pk, sc.file, sc.tag, table);
    const Prover borrowed2(sc.kp.pk, file2, tag2, table);
    const Prover owning(sc.kp.pk, sc.file, sc.tag, /*prepare_psi=*/true);
    const Prover owning2(sc.kp.pk, file2, tag2, /*prepare_psi=*/true);
    const Prover tableless(sc.kp.pk, sc.file, sc.tag, /*prepare_psi=*/false);
    if (table) {
      EXPECT_EQ(table.use_count(), 3);
    }
    Verifier verifier(sc.kp.pk);

    for (int i = 0; i < 3; ++i) {
      Challenge chal = make_challenge(rng, 1 + 2 * i);
      const ProofBasic a = borrowed.prove(chal);
      EXPECT_EQ(serialize(a), serialize(owning.prove(chal)));
      EXPECT_EQ(serialize(a), serialize(tableless.prove(chal)));
      EXPECT_EQ(serialize(borrowed2.prove(chal)),
                serialize(owning2.prove(chal)));
      EXPECT_TRUE(verifier.verify(sc.name, sc.file.num_chunks(), chal, a));

      // The test-side oracle: P_k = sum_j c_j M_{i_j}, its quotient by
      // (x - r), and a cold MSM over g1_alpha_powers.
      ExpandedChallenge ex = expand_challenge(chal, sc.file.num_chunks());
      std::vector<Fr> p(s, Fr::zero());
      for (std::size_t j = 0; j < ex.indices.size(); ++j) {
        for (std::size_t l = 0; l < s; ++l) {
          p[l] += ex.coefficients[j] * sc.file.chunks[ex.indices[j]][l];
        }
      }
      auto [quotient, y] =
          poly::Polynomial(std::move(p)).divide_by_linear(chal.r);
      auto qc = quotient.coefficients();
      const G1 psi_oracle =
          qc.empty() ? G1::infinity()
                     : curve::msm<G1>(std::span<const G1>(
                                          sc.kp.pk.g1_alpha_powers.data(),
                                          qc.size()),
                                      qc);
      EXPECT_EQ(a.psi, psi_oracle);
      EXPECT_EQ(a.y, y);

      auto rng_a = SecureRng::deterministic(600 + i);
      auto rng_b = SecureRng::deterministic(600 + i);
      auto rng_c = SecureRng::deterministic(600 + i);
      const ProofPrivate pa = borrowed.prove_private(chal, rng_a);
      EXPECT_EQ(serialize(pa), serialize(owning.prove_private(chal, rng_b)));
      EXPECT_EQ(serialize(pa), serialize(tableless.prove_private(chal, rng_c)));
      EXPECT_EQ(pa.psi, psi_oracle);
      EXPECT_TRUE(
          verifier.verify_private(sc.name, sc.file.num_chunks(), chal, pa));
    }
  }
}

TEST(AuditProver, SharedPsiTableOfWrongSizeRejected) {
  // A table over another key's SRS size cannot be borrowed.
  auto rng = SecureRng::deterministic(470);
  Scenario sc = make_scenario(2000, 4, rng);
  KeyPair other = keygen(6, rng);
  EXPECT_THROW(Prover(sc.kp.pk, sc.file, sc.tag, prepare_psi_table(other.pk)),
               std::invalid_argument);
}

TEST(AuditTags, ParallelMatchesSerial) {
  auto rng = SecureRng::deterministic(402);
  auto kp = keygen(5, rng);
  auto data = std::vector<std::uint8_t>(2000, 0xab);
  auto file = storage::encode_file(data, 5);
  Fr name = Fr::random(rng);
  FileTag serial = generate_tags(kp.sk, kp.pk, file, name, 1);
  FileTag parallel = generate_tags(kp.sk, kp.pk, file, name, 4);
  ASSERT_EQ(serial.sigmas.size(), parallel.sigmas.size());
  for (std::size_t i = 0; i < serial.sigmas.size(); ++i) {
    EXPECT_EQ(serial.sigmas[i], parallel.sigmas[i]);
  }
}

// ---------------------------------------------------------------------------
// Batch verification.
// ---------------------------------------------------------------------------

TEST(AuditBatch, ManyRoundsVerifyTogether) {
  auto rng = SecureRng::deterministic(403);
  Scenario sc = make_scenario(3000, 6, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  std::vector<BasicInstance> instances;
  for (int i = 0; i < 8; ++i) {
    BasicInstance inst;
    inst.name = sc.name;
    inst.num_chunks = sc.file.num_chunks();
    inst.challenge = make_challenge(rng, 4);
    inst.proof = prover.prove(inst.challenge);
    instances.push_back(inst);
  }
  EXPECT_TRUE(verify_batch(sc.kp.pk, instances, rng));
}

TEST(AuditBatch, SingleBadProofPoisonsBatch) {
  auto rng = SecureRng::deterministic(404);
  Scenario sc = make_scenario(3000, 6, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  std::vector<BasicInstance> instances;
  for (int i = 0; i < 5; ++i) {
    BasicInstance inst;
    inst.name = sc.name;
    inst.num_chunks = sc.file.num_chunks();
    inst.challenge = make_challenge(rng, 4);
    inst.proof = prover.prove(inst.challenge);
    instances.push_back(inst);
  }
  instances[3].proof.y += Fr::one();
  EXPECT_FALSE(verify_batch(sc.kp.pk, instances, rng));
  EXPECT_TRUE(verify_batch(sc.kp.pk, std::span<const BasicInstance>{}, rng));
}

// ---------------------------------------------------------------------------
// Wire formats.
// ---------------------------------------------------------------------------

TEST(AuditWire, ProofSizesMatchPaper) {
  auto rng = SecureRng::deterministic(405);
  Scenario sc = make_scenario(2000, 10, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, 5);
  auto basic = serialize(prover.prove(chal));
  EXPECT_EQ(basic.size(), 96u);  // Fig. 5 "w/o on-chain privacy"
  auto priv = serialize(prover.prove_private(chal, rng));
  EXPECT_EQ(priv.size(), 288u);  // Table II / Fig. 5 "w/ on-chain privacy"
}

TEST(AuditWire, ProofRoundTrip) {
  auto rng = SecureRng::deterministic(406);
  Scenario sc = make_scenario(2000, 10, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, 5);

  ProofBasic basic = prover.prove(chal);
  auto basic_bytes = serialize(basic);
  auto basic2 = decode_basic(basic_bytes);
  ASSERT_TRUE(basic2.ok());
  EXPECT_EQ(basic2->sigma, basic.sigma);
  EXPECT_EQ(basic2->y, basic.y);
  EXPECT_EQ(basic2->psi, basic.psi);
  EXPECT_TRUE(verify(sc.kp.pk, sc.name, sc.file.num_chunks(), chal, *basic2));

  ProofPrivate priv = prover.prove_private(chal, rng);
  auto priv_bytes = serialize(priv);
  auto priv2 = decode_private(priv_bytes);
  ASSERT_TRUE(priv2.ok());
  EXPECT_EQ(priv2->big_r, priv.big_r);
  EXPECT_TRUE(verify_private(sc.kp.pk, sc.name, sc.file.num_chunks(), chal, *priv2));
}

TEST(AuditWire, MalformedProofRejected) {
  std::vector<std::uint8_t> junk(96, 0xff);
  EXPECT_EQ(decode_basic(junk).error, DecodeError::BadPoint);
  EXPECT_EQ(decode_basic(std::vector<std::uint8_t>(95)).error,
            DecodeError::BadLength);
  std::vector<std::uint8_t> junk288(288, 0xff);
  EXPECT_EQ(decode_private(junk288).error, DecodeError::BadPoint);
}

TEST(AuditWire, GtCompressionRoundTrip) {
  auto rng = SecureRng::deterministic(407);
  for (int i = 0; i < 3; ++i) {
    // Any pairing output is unit-norm.
    Fp12 g = ::dsaudit::pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
    auto bytes = gt_compress(g);
    auto back = gt_decode(bytes).value;
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, g);
  }
  // Identity (b = 0 path).
  auto one_bytes = gt_compress(Fp12::one());
  auto one_back = gt_decode(one_bytes).value;
  ASSERT_TRUE(one_back.has_value());
  EXPECT_TRUE(one_back->is_one());
  // Non-unit-norm elements are rejected at compression time.
  Fp12 not_gt = Fp12::random(rng);
  EXPECT_THROW(gt_compress(not_gt), std::invalid_argument);
}

TEST(AuditWire, GtDecompressRejectsUnitNormNonSubgroupElements) {
  auto rng = SecureRng::deterministic(409);
  // f^{p^6 - 1} is unit-norm for any f (it survives gt_compress) but lives in
  // the full order-(p^6+1) subgroup, which is overwhelmingly larger than GT;
  // a decoder that only checks the norm equation would accept it.
  for (int i = 0; i < 3; ++i) {
    Fp12 f = Fp12::random(rng);
    Fp12 u = f.conjugate() * f.inverse();
    ASSERT_FALSE(::dsaudit::pairing::gt_in_subgroup(u));
    auto bytes = gt_compress(u);  // unit-norm: compression accepts
    EXPECT_FALSE(gt_decode(bytes).value.has_value());
  }
  // -1 is unit-norm with order 2; r is odd, so it is not a pairing value.
  Fp12 minus_one{-ff::Fp6::one(), ff::Fp6::zero()};
  EXPECT_FALSE(gt_decode(gt_compress(minus_one)).value.has_value());
  // Sanity: genuine pairing outputs do pass the subgroup check.
  Fp12 g = ::dsaudit::pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  EXPECT_TRUE(::dsaudit::pairing::gt_in_subgroup(g));
}

/// Decodes `bytes` and checks the two-way contract: a refusal is typed
/// BadGtElement, an acceptance re-encodes to exactly the same bytes.
/// Returns whether the bytes decoded.
bool expect_canonical_gt(const std::array<std::uint8_t, 192>& bytes) {
  const auto r = gt_decode(bytes);
  if (!r) {
    EXPECT_EQ(r.error, DecodeError::BadGtElement);
    return false;
  }
  EXPECT_EQ(gt_compress(*r), bytes);
  return true;
}

TEST(AuditWire, GtEncodingIsCanonical) {
  auto rng = SecureRng::deterministic(412);
  using Bytes = std::array<std::uint8_t, 192>;

  // The identity: flag 0x80 over an all-zero body.
  Bytes identity{};
  identity[0] = 0x80;
  EXPECT_EQ(gt_compress(Fp12::one()), identity);
  ASSERT_TRUE(expect_canonical_gt(identity));
  EXPECT_TRUE(gt_decode(identity)->is_one());

  // c = 0 is -1: unit norm, order 2, refused by the subgroup check.
  const Bytes zero{};
  EXPECT_EQ(gt_compress(Fp12{-ff::Fp6::one(), ff::Fp6::zero()}), zero);
  EXPECT_FALSE(expect_canonical_gt(zero));

  // 64 random pairing outputs decode to themselves and re-encode exactly.
  std::vector<Bytes> valid;
  for (int i = 0; i < 64; ++i) {
    Fp12 g = ::dsaudit::pairing::pairing(curve::g1_random(rng),
                                         curve::g2_random(rng));
    valid.push_back(gt_compress(g));
    ASSERT_TRUE(expect_canonical_gt(valid.back()));
    EXPECT_EQ(*gt_decode(valid.back()), g);
  }

  // The reserved bit 0x40, alone or next to the identity flag.
  for (const Bytes& base : {valid[0], identity}) {
    Bytes b = base;
    b[0] |= 0x40;
    EXPECT_FALSE(expect_canonical_gt(b));
  }

  // The identity flag over a non-zero body: a genuine element's c, a stray
  // low bit in byte 0, a stray last byte.
  {
    Bytes b = valid[1];
    b[0] |= 0x80;
    EXPECT_FALSE(expect_canonical_gt(b));
    b = identity;
    b[0] |= 0x01;
    EXPECT_FALSE(expect_canonical_gt(b));
    b = identity;
    b[191] = 1;
    EXPECT_FALSE(expect_canonical_gt(b));
  }

  // Each coordinate in turn set to p itself (p ≡ 0 would alias 0).
  for (std::size_t j = 0; j < 6; ++j) {
    Bytes b = valid[2];
    ff::Fp::modulus().to_be_bytes(
        std::span<std::uint8_t, 32>(b.data() + 32 * j, 32));
    EXPECT_FALSE(expect_canonical_gt(b));
  }

  // f^(p^6 - 1): unit norm, outside the order-r subgroup.
  Fp12 f = Fp12::random(rng);
  EXPECT_FALSE(expect_canonical_gt(gt_compress(f.conjugate() * f.inverse())));

  // Random strings, half with the flag bits cleared so they reach the
  // coordinate and subgroup checks.
  for (int i = 0; i < 64; ++i) {
    Bytes b;
    rng.fill(b);
    if (i % 2 == 0) b[0] &= 0x3F;
    expect_canonical_gt(b);
  }
}

TEST(AuditWire, GtOrderCheckRejectsCyclotomicNonSubgroupElements) {
  // The easy part of the final exponentiation, e = t0^{p^2} * t0 with
  // t0 = f^{p^6 - 1}, lands in the cyclotomic subgroup (order dividing
  // p^4 - p^2 + 1) but, for random f, not in its order-r subgroup GT. Such
  // an element passes the cheap Phi_12 identity, so only the order-r stage
  // of gt_in_subgroup can reject it.
  auto rng = SecureRng::deterministic(411);
  Scenario sc = make_scenario(1500, 8, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, 4);
  for (int i = 0; i < 2; ++i) {
    Fp12 f = Fp12::random(rng);
    Fp12 t0 = f.conjugate() * f.inverse();
    Fp12 e = t0.frobenius2() * t0;
    ASSERT_TRUE(e.frobenius2().frobenius2() * e == e.frobenius2());
    EXPECT_FALSE(::dsaudit::pairing::gt_in_subgroup(e));
    auto bytes = gt_compress(e);
    EXPECT_EQ(gt_decode(bytes).error, DecodeError::BadGtElement);

    auto priv_bytes = serialize(prover.prove_private(chal, rng));
    std::copy(bytes.begin(), bytes.end(), priv_bytes.begin() + 96);
    EXPECT_EQ(decode_private(priv_bytes).error, DecodeError::BadGtElement);
  }
}

TEST(AuditWire, TamperedProofAndKeyEncodingsRejected) {
  auto rng = SecureRng::deterministic(410);
  Scenario sc = make_scenario(1500, 8, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, 4);

  // y (resp. y') replaced by the non-canonical encoding r itself.
  auto y_tampered = serialize(prover.prove(chal));
  Fr::modulus().to_be_bytes(
      std::span<std::uint8_t, 32>(y_tampered.data() + 32, 32));
  EXPECT_EQ(decode_basic(y_tampered).error, DecodeError::NonCanonicalScalar);

  // big_r replaced by a unit-norm element outside GT.
  auto priv_bytes = serialize(prover.prove_private(chal, rng));
  Fp12 f = Fp12::random(rng);
  auto bad_r = gt_compress(f.conjugate() * f.inverse());
  std::copy(bad_r.begin(), bad_r.end(), priv_bytes.begin() + 96);
  EXPECT_EQ(decode_private(priv_bytes).error, DecodeError::BadGtElement);

  // Public keys: s = 0, an infinity epsilon, and a non-GT e(g1, eps) all
  // fail to decode.
  auto pk_bytes = serialize(sc.kp.pk, true);
  auto zero_s = pk_bytes;
  std::fill(zero_s.begin(), zero_s.begin() + 8, std::uint8_t{0});
  EXPECT_EQ(decode_public_key(zero_s).error, DecodeError::ZeroForbidden);

  auto inf_eps = pk_bytes;
  std::fill(inf_eps.begin() + 8, inf_eps.begin() + 72, std::uint8_t{0});
  inf_eps[8] = 0x80;  // valid infinity encoding, invalid key component
  EXPECT_EQ(decode_public_key(inf_eps).error, DecodeError::ZeroForbidden);

  auto bad_gt_pk = pk_bytes;
  std::copy(bad_r.begin(), bad_r.end(), bad_gt_pk.end() - 192);
  EXPECT_EQ(decode_public_key(bad_gt_pk).error, DecodeError::BadGtElement);
}

TEST(AuditWire, PublicKeyRoundTripAndFig4Sizes) {
  auto rng = SecureRng::deterministic(408);
  for (std::size_t s : {10u, 20u, 50u, 100u}) {
    auto kp = keygen(s, rng);
    for (bool priv : {false, true}) {
      auto bytes = serialize(kp.pk, priv);
      EXPECT_EQ(bytes.size(), kp.pk.serialized_size(priv));
      auto back = decode_public_key(bytes);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back->s, s);
      EXPECT_EQ(back->epsilon, kp.pk.epsilon);
      EXPECT_EQ(back->delta, kp.pk.delta);
      ASSERT_EQ(back->g1_alpha_powers.size(), kp.pk.g1_alpha_powers.size());
      // With or without it on the wire, the decoded key carries e(g1, eps).
      EXPECT_EQ(back->e_g1_epsilon, kp.pk.e_g1_epsilon);
    }
  }
}

TEST(AuditWire, PublicKeyPrivacyComponentMustMatchEpsilon) {
  // A key whose shipped e(g1, eps) is any other GT element would make every
  // honest private proof under it fail Eq. 2, so decode refuses it.
  auto rng = SecureRng::deterministic(413);
  Scenario sc = make_scenario(1500, 8, rng);
  auto pk_bytes = serialize(sc.kp.pk, true);
  auto with_gt = [&](const Fp12& g) {
    auto b = pk_bytes;
    auto gt = gt_compress(g);
    std::copy(gt.begin(), gt.end(), b.end() - 192);
    return b;
  };
  const Fp12& base = sc.kp.pk.e_g1_epsilon;
  EXPECT_EQ(decode_public_key(with_gt(base.square())).error,
            DecodeError::BadGtElement);
  EXPECT_EQ(decode_public_key(with_gt(keygen(8, rng).pk.e_g1_epsilon)).error,
            DecodeError::BadGtElement);
  EXPECT_EQ(decode_public_key(with_gt(Fp12::one())).error,
            DecodeError::BadGtElement);

  // The genuine key decodes, and an honest private proof under the decoded
  // key verifies.
  auto back = decode_public_key(pk_bytes);
  ASSERT_TRUE(back.ok());
  Prover prover(*back, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, 4);
  EXPECT_TRUE(verify_private(*back, sc.name, sc.file.num_chunks(), chal,
                             prover.prove_private(chal, rng)));
}

// ---------------------------------------------------------------------------
// Misc protocol pieces.
// ---------------------------------------------------------------------------

TEST(AuditMisc, ChunksForConfidenceMatchesPaper) {
  // §VI-A: "setting k to 300 can give D storage assurance of 95% if only 1%
  // of entire data is tampered" — ln(0.05)/ln(0.99) = 298.07 -> 299.
  std::size_t k95 = chunks_for_confidence(0.95, 0.01);
  EXPECT_GE(k95, 295u);
  EXPECT_LE(k95, 300u);
  // Fig. 9's sweep endpoints.
  EXPECT_NEAR(static_cast<double>(chunks_for_confidence(0.91, 0.01)), 240.0, 5.0);
  EXPECT_NEAR(static_cast<double>(chunks_for_confidence(0.99, 0.01)), 460.0, 5.0);
  EXPECT_THROW(chunks_for_confidence(1.0, 0.01), std::invalid_argument);
  EXPECT_THROW(chunks_for_confidence(0.95, 0.0), std::invalid_argument);
}

TEST(AuditMisc, ExpandChallengeDeterministicAndDistinct) {
  auto rng = SecureRng::deterministic(409);
  Challenge c = make_challenge(rng, 50);
  auto a = expand_challenge(c, 200);
  auto b = expand_challenge(c, 200);
  EXPECT_EQ(a.indices, b.indices);
  for (std::size_t i = 0; i < a.coefficients.size(); ++i) {
    EXPECT_EQ(a.coefficients[i], b.coefficients[i]);
  }
  EXPECT_EQ(a.indices.size(), 50u);
  EXPECT_THROW(expand_challenge(c, 0), std::invalid_argument);
  Challenge zero_k = c;
  zero_k.k = 0;
  EXPECT_THROW(expand_challenge(zero_k, 10), std::invalid_argument);
}

TEST(AuditMisc, HashGtIsDeterministicAndSensitive) {
  auto rng = SecureRng::deterministic(410);
  Fp12 a = Fp12::random(rng);
  Fp12 b = Fp12::random(rng);
  EXPECT_EQ(hash_gt_to_fr(a), hash_gt_to_fr(a));
  EXPECT_NE(hash_gt_to_fr(a), hash_gt_to_fr(b));
}

TEST(AuditMisc, KeygenValidatesS) {
  auto rng = SecureRng::deterministic(411);
  EXPECT_THROW(keygen(0, rng), std::invalid_argument);
  auto kp = keygen(1, rng);
  EXPECT_EQ(kp.pk.g1_alpha_powers.size(), 1u);
  auto kp50 = keygen(50, rng);
  EXPECT_EQ(kp50.pk.g1_alpha_powers.size(), 49u);
  // e(g1, epsilon) consistency.
  EXPECT_EQ(kp50.pk.e_g1_epsilon,
            ::dsaudit::pairing::pairing(curve::G1::generator(), kp50.pk.epsilon));
}

}  // namespace
}  // namespace dsaudit::audit
