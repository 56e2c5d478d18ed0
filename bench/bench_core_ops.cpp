// Google-benchmark microbenchmarks of every cryptographic building block,
// from field multiplication up to full proof verification. These are the
// constants behind all the per-figure numbers.
#include <benchmark/benchmark.h>

#include <memory>

#include "audit/serialize.hpp"
#include "bench/bench_util.hpp"
#include "field/sqrt.hpp"
#include "kzg/kzg.hpp"
#include "pairing/pairing.hpp"
#include "parallel/thread_pool.hpp"
#include "support/oracles.hpp"

using namespace dsaudit;

namespace {

primitives::SecureRng& rng() {
  static auto r = primitives::SecureRng::deterministic(51);
  return r;
}

void BM_FpMul(benchmark::State& state) {
  ff::Fp a = ff::Fp::random(rng()), b = ff::Fp::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a * b);
  }
}
BENCHMARK(BM_FpMul);

void BM_FrMul(benchmark::State& state) {
  ff::Fr a = ff::Fr::random(rng()), b = ff::Fr::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a * b);
  }
}
BENCHMARK(BM_FrMul);

void BM_FpAdd(benchmark::State& state) {
  ff::Fp a = ff::Fp::random(rng()), b = ff::Fp::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a + b);
  }
}
BENCHMARK(BM_FpAdd);

void BM_FpInverse(benchmark::State& state) {
  ff::Fp a = ff::Fp::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a.inverse() + ff::Fp::one());
  }
}
BENCHMARK(BM_FpInverse);

void BM_Fp12Mul(benchmark::State& state) {
  ff::Fp12 a = ff::Fp12::random(rng()), b = ff::Fp12::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a * b);
  }
}
BENCHMARK(BM_Fp12Mul);

void BM_G1ScalarMul(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  ff::Fr k = ff::Fr::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.mul(k));
  }
}
BENCHMARK(BM_G1ScalarMul);

/// The pre-GLV generic route: 5-bit signed wNAF over the whole 254-bit
/// scalar. BM_G1ScalarMul (above) takes the GLV half-length interleaved
/// route; the gap between the two rows is the endomorphism dividend.
void BM_G1ScalarMulWnaf(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  ff::Fr k = ff::Fr::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.mul_wnaf(k.to_u256()));
  }
}
BENCHMARK(BM_G1ScalarMulWnaf);

void BM_G1ScalarMulNaive(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  ff::Fr k = ff::Fr::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::mul_naive(p, k));
  }
}
BENCHMARK(BM_G1ScalarMulNaive);

void BM_G1FixedBaseMul(benchmark::State& state) {
  curve::g1_generator_table();  // build outside the timed region
  ff::Fr k = ff::Fr::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::g1_mul_generator(k));
  }
}
BENCHMARK(BM_G1FixedBaseMul);

void BM_HashToG1(benchmark::State& state) {
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::chunk_hash(ff::Fr::from_u64(7), ctr++));
  }
}
BENCHMARK(BM_HashToG1);

void BM_MsmG1(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<curve::G1> pts;
  std::vector<ff::Fr> sc;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(curve::g1_random(rng()));
    sc.push_back(ff::Fr::random(rng()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::msm<curve::G1>(pts, sc));
  }
}
BENCHMARK(BM_MsmG1)->Arg(50)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Pairing(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  curve::G2 q = curve::g2_random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::pairing(p, q));
  }
}
BENCHMARK(BM_Pairing);

void BM_PairingTextbook(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  curve::G2 q = curve::g2_random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::pairing_textbook(p, q));
  }
}
BENCHMARK(BM_PairingTextbook);

void BM_G2Prepare(benchmark::State& state) {
  curve::G2 q = curve::g2_random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::G2Prepared(q));
  }
}
BENCHMARK(BM_G2Prepare);

/// Pairing against a cached line table — the per-call cost a prepared
/// verifier key pays.
void BM_PairingPrepared(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  pairing::G2Prepared q(curve::g2_random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::pairing(p, q));
  }
}
BENCHMARK(BM_PairingPrepared);

void BM_FinalExp(benchmark::State& state) {
  ff::Fp12 m = pairing::miller_loop(curve::g1_random(rng()), curve::g2_random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::final_exponentiation(m));
  }
}
BENCHMARK(BM_FinalExp);

void BM_MultiPairing4(benchmark::State& state) {
  std::vector<std::pair<curve::G1, curve::G2>> pairs;
  for (int i = 0; i < 4; ++i) {
    pairs.emplace_back(curve::g1_random(rng()), curve::g2_random(rng()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::multi_pairing(pairs));
  }
}
BENCHMARK(BM_MultiPairing4);

/// The verification-equation shape: 4 Miller loops over fixed, prepared G2
/// points, lock-step squarings, one final exponentiation.
void BM_MultiPairing4Prepared(benchmark::State& state) {
  std::vector<pairing::G2Prepared> prep;
  std::vector<curve::G1> g1s;
  for (int i = 0; i < 4; ++i) {
    prep.emplace_back(curve::g2_random(rng()));
    g1s.push_back(curve::g1_random(rng()));
  }
  std::vector<pairing::PreparedPair> pairs;
  for (int i = 0; i < 4; ++i) pairs.push_back({g1s[i], &prep[i]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::multi_pairing(pairs));
  }
}
BENCHMARK(BM_MultiPairing4Prepared);

kzg::Srs& srs4096() {
  static kzg::Srs srs = kzg::make_srs(ff::Fr::random(rng()), 4096);
  return srs;
}

void BM_MakeSrs(benchmark::State& state) {
  ff::Fr alpha = ff::Fr::random(rng());
  std::size_t deg = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kzg::make_srs(alpha, deg));
  }
}
BENCHMARK(BM_MakeSrs)->Arg(256)->Arg(4096);

/// Commit through the cold MSM path (no prepared key).
void BM_KzgCommit(benchmark::State& state) {
  std::size_t deg = static_cast<std::size_t>(state.range(0));
  static kzg::Srs srs256 = kzg::make_srs(ff::Fr::random(rng()), 256);
  kzg::Srs& srs = deg <= 256 ? srs256 : srs4096();
  poly::Polynomial p = poly::Polynomial::random(deg, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kzg::commit(srs, p));
  }
}
BENCHMARK(BM_KzgCommit)->Arg(256)->Arg(4096);

/// Commit with Srs::prepare()'s shifted-base key (the production path for
/// anything that commits more than a handful of times).
void BM_KzgCommitPrepared(benchmark::State& state) {
  static kzg::Srs srs = [] {
    kzg::Srs s = srs4096();
    s.prepare();
    return s;
  }();
  std::size_t deg = static_cast<std::size_t>(state.range(0));
  poly::Polynomial p = poly::Polynomial::random(deg, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kzg::commit(srs, p));
  }
}
BENCHMARK(BM_KzgCommitPrepared)->Arg(256)->Arg(4096);

struct ProveFixture {
  benchutil::Scenario sc;
  std::unique_ptr<audit::Prover> prover;
  audit::Challenge chal;

  ProveFixture() {
    sc = benchutil::make_scenario(320 * 50 * 31, 50, rng());
    prover = std::make_unique<audit::Prover>(sc.kp.pk, sc.file, sc.tag,
                                             /*prepare_psi=*/true,
                                             /*prepare_sigma=*/true);
    chal = benchutil::make_challenge(rng(), 300);
  }
};

ProveFixture& fixture() {
  static ProveFixture f;
  return f;
}

void BM_ProveBasic_k300_s50(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.prover->prove(f.chal));
  }
}
BENCHMARK(BM_ProveBasic_k300_s50);

void BM_ProvePrivate_k300_s50(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.prover->prove_private(f.chal, rng()));
  }
}
BENCHMARK(BM_ProvePrivate_k300_s50);

/// A streaming round's prove (s = 4, k = 1): a transient Prover per
/// challenge, as NetworkSim builds under streaming retention. `cold` builds
/// no tables, so psi is a cold 3-point MSM; `shared_table` borrows the key's
/// prebuilt psi table, the one NetworkSim holds per key.
void BM_StreamingProve(benchmark::State& state, bool shared_table) {
  static const benchutil::Scenario sc =
      benchutil::make_scenario(4 * 31 * 8, 4, rng());
  static const auto table = audit::prepare_psi_table(sc.kp.pk);
  const audit::Challenge chal = benchutil::make_challenge(rng(), 1);
  for (auto _ : state) {
    const audit::Prover prover =
        shared_table ? audit::Prover(sc.kp.pk, sc.file, sc.tag, table)
                     : audit::Prover(sc.kp.pk, sc.file, sc.tag,
                                     /*prepare_psi=*/false);
    benchmark::DoNotOptimize(prover.prove(chal));
  }
}
BENCHMARK_CAPTURE(BM_StreamingProve, cold, false);
BENCHMARK_CAPTURE(BM_StreamingProve, shared_table, true);

void BM_VerifyBasic_k300(benchmark::State& state) {
  auto& f = fixture();
  auto proof = f.prover->prove(f.chal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::verify(f.sc.kp.pk, f.sc.name,
                                           f.sc.file.num_chunks(), f.chal, proof));
  }
}
BENCHMARK(BM_VerifyBasic_k300);

void BM_VerifyPrivate_k300(benchmark::State& state) {
  auto& f = fixture();
  auto proof = f.prover->prove_private(f.chal, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::verify_private(
        f.sc.kp.pk, f.sc.name, f.sc.file.num_chunks(), f.chal, proof));
  }
}
BENCHMARK(BM_VerifyPrivate_k300);

/// The production verifier: G2 line tables prepared once per public key and
/// the chunk-hash table once per file, amortized over every round (the
/// contract's steady state).
void BM_VerifyBasicPrepared_k300(benchmark::State& state) {
  auto& f = fixture();
  static audit::Verifier verifier(fixture().sc.kp.pk);
  static audit::PreparedFile file_ctx =
      audit::prepare_file(fixture().sc.name, fixture().sc.file.num_chunks());
  auto proof = f.prover->prove(f.chal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify(file_ctx, f.chal, proof));
  }
}
BENCHMARK(BM_VerifyBasicPrepared_k300);

void BM_VerifyPrivatePrepared_k300(benchmark::State& state) {
  auto& f = fixture();
  static audit::Verifier verifier(fixture().sc.kp.pk);
  static audit::PreparedFile file_ctx =
      audit::prepare_file(fixture().sc.name, fixture().sc.file.num_chunks());
  auto proof = f.prover->prove_private(f.chal, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify_private(file_ctx, f.chal, proof));
  }
}
BENCHMARK(BM_VerifyPrivatePrepared_k300);

void BM_KzgVerify(benchmark::State& state) {
  static kzg::Srs srs = kzg::make_srs(ff::Fr::random(rng()), 256);
  poly::Polynomial p = poly::Polynomial::random(200, rng());
  auto c = kzg::commit(srs, p);
  auto o = kzg::open(srs, p, ff::Fr::random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kzg::verify(srs, c, o));
  }
}
BENCHMARK(BM_KzgVerify);

void BM_KzgVerifyPrepared(benchmark::State& state) {
  static kzg::Srs srs = [] {
    kzg::Srs s = kzg::make_srs(ff::Fr::random(rng()), 256);
    s.prepare();
    return s;
  }();
  poly::Polynomial p = poly::Polynomial::random(200, rng());
  auto c = kzg::commit(srs, p);
  auto o = kzg::open(srs, p, ff::Fr::random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kzg::verify(srs, c, o));
  }
}
BENCHMARK(BM_KzgVerifyPrepared);

// ---------------------------------------------------------------------------
// Thread scaling: the same hot paths with the parallel layer pinned to 1, 2,
// 4 and 8 threads (overriding DSAUDIT_THREADS for the timed region). Results
// are identical at every width — these measure wall-clock only.
// ---------------------------------------------------------------------------

/// Pins the pool width for one benchmark run and restores the environment
/// default afterwards.
struct ThreadPin {
  explicit ThreadPin(unsigned n) { parallel::set_thread_count(n); }
  ~ThreadPin() { parallel::set_thread_count(0); }
};

void BM_MsmG1Threads(benchmark::State& state) {
  ThreadPin pin(static_cast<unsigned>(state.range(0)));
  constexpr std::size_t n = 4096;
  std::vector<curve::G1> pts;
  std::vector<ff::Fr> sc;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(curve::g1_random(rng()));
    sc.push_back(ff::Fr::random(rng()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::msm<curve::G1>(pts, sc));
  }
}
BENCHMARK(BM_MsmG1Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_MultiPairing4PreparedThreads(benchmark::State& state) {
  ThreadPin pin(static_cast<unsigned>(state.range(0)));
  std::vector<pairing::G2Prepared> prep;
  std::vector<curve::G1> g1s;
  for (int i = 0; i < 4; ++i) {
    prep.emplace_back(curve::g2_random(rng()));
    g1s.push_back(curve::g1_random(rng()));
  }
  std::vector<pairing::PreparedPair> pairs;
  for (int i = 0; i < 4; ++i) pairs.push_back({g1s[i], &prep[i]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::multi_pairing(pairs));
  }
}
BENCHMARK(BM_MultiPairing4PreparedThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_ProveBasicThreads(benchmark::State& state) {
  ThreadPin pin(static_cast<unsigned>(state.range(0)));
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.prover->prove(f.chal));
  }
}
BENCHMARK(BM_ProveBasicThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_VerifyPrivatePreparedThreads(benchmark::State& state) {
  ThreadPin pin(static_cast<unsigned>(state.range(0)));
  auto& f = fixture();
  static audit::Verifier verifier(fixture().sc.kp.pk);
  static audit::PreparedFile file_ctx =
      audit::prepare_file(fixture().sc.name, fixture().sc.file.num_chunks());
  auto proof = f.prover->prove_private(f.chal, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify_private(file_ctx, f.chal, proof));
  }
}
BENCHMARK(BM_VerifyPrivatePreparedThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Batched settlement + the cyclotomic exponentiation flavours behind it.
// ---------------------------------------------------------------------------

/// GT exponentiation by a random 254-bit scalar, plain cyclotomic ladder.
void BM_GtPowCyclotomic(benchmark::State& state) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  auto e = ff::Fr::random(rng()).to_u256();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.cyclotomic_pow_u256(e));
  }
}
BENCHMARK(BM_GtPowCyclotomic);

/// The settlement weights' shape, shared by the multi-exp and naive-ladder
/// benchmarks so their ratio (the README speedup table) always compares like
/// for like:
/// n random GT elements with dense 128-bit exponents.
std::pair<std::vector<ff::Fp12>, std::vector<ff::U256>> gt_multipow_inputs(
    std::size_t n) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  std::vector<ff::Fp12> bases(n);
  std::vector<ff::U256> exps(n);
  for (std::size_t i = 0; i < n; ++i) {
    bases[i] = g.cyclotomic_pow_u256(ff::Fr::random(rng()).to_u256());
    exps[i] = ff::U256{rng().next_u64(), rng().next_u64(), 0, 0};
  }
  return {std::move(bases), std::move(exps)};
}

/// GT multi-exponentiation through the shared-squaring engine; items/sec is
/// per-element throughput. n = 1 is the single-base path every GT power in
/// the library takes.
void BM_GtMultiPow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto [bases, exps] = gt_multipow_inputs(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ff::Fp12::multi_pow(bases, exps));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GtMultiPow)->Arg(1)->Arg(2)->Arg(8)->Arg(64);

/// The naive baseline for the same shape: n independent 128-bit ladders
/// (what verify_settlement paid per round before the multi-exp reroute).
void BM_GtMultiPowNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto [bases, exps] = gt_multipow_inputs(n);
  for (auto _ : state) {
    ff::Fp12 acc = ff::Fp12::one();
    for (std::size_t i = 0; i < n; ++i) {
      acc *= bases[i].cyclotomic_pow_u256(exps[i]);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GtMultiPowNaive)->Arg(2)->Arg(8)->Arg(64);

/// Settling `batch_size` same-key Eq. 1 rounds in one weighted check (3
/// pairings total); time is for the whole batch — divide by the argument
/// for per-round cost. bench_settlement emits the JSON trajectory.
void BM_SettleBatchBasic(benchmark::State& state) {
  auto& f = fixture();
  static audit::Verifier verifier(fixture().sc.kp.pk);
  static audit::PreparedFile file_ctx =
      audit::prepare_file(fixture().sc.name, fixture().sc.file.num_chunks());
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  static std::vector<audit::SettlementInstance> pool = [] {
    std::vector<audit::SettlementInstance> v(64);
    for (auto& inst : v) {
      inst.verifier = &verifier;
      inst.file = &file_ctx;
      inst.challenge = benchutil::make_challenge(rng(), 8);
      inst.basic = fixture().prover->prove(inst.challenge);
    }
    return v;
  }();
  std::span<const audit::SettlementInstance> batch(pool.data(), n);
  auto seed = rng().bytes32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::verify_settlement(batch, seed));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SettleBatchBasic)->Arg(1)->Arg(8)->Arg(64);

void BM_GtCompress(benchmark::State& state) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::gt_compress(g));
  }
}
BENCHMARK(BM_GtCompress);

void BM_GtDecompress(benchmark::State& state) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  auto bytes = audit::gt_compress(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::gt_decode(bytes));
  }
}
BENCHMARK(BM_GtDecompress);

void BM_Fp2Sqrt(benchmark::State& state) {
  ff::Fp2 a = ff::Fp2::random(rng()).square();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ff::sqrt(a));
  }
}
BENCHMARK(BM_Fp2Sqrt);

void BM_GtInSubgroup(benchmark::State& state) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::gt_in_subgroup(g));
  }
}
BENCHMARK(BM_GtInSubgroup);

}  // namespace

BENCHMARK_MAIN();
