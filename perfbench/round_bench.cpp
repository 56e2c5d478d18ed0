// The audited-round benchmark: one program, three workloads, each driven
// through the real composition (sim::NetworkSim over contract, chain, audit,
// pairing, curve, field, storage and parallel).
//
//   stream_basic    population scale: 10^3 owners on 64 providers, streaming
//                   retention, key pool 16, basic 96-B proofs, k = 1,
//                   per-instant batched settlement, 2 pool threads.
//   private_window  the paper's headline shape: 8 owners x 3 shards, full
//                   retention, private 288-B proofs, k = 8, aggregate
//                   settlement windows of 4 audit periods, 1 thread.
//   dirty_churn     private_window's shape with erasure 3+1, a fixed fault
//                   schedule and three adversarial providers: the same
//                   settlement layer on its failure path.
//
// Untraced (--trace 0) the program repeats the whole sim (setup + run) a
// fixed number of times per --seconds, each repetition on a sub-seed of
// --seed, and reports the end-to-end metrics. Traced (--trace 1) it runs the
// sim once untraced and once traced, replays the workload's rounds through
// the public layer functions under spans, probes the field/curve/pairing/
// keccak layers at the workload's sizes, and reports the per-layer metrics.
// Every run checks its outputs (invariants, verdicts, honest proofs, and
// negative controls that must be refused); any failure prints
// "correct": false and exits 1.
//
// Usage: round_bench --workload NAME --seed N --seconds S --trace 0|1
//                    [--reduced] [--trace-out FILE] [--source-rev REV]
// The last line of stdout is the JSON result.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "chain/blockchain.hpp"
#include "contract/batch_settlement.hpp"
#include "curve/g1.hpp"
#include "pairing/pairing.hpp"
#include "parallel/thread_pool.hpp"
#include "primitives/keccak256.hpp"
#include "sim/network_sim.hpp"
#include "storage/codec.hpp"
#include "storage/erasure.hpp"
#include "trace.hpp"

using namespace dsaudit;
using perfbench::Span;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 of (seed, stream): independent sub-seeds from one --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) { return perfbench::percentile(v, 50); }

/// Peak resident set of this process in MB (VmHWM), 0 without procfs.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}

// ------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  unsigned threads = 1;
  /// Wall seconds of one sim repetition on the reference machine; fixes how
  /// many repetitions one run makes for a given --seconds (a count, not a
  /// timer, so the same seed always yields the same inputs).
  double nominal_rep_s = 1;
  bool dirty = false;
  sim::NetworkConfig config;
};

// dirty_churn's roster: four faulted providers, three adversaries, and one
// provider left untouched, whose rounds must all Pass.
constexpr std::size_t kUntouchedProvider = 7;

std::optional<Workload> make_workload(const std::string& name, bool reduced) {
  Workload w;
  w.name = name;
  sim::NetworkConfig& c = w.config;
  if (name == "stream_basic") {
    w.threads = 2;
    w.nominal_rep_s = 2.6;
    c.num_owners = reduced ? 64 : 1000;
    c.num_providers = reduced ? 16 : 64;
    c.file_bytes = 124;  // one s=4 chunk (4 * 31 bytes)
    c.s = 4;
    c.erasure_data = 1;
    c.erasure_parity = 0;
    c.num_audits = reduced ? 2 : 4;
    c.challenged_chunks = 1;
    c.private_proofs = false;
    c.batched_settlement = true;
    c.batch_gas_discount = true;
    c.retention = chain::Retention::Streaming;
    c.key_pool = 16;
    return w;
  }
  if (name == "private_window" || name == "dirty_churn") {
    w.threads = 1;
    w.dirty = name == "dirty_churn";
    w.nominal_rep_s = w.dirty ? 4.4 : 3.4;
    c.num_owners = reduced ? 2 : 8;
    c.num_providers = 8;
    c.s = 10;
    c.erasure_data = 3;
    c.erasure_parity = w.dirty ? 1 : 0;
    c.file_bytes = 3 * (reduced ? 4 : 22) * 10 * 31;  // chunks per shard
    c.challenged_chunks = 8;
    c.num_audits = reduced ? 4 : 8;
    c.private_proofs = true;
    c.batched_settlement = true;
    c.settlement_window_s = 4 * c.audit_period_s;
    c.aggregate_settlement = true;
    if (w.dirty) {
      c.timeout_retry_limit = 1;
      c.slash_after_consecutive = 3;
    }
    return w;
  }
  return std::nullopt;
}

void install_dirt(sim::NetworkSim& net, const sim::NetworkConfig& c,
                  std::uint64_t seed) {
  const chain::Timestamp p = c.audit_period_s;
  sim::FaultSchedule fs;
  fs.events = {{p * 3 / 2, 2, sim::FaultKind::Offline, 2 * p},
               {p * 5 / 2, 0, sim::FaultKind::Crash, 0},
               {p * 7 / 2, 3, sim::FaultKind::ShardLoss, 0},
               {p * 9 / 2, 1, sim::FaultKind::EarlyExit, 0}};
  net.set_fault_schedule(fs);
  // Adversaries that (nearly) always cheat: each is caught and slashed
  // within its first rounds on every seed, so the share of rounds settled in
  // fallback windows (which sets gas and bytes per round) barely varies
  // between seeds. Occasional cheaters would make it a coin-flip count.
  net.set_adversary(4, std::make_shared<attack::PartialStorageStrategy>(
                           mix_seed(seed, 1), 500, true));
  net.set_adversary(5, std::make_shared<attack::ColludingStrategy>(
                           mix_seed(seed, 2), 1000));
  net.set_adversary(6, std::make_shared<attack::MalformedBytesStrategy>(
                           mix_seed(seed, 3), 1000));
}

// -------------------------------------------------------------- sim runs

struct SimRep {
  double setup_s = 0;
  double run_s = 0;
  sim::NetworkStats st;
  contract::BatchSettlement::Stats bs;
  pairing::PairingCounters pairings;  // deltas over run_to_completion
  std::uint64_t txs = 0;
  std::uint64_t wrong = 0;  // rounds with a wrong or missing verdict

  std::uint64_t gas() const {
    return st.total_gas + st.aggregate_tx_gas + st.repair_gas;
  }
};

SimRep run_sim(const Workload& w, std::uint64_t rep_seed, bool reduced,
               Tracer& tracer, std::vector<std::string>& errors) {
  SimRep r;
  sim::NetworkConfig c = w.config;
  c.rng_seed = rep_seed;
  auto t0 = Clock::now();
  sim::NetworkSim net(c);
  if (w.dirty) install_dirt(net, c, rep_seed);
  {
    Span s(tracer, "sim.deploy");
    net.deploy();
  }
  r.setup_s = secs_since(t0);
  const auto pc0 = pairing::pairing_counters();
  t0 = Clock::now();
  {
    Span s(tracer, "sim.run");
    net.run_to_completion();
  }
  r.run_s = secs_since(t0);
  const auto pc1 = pairing::pairing_counters();
  r.pairings.chains = pc1.chains - pc0.chains;
  r.pairings.final_exps = pc1.final_exps - pc0.final_exps;

  try {
    net.check_invariants();
  } catch (const std::exception& e) {
    errors.push_back(w.name + ": check_invariants: " + e.what());
  }
  r.st = net.stats();
  r.bs = net.batch_settlement()->stats();
  r.txs = net.chain().tx_count();
  if (r.st.total_rounds == 0) errors.push_back(w.name + ": no rounds settled");

  if (!w.dirty) {
    r.wrong = r.st.total_rounds - r.st.passes;
  } else {
    // Fail/Timeout verdicts caused by faults and adversaries are correct
    // outcomes (check_invariants pins that no honest round was charged);
    // the untouched provider's rounds, repairs included, must all Pass.
    const std::string p = "provider-" + std::to_string(kUntouchedProvider);
    for (const contract::AuditContract* k : net.contracts_of(p)) {
      for (const contract::RoundRecord& rec : k->rounds()) {
        r.wrong += rec.outcome != contract::RoundOutcome::Pass;
      }
    }
    // The workload exists to drive the failure path; if a change stops it
    // from doing so, the figures no longer measure what they claim.
    if (!reduced &&
        (r.st.fails == 0 || r.st.timeouts == 0 || r.st.fallback_windows == 0 ||
         r.st.repairs == 0 || r.st.slashes == 0 || r.bs.culprits == 0)) {
      errors.push_back(w.name + ": failure path not exercised");
    }
  }
  if (r.wrong) {
    errors.push_back(w.name + ": " + std::to_string(r.wrong) +
                     " rounds with a wrong verdict");
  }
  return r;
}

// ---------------------------------------------------------------- replay

// The workload's rounds driven through the public layer functions, with a
// span around each call: setup (keygen, erasure + encode, tags, prover
// tables, per-file contexts, verifiers), then per round challenge -> prove
// -> serialize -> decode, per batch seed -> settle -> aggregate verify ->
// chain submit. Same proof shape, k, batch size and (dirty) culprit share as
// the sim run. Also the home of the correctness checks on honest proofs and
// of the negative controls.
struct ReplayShape {
  bool private_proofs = true;
  bool streaming = false;
  bool windows = false;
  std::size_t s = 10, k = 8;
  std::size_t owners = 1, keys = 1;
  std::size_t erasure_data = 1, erasure_parity = 0;
  std::size_t file_bytes = 0;  // per owner
  std::size_t batch = 1;       // rounds per settlement batch
  std::size_t batches = 1;
  double culprit_share = 0;
};

struct ReplayResult {
  std::size_t rounds = 0;
  std::size_t chunks_tagged = 0;
  std::size_t txs = 0;
  std::size_t culprits = 0;
  std::size_t wrong = 0;  // honest rejected or culprit accepted
  double prove_zp_ms = 0, prove_ecc_ms = 0, prove_gt_ms = 0;  // sums
  std::vector<std::size_t> keys_in_batch;
  // Probe inputs kept from the replay (the workload's own keys).
  std::vector<audit::KeyPair> key_pairs;
  std::vector<std::string> refused;  // negative controls that were refused
};

struct ReplayDeployment {
  std::size_t owner = 0, shard = 0, key = 0;
  audit::Fr name;
  storage::EncodedFile file;  // full retention only
  audit::FileTag tag;
  std::unique_ptr<audit::Prover> prover;
  std::unique_ptr<audit::PreparedFile> ctx;
};

std::vector<std::uint8_t> owner_data(std::uint64_t seed, std::size_t owner,
                                     std::size_t bytes) {
  std::vector<std::uint8_t> data(bytes);
  auto rng = primitives::SecureRng::deterministic(mix_seed(seed, 1000 + owner));
  rng.fill(data);
  return data;
}

audit::AggregateSettlement window_tx(
    const audit::SettlementOutcome& out, std::uint64_t nonce,
    std::uint64_t boundary, const std::array<std::uint8_t, 32>& seed) {
  audit::AggregateSettlement tx;
  tx.weight_seed = seed;
  tx.seed_nonce = nonce;
  tx.window_boundary = boundary;
  tx.rounds = out.ok.size();
  tx.opening = out.aggregated_opening;
  tx.outcomes.assign(audit::AggregateSettlement::bitmap_bytes(tx.rounds), 0);
  for (std::size_t i = 0; i < out.ok.size(); ++i) tx.set_outcome(i, out.ok[i]);
  return tx;
}

ReplayResult replay(const ReplayShape& sh, std::uint64_t seed, Tracer& tracer,
                    std::vector<std::string>& errors) {
  ReplayResult res;
  auto rng = primitives::SecureRng::deterministic(mix_seed(seed, 77));

  res.key_pairs.resize(sh.keys);
  for (auto& kp : res.key_pairs) {
    Span s(tracer, "audit.keygen");
    kp = audit::keygen(sh.s, rng);
  }
  std::vector<std::unique_ptr<audit::Verifier>> verifiers;
  for (const auto& kp : res.key_pairs) {
    Span s(tracer, "audit.verifier_prep");
    verifiers.push_back(std::make_unique<audit::Verifier>(kp.pk));
  }

  const storage::ReedSolomon rs(sh.erasure_data, sh.erasure_parity);
  const std::size_t shards = sh.erasure_data + sh.erasure_parity;
  std::vector<ReplayDeployment> deps;
  deps.reserve(sh.owners * shards);
  for (std::size_t o = 0; o < sh.owners; ++o) {
    std::vector<storage::EncodedFile> files;
    {
      Span s(tracer, "storage.encode");
      auto encoded = rs.encode(owner_data(seed, o, sh.file_bytes));
      for (const auto& shard : encoded) {
        files.push_back(storage::encode_file(shard, sh.s));
      }
    }
    for (std::size_t j = 0; j < shards; ++j) {
      ReplayDeployment d;
      d.owner = o;
      d.shard = j;
      d.key = o % sh.keys;
      d.name = audit::Fr::random(rng);
      const audit::KeyPair& kp = res.key_pairs[d.key];
      {
        Span s(tracer, "audit.tag");
        d.tag = audit::generate_tags(kp.sk, kp.pk, files[j], d.name);
      }
      res.chunks_tagged += files[j].num_chunks();
      if (!sh.streaming) {
        d.file = std::move(files[j]);
        deps.push_back(std::move(d));
        ReplayDeployment& kept = deps.back();
        {
          Span s(tracer, "audit.prover_tables");
          kept.prover = std::make_unique<audit::Prover>(
              kp.pk, kept.file, kept.tag, /*prepare_psi=*/true,
              /*prepare_sigma=*/true);
        }
        Span s(tracer, "audit.prepare_file");
        kept.ctx = std::make_unique<audit::PreparedFile>(
            audit::prepare_file(kept.name, kept.file.num_chunks()));
      } else {
        deps.push_back(std::move(d));
      }
    }
  }

  chain::Blockchain chain;
  // The first batch, kept for the negative controls after the loop.
  std::vector<audit::SettlementInstance> control_insts;
  std::vector<std::array<std::uint8_t, 32>> control_transcripts;
  std::vector<bool> control_bad;
  std::uint64_t control_nonce = 0, control_boundary = 0;
  audit::SettlementInstance control_round;  // an honest round and its bytes
  std::vector<std::uint8_t> control_proof;
  std::size_t next = 0;
  for (std::size_t b = 0; b < sh.batches; ++b) {
    std::vector<audit::SettlementInstance> insts;
    std::vector<std::array<std::uint8_t, 32>> transcripts;
    std::vector<bool> corrupted;
    std::vector<std::vector<std::uint8_t>> wire;
    for (std::size_t i = 0; i < sh.batch; ++i, ++next) {
      const ReplayDeployment& d = deps[next % deps.size()];
      const audit::KeyPair& kp = res.key_pairs[d.key];
      Span round(tracer, "replay.round", next);
      audit::Challenge chal;
      chal.c1 = rng.bytes32();
      chal.c2 = rng.bytes32();
      chal.r = audit::Fr::random(rng);
      chal.k = sh.k;

      // Streaming provers hold nothing: regenerate the shard's chunks and
      // build a table-less prover per challenge, as the sim does.
      storage::EncodedFile regenerated;
      std::unique_ptr<audit::Prover> transient;
      const audit::Prover* prover = d.prover.get();
      if (sh.streaming) {
        Span s(tracer, "audit.rederive");
        auto encoded = rs.encode(owner_data(seed, d.owner, sh.file_bytes));
        regenerated = storage::encode_file(encoded[d.shard], sh.s);
        transient = std::make_unique<audit::Prover>(
            kp.pk, regenerated, d.tag, /*prepare_psi=*/false,
            /*prepare_sigma=*/false);
        prover = transient.get();
      }

      audit::ProverTimings pt;
      audit::SettlementInstance inst;
      inst.verifier = verifiers[d.key].get();
      inst.file = d.ctx.get();  // null on the streaming (cold) path
      inst.name = d.name;
      inst.num_chunks = d.tag.num_chunks;
      inst.challenge = chal;
      std::vector<std::uint8_t> bytes;
      if (sh.private_proofs) {
        audit::ProofPrivate proof;
        {
          Span s(tracer, "audit.prove");
          proof = prover->prove_private(chal, rng, &pt);
        }
        {
          Span s(tracer, "audit.serialize");
          bytes = audit::serialize(proof);
        }
        Span s(tracer, "audit.decode");
        auto dec = audit::decode_private(bytes);
        if (dec) inst.priv = *dec;
      } else {
        audit::ProofBasic proof;
        {
          Span s(tracer, "audit.prove");
          proof = prover->prove(chal, &pt);
        }
        {
          Span s(tracer, "audit.serialize");
          bytes = audit::serialize(proof);
        }
        Span s(tracer, "audit.decode");
        auto dec = audit::decode_basic(bytes);
        if (dec) inst.basic = *dec;
      }
      res.prove_zp_ms += pt.zp_ms;
      res.prove_ecc_ms += pt.ecc_ms;
      res.prove_gt_ms += pt.gt_ms;
      if (!inst.basic && !inst.priv) {
        ++res.wrong;  // an honest proof refused at the decode boundary
        continue;
      }
      // A culprit: a well-formed proof with a wrong evaluation.
      const bool bad = rng.uniform(1'000'000) <
                       static_cast<std::uint64_t>(sh.culprit_share * 1e6);
      if (bad) {
        if (inst.basic) inst.basic->y += audit::Fr::one();
        if (inst.priv) inst.priv->y_prime += audit::Fr::one();
      }
      std::vector<std::uint8_t> pre = audit::serialize(chal);
      pre.insert(pre.end(), bytes.begin(), bytes.end());
      pre.push_back(static_cast<std::uint8_t>(bad));
      transcripts.push_back(primitives::Keccak256::hash(pre));
      insts.push_back(std::move(inst));
      corrupted.push_back(bad);
      wire.push_back(std::move(bytes));
    }
    if (insts.empty()) continue;
    res.rounds += insts.size();

    // Canonical order, as the settlement engine sorts its batch.
    std::vector<std::size_t> perm(insts.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t c) {
      return transcripts[a] < transcripts[c];
    });
    std::vector<audit::SettlementInstance> sorted;
    std::vector<std::array<std::uint8_t, 32>> sorted_tr;
    std::vector<bool> sorted_bad;
    for (std::size_t p : perm) {
      sorted.push_back(insts[p]);
      sorted_tr.push_back(transcripts[p]);
      sorted_bad.push_back(corrupted[p]);
    }
    {
      std::vector<const audit::Verifier*> seen;
      for (const auto& in : sorted) {
        if (std::find(seen.begin(), seen.end(), in.verifier) == seen.end()) {
          seen.push_back(in.verifier);
        }
      }
      res.keys_in_batch.push_back(seen.size());
    }

    Span batch(tracer, "contract.batch", (1ULL << 32) | b);
    const std::uint64_t nonce = rng.next_u64();
    const std::uint64_t boundary = 14'400 * (b + 1);
    std::array<std::uint8_t, 32> wseed;
    {
      Span s(tracer, "audit.seed");
      wseed = audit::derive_settlement_seed(nonce, boundary, sorted_tr);
    }
    audit::SettlementOptions opts;
    opts.compute_aggregate_opening = sh.windows;
    audit::SettlementOutcome out;
    {
      Span s(tracer, "audit.settle");
      out = audit::verify_settlement(sorted, wseed, opts);
    }
    bool any_bad = false;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      any_bad |= sorted_bad[i];
      res.culprits += sorted_bad[i];
      if (out.ok[i] == sorted_bad[i]) ++res.wrong;
    }
    if (sh.windows) {
      const audit::AggregateSettlement tx = window_tx(out, nonce, boundary, wseed);
      Span s(tracer, "audit.aggregate_verify");
      if (!audit::verify_settlement_aggregate(sorted, sorted_tr, boundary, tx)) {
        errors.push_back("replay: an honest window tx was refused");
      }
    }
    if (b == 0) {
      control_insts = sorted;
      control_transcripts = sorted_tr;
      control_bad = sorted_bad;
      control_nonce = nonce;
      control_boundary = boundary;
      for (std::size_t i = 0; i < insts.size(); ++i) {
        if (!corrupted[i]) {
          control_round = insts[i];
          control_proof = wire[i];
          break;
        }
      }
    }

    // Chain footprint: one settle-window tx per window, plus one prove tx
    // per round wherever rounds post individually (no windows, or a window
    // that falls back because it holds a culprit).
    std::vector<chain::Transaction> txs;
    if (sh.windows) {
      chain::Transaction t;
      t.from = "settlement";
      t.description = "settle-window";
      t.payload_bytes = audit::AggregateSettlement::serialized_size_for(sorted.size());
      txs.push_back(t);
    }
    if (!sh.windows || any_bad) {
      for (const auto& w : wire) {
        chain::Transaction t;
        t.from = "provider";
        t.description = "prove";
        t.payload_bytes = w.size();
        txs.push_back(t);
      }
    }
    res.txs += txs.size();
    Span s(tracer, "chain.submit");
    for (auto& t : txs) chain.submit(std::move(t));
    while (chain.pending_count() > 0) chain.advance(15);
  }
  if (res.wrong) {
    errors.push_back("replay: " + std::to_string(res.wrong) +
                     " rounds refused at decode or settled with the wrong "
                     "verdict");
  }
  if (control_insts.empty() || control_proof.empty()) {
    errors.push_back("replay: no honest batch for the negative controls");
    return res;
  }

  // Negative controls 1 and 2 settle a tampered round at the head of an
  // otherwise honest batch, so a skipped batch check lets it through and an
  // imprecise bisection charges its honest neighbours: either fails here.
  std::vector<audit::SettlementInstance> honest;
  for (std::size_t i = 0; i < control_insts.size(); ++i) {
    if (!control_bad[i]) honest.push_back(control_insts[i]);
  }
  auto isolates_head = [&](const audit::SettlementInstance& head) {
    std::vector<audit::SettlementInstance> batch{head};
    batch.insert(batch.end(), honest.begin(), honest.end());
    const audit::SettlementOutcome out =
        audit::verify_settlement(batch, rng.bytes32());
    bool isolated = !out.ok[0];
    for (std::size_t i = 1; i < out.ok.size(); ++i) isolated &= out.ok[i];
    return isolated;
  };
  // 1: one bit of an honest proof flipped: refused at decode or settlement.
  {
    std::vector<std::uint8_t> flipped = control_proof;
    flipped[rng.uniform(flipped.size())] ^= static_cast<std::uint8_t>(
        1u << rng.uniform(8));
    audit::SettlementInstance inst = control_round;
    inst.basic.reset();
    inst.priv.reset();
    if (sh.private_proofs) {
      auto dec = audit::decode_private(flipped);
      if (dec) inst.priv = *dec;
    } else {
      auto dec = audit::decode_basic(flipped);
      if (dec) inst.basic = *dec;
    }
    if ((inst.basic || inst.priv) && !isolates_head(inst)) {
      errors.push_back("control: a proof with a flipped bit was not isolated");
    } else {
      res.refused.push_back("flipped_proof_bit");
    }
  }
  // 2: a well-formed proof with a wrong evaluation.
  {
    audit::SettlementInstance inst = control_round;
    if (inst.basic) inst.basic->y += audit::Fr::one();
    if (inst.priv) inst.priv->y_prime += audit::Fr::one();
    if (!isolates_head(inst)) {
      errors.push_back("control: a wrong evaluation was not isolated");
    } else {
      res.refused.push_back("wrong_evaluation_in_batch");
    }
  }
  // Negative control 3: a window tx under a substituted, self-chosen seed,
  // with opening and bitmap recomputed under that seed (what colluding
  // provers would post), must be refused by the seed binding alone; the
  // same tx under the derived seed must be accepted (already checked per
  // window on the windowed workloads).
  {
    audit::SettlementOptions opts;
    opts.compute_aggregate_opening = true;
    auto tx_under = [&](const std::array<std::uint8_t, 32>& wseed) {
      return window_tx(audit::verify_settlement(control_insts, wseed, opts),
                       control_nonce, control_boundary, wseed);
    };
    auto accepts = [&](const audit::AggregateSettlement& tx) {
      return audit::verify_settlement_aggregate(
          control_insts, control_transcripts, control_boundary, tx);
    };
    if (!sh.windows &&
        !accepts(tx_under(audit::derive_settlement_seed(
            control_nonce, control_boundary, control_transcripts)))) {
      errors.push_back("replay: an honest window tx was refused");
    }
    if (accepts(tx_under(rng.bytes32()))) {
      errors.push_back("control: a window tx with a substituted seed was accepted");
    } else {
      res.refused.push_back("substituted_window_seed");
    }
  }
  // Negative control 4: a unit-norm Fp12 element outside the order-r
  // subgroup (f^(p^6-1) of a random f) must be refused at the decode
  // boundary, the check that makes decode the costliest per-round call.
  {
    const ff::Fp12 f = ff::Fp12::random(rng);
    if (audit::gt_decode(audit::gt_compress(f.conjugate() * f.inverse())).ok()) {
      errors.push_back("control: a GT element outside the subgroup was decoded");
    } else {
      res.refused.push_back("gt_outside_subgroup");
    }
  }
  return res;
}

ReplayShape shape_of(const Workload& w, const SimRep& sim) {
  const sim::NetworkConfig& c = w.config;
  ReplayShape sh;
  sh.private_proofs = c.private_proofs;
  sh.streaming = c.retention == chain::Retention::Streaming;
  sh.windows = c.aggregate_settlement;
  sh.s = c.s;
  sh.k = c.challenged_chunks;
  sh.owners = c.num_owners;
  sh.keys = c.key_pool ? c.key_pool : c.num_owners;
  sh.erasure_data = c.erasure_data;
  sh.erasure_parity = c.erasure_parity;
  sh.file_bytes = c.file_bytes;
  const double per_batch = sim.bs.batches
                               ? static_cast<double>(sim.bs.rounds) /
                                     static_cast<double>(sim.bs.batches)
                               : 1.0;
  sh.batch = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(per_batch)));
  sh.culprit_share = sim.bs.rounds ? static_cast<double>(sim.bs.culprits) /
                                         static_cast<double>(sim.bs.rounds)
                                   : 0.0;
  return sh;
}

// ---------------------------------------------------------------- probes

// Layer probes at the workload's sizes; each sample is one span, so the
// latency summary and the trace file see them like any other call.
template <typename Fn>
void probe(Tracer& tracer, const char* name, std::size_t samples, Fn&& fn) {
  for (std::size_t i = 0; i < samples; ++i) {
    Span s(tracer, name);
    fn();
  }
}

// Keeps probe results observable so the work cannot be optimised away.
volatile std::uint64_t g_sink = 0;

// Operations per field-probe sample (one sample is too short to time alone).
constexpr std::size_t kMulChain = 10'000;
constexpr std::size_t kInvChain = 100;

/// The input sizes the size-dependent probes ran at.
struct ProbeSizes {
  std::size_t msm_batch = 0, gt_multi_pow = 0, pairing_terms = 0;
};

ProbeSizes run_probes(Tracer& tracer, const ReplayShape& sh,
                      const ReplayResult& rr, std::uint64_t seed) {
  auto rng = primitives::SecureRng::deterministic(mix_seed(seed, 99));
  ProbeSizes sizes;
  {
    ff::Fp a = ff::Fp::random(rng), b = ff::Fp::random(rng);
    probe(tracer, "probe.fp_mul", 50, [&] {
      for (std::size_t i = 0; i < kMulChain; ++i) a = a * b;
    });
    probe(tracer, "probe.fp_inv", 50, [&] {
      for (std::size_t i = 0; i < kInvChain; ++i) a = (a + b).inverse();
    });
    g_sink = g_sink + a.to_u256().limb[0];
    ff::Fr x = ff::Fr::random(rng), y = ff::Fr::random(rng);
    probe(tracer, "probe.fr_mul", 50, [&] {
      for (std::size_t i = 0; i < kMulChain; ++i) x = x * y;
    });
    g_sink = g_sink + x.to_u256().limb[0];
  }
  {
    curve::G1 p = curve::g1_random(rng);
    probe(tracer, "probe.g1_mul", 100, [&] { p = p.mul(ff::Fr::random(rng)); });
    auto msm_at = [&](const char* name, std::size_t n, std::size_t samples) {
      std::vector<curve::G1> pts(n);
      std::vector<ff::Fr> sc(n);
      for (std::size_t i = 0; i < n; ++i) {
        pts[i] = curve::g1_random(rng);
        sc[i] = ff::Fr::random(rng);
      }
      probe(tracer, name, samples, [&] {
        p = p + curve::msm<curve::G1>(pts, sc);
      });
    };
    msm_at("probe.msm_k", sh.k, 100);
    sizes.msm_batch = sh.batch;
    msm_at("probe.msm_batch", sh.batch, 40);
    std::array<std::uint8_t, 40> msg{};
    probe(tracer, "probe.hash_to_g1", 200, [&] {
      rng.fill(msg);
      p = p + curve::hash_to_g1(msg);
    });
    g_sink = g_sink + p.is_infinity();
  }
  {
    // 1 + 2·keys prepared terms: the settlement multi-pairing of one batch
    // with as many distinct keys as the replay's batches held.
    std::size_t keys = 1;
    if (!rr.keys_in_batch.empty()) {
      std::vector<double> k(rr.keys_in_batch.begin(), rr.keys_in_batch.end());
      keys = static_cast<std::size_t>(std::lround(median(k)));
    }
    keys = std::min(keys, rr.key_pairs.size());
    std::vector<std::unique_ptr<audit::Verifier>> vs;
    for (std::size_t i = 0; i < keys; ++i) {
      vs.push_back(std::make_unique<audit::Verifier>(rr.key_pairs[i].pk));
    }
    std::vector<pairing::PreparedPair> terms;
    terms.push_back({curve::g1_random(rng), &vs[0]->prepared_g2()});
    for (const auto& v : vs) {
      terms.push_back({curve::g1_random(rng), &v->prepared_epsilon()});
      terms.push_back({curve::g1_random(rng), &v->prepared_delta()});
    }
    sizes.pairing_terms = terms.size();
    ff::Fp12 acc = ff::Fp12::one();
    probe(tracer, "probe.multi_pairing", 30,
          [&] { acc = acc * pairing::multi_pairing(terms); });
    const ff::Fp12 ml = pairing::miller_loop(curve::g1_random(rng),
                                              rr.key_pairs[0].pk.epsilon);
    probe(tracer, "probe.final_exp", 50,
          [&] { acc = acc * pairing::final_exponentiation(ml); });
    const ff::Fp12 gt = rr.key_pairs[0].pk.e_g1_epsilon;
    bool in = true;
    probe(tracer, "probe.gt_subgroup", 50,
          [&] { in = in && pairing::gt_in_subgroup(gt); });
    if (!in) std::fprintf(stderr, "probe: GT generator failed the subgroup check\n");
    // Batch-sized GT multi-exponentiation with 128-bit weights (the private
    // settlement's R^rho fold).
    const std::size_t n = std::min<std::size_t>(sh.batch, 64);
    sizes.gt_multi_pow = n;
    std::vector<ff::Fp12> bases(n);
    std::vector<ff::U256> exps(n);
    for (std::size_t i = 0; i < n; ++i) {
      bases[i] = gt.cyclotomic_pow_u256(ff::Fr::random(rng).to_u256());
      exps[i] = ff::U256(rng.next_u64(), rng.next_u64(), 0, 0);
    }
    probe(tracer, "probe.gt_multi_pow", 20,
          [&] { acc = acc * ff::Fp12::multi_pow(bases, exps); });
    g_sink = g_sink + acc.is_one();
  }
  {
    std::vector<std::uint8_t> buf(1024);
    rng.fill(buf);
    probe(tracer, "probe.keccak_1k", 500, [&] {
      auto h = primitives::Keccak256::hash(buf);
      buf[0] = h[0];
    });
  }
  return sizes;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool na = false;  // the layer does not run on this workload
};

std::string cpu_field(const std::string& key) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

void print_fingerprint(const std::string& source_rev) {
  const std::string flags = " " + cpu_field("flags") + " ";
  auto has = [&](const char* f) {
    return flags.find(std::string(" ") + f + " ") != std::string::npos;
  };
  std::printf(
      "fingerprint {\"cpu\": \"%s\", \"nproc\": %ld, \"bmi2\": %s, \"adx\": %s, "
      "\"avx512ifma\": %s, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"source_rev\": \"%s\", \"pool_width\": %u}\n",
      json_escape(cpu_field("model name")).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      has("bmi2") ? "true" : "false", has("adx") ? "true" : "false",
      has("avx512ifma") ? "true" : "false", PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      json_escape(source_rev).c_str(), parallel::thread_count());
}

void print_refused(const ReplayResult& rr) {
  for (const std::string& c : rr.refused) {
    std::printf("control %s refused\n", c.c_str());
  }
}

void print_latency(const std::string& name, const std::vector<double>& ms) {
  const perfbench::LatencySummary s = perfbench::summarize(ms);
  std::printf("latency %-26s p50 %.4f ms  %s %.4f ms  n %zu\n", name.c_str(),
              s.p50, s.tail_label.c_str(), s.tail, s.n);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.na) {
      std::printf("metric %-32s n/a (layer idle on this workload) %s\n",
                  m.name.c_str(), m.unit.c_str());
    } else {
      std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double safe_div(double a, double b) { return b != 0 ? a / b : 0.0; }

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool reduced = false;
  std::string trace_out;
  std::string source_rev = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
      have_workload = true;
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else if (k == "--source-rev" && has_value) {
      a.source_rev = argv[++i];
    } else if (k == "--reduced") {
      a.reduced = true;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !(a.seconds > 0)) return std::nullopt;
  return a;
}

int run(const Args& args) {
  const std::optional<Workload> wl = make_workload(args.workload, args.reduced);
  if (!wl) {
    std::fprintf(stderr, "round_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  parallel::set_thread_count(w.threads);
  print_fingerprint(args.source_rev);
  std::printf("workload %s seed %llu seconds %g trace %d%s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.reduced ? " (reduced)" : "");

  std::vector<std::string> errors;
  Tracer off;  // never enabled: the untraced paths
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;

  if (!args.trace) {
    // Correctness controls first (they also warm lazily built tables), on
    // the workload's own shape with a short batch; then the measured reps.
    {
      ReplayShape sh = shape_of(w, SimRep{});
      sh.owners = std::min<std::size_t>(sh.owners, 2);
      sh.keys = std::min<std::size_t>(sh.keys, 2);
      sh.batch = 8;
      const ReplayResult rr = replay(sh, args.seed, off, errors);
      attempted += rr.rounds;
      failed += rr.wrong;
      print_refused(rr);
    }
    const std::size_t reps = std::max<std::size_t>(
        3, static_cast<std::size_t>(std::lround(args.seconds / w.nominal_rep_s)));
    std::vector<double> setup_s;
    double bytes = 0, gas = 0, rounds = 0, run_s = 0;
    const auto measure_t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      // On a machine far slower than the reference, stop early rather than
      // overrun the run's time budget (never below three repetitions).
      if (r >= 3 && secs_since(measure_t0) > 1.5 * args.seconds) {
        std::printf("stopping after %zu of %zu repetitions: over time budget\n",
                    r, reps);
        break;
      }
      const SimRep rep =
          run_sim(w, mix_seed(args.seed, r), args.reduced, off, errors);
      setup_s.push_back(rep.setup_s);
      run_s += rep.run_s;
      bytes += static_cast<double>(rep.st.chain_bytes);
      gas += static_cast<double>(rep.gas());
      rounds += static_cast<double>(rep.st.total_rounds);
      attempted += rep.st.total_rounds;
      failed += rep.wrong;
      std::printf("rep %zu seed %llu setup_s %.4f run_s %.4f rounds %llu "
                "chain_bytes %zu gas %llu\n",
                r, static_cast<unsigned long long>(mix_seed(args.seed, r)),
                rep.setup_s, rep.run_s,
                static_cast<unsigned long long>(rep.st.total_rounds),
                rep.st.chain_bytes, static_cast<unsigned long long>(rep.gas()));
    }
    metrics = {
        {"rounds_per_s", safe_div(rounds, run_s), "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"chain_bytes_per_round", safe_div(bytes, rounds), "B"},
        {"gas_per_round", safe_div(gas, rounds), "gas"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("metric %-32s %.6g share (= failed / attempted)\n",
                "failed_round_share",
                safe_div(static_cast<double>(failed), static_cast<double>(attempted)));
  } else {
    Tracer tracer;
    const std::uint64_t rep_seed = mix_seed(args.seed, 0);
    const SimRep plain = run_sim(w, rep_seed, args.reduced, off, errors);
    tracer.set_enabled(true);
    const SimRep traced = run_sim(w, rep_seed, args.reduced, tracer, errors);
    const double traced_deploy_s = tracer.total_ms("sim.deploy") / 1000.0;
    const double traced_run_s = tracer.total_ms("sim.run") / 1000.0;
    attempted += plain.st.total_rounds + traced.st.total_rounds;
    failed += plain.wrong + traced.wrong;

    // From here on everything runs on one thread: the multi-threaded
    // workload's sim once more (for the parallel efficiency), then the
    // replay and the probes, whose per-call timings are single-core costs.
    parallel::set_thread_count(1);
    std::optional<double> efficiency;
    double single_run_s = plain.run_s;
    if (w.threads > 1) {
      const SimRep single = run_sim(w, rep_seed, args.reduced, off, errors);
      attempted += single.st.total_rounds;
      failed += single.wrong;
      single_run_s = single.run_s;
      efficiency = safe_div(
          safe_div(static_cast<double>(plain.st.total_rounds), plain.run_s),
          w.threads * safe_div(static_cast<double>(single.st.total_rounds),
                               single.run_s));
    }

    ReplayShape sh = shape_of(w, plain);
    // Enough batches for stable per-call summaries, bounded in wall time.
    sh.batches = sh.streaming ? (args.reduced ? 2 : 4) : (args.reduced ? 2 : 8);
    const auto rt0 = Clock::now();
    const ReplayResult rr = replay(sh, args.seed, tracer, errors);
    const double replay_s = secs_since(rt0);
    attempted += rr.rounds;
    failed += rr.wrong;
    print_refused(rr);
    const ProbeSizes sizes = run_probes(tracer, sh, rr, args.seed);

    const double rounds = static_cast<double>(plain.st.total_rounds);
    const double rr_rounds = static_cast<double>(std::max<std::size_t>(rr.rounds, 1));
    // The sim's own round pipeline: everything the replay times except the
    // external check of the window tx, which no contract runs.
    const double pipeline_ms = tracer.total_ms("replay.round") +
                               tracer.total_ms("contract.batch") -
                               tracer.total_ms("audit.aggregate_verify");
    auto med = [&](const char* span) { return median(tracer.durations_ms(span)); };
    auto lat = [&](const char* span) {
      return perfbench::summarize(tracer.durations_ms(span));
    };
    const perfbench::LatencySummary prove = lat("audit.prove");
    const perfbench::LatencySummary decode = lat("audit.decode");
    const bool gt_layer = sh.private_proofs;

    metrics = {
        {"sim.deploy_s", traced_deploy_s, "s"},
        {"sim.run_s", traced_run_s, "s"},
        {"sim.trace_overhead", safe_div(traced_run_s, plain.run_s) - 1.0, "ratio"},
        {"sim.overhead_us_per_round",
         safe_div(single_run_s * 1e6, rounds) - pipeline_ms * 1000.0 / rr_rounds,
         "us"},
        {"audit.keygen_ms", med("audit.keygen"), "ms"},
        {"audit.tag_us_per_chunk",
         safe_div(tracer.total_ms("audit.tag") * 1000.0,
                  static_cast<double>(rr.chunks_tagged)),
         "us"},
        {"audit.prover_tables_ms", med("audit.prover_tables"), "ms", sh.streaming},
        {"audit.prepare_file_ms", med("audit.prepare_file"), "ms", sh.streaming},
        {"audit.verifier_prep_ms", med("audit.verifier_prep"), "ms"},
        {"audit.prove_ms_p50", prove.p50, "ms"},
        {"audit.prove_ms_tail", prove.tail, "ms"},
        {"audit.prove.zp_ms", rr.prove_zp_ms / rr_rounds, "ms"},
        {"audit.prove.ecc_ms", rr.prove_ecc_ms / rr_rounds, "ms"},
        {"audit.prove.gt_ms", rr.prove_gt_ms / rr_rounds, "ms", !gt_layer},
        {"audit.serialize_us", med("audit.serialize") * 1000.0, "us"},
        {"audit.decode_ms_p50", decode.p50, "ms"},
        {"audit.decode_ms_tail", decode.tail, "ms"},
        {"audit.settle_ms_per_round", tracer.total_ms("audit.settle") / rr_rounds,
         "ms"},
        {"audit.seed_us", med("audit.seed") * 1000.0, "us"},
        {"audit.aggregate_verify_ms", med("audit.aggregate_verify"), "ms",
         !sh.windows},
        {"contract.rounds_per_batch",
         safe_div(static_cast<double>(plain.bs.rounds),
                  static_cast<double>(plain.bs.batches)),
         "rounds"},
        {"contract.checks_per_round",
         safe_div(static_cast<double>(plain.bs.batch_checks + plain.bs.single_checks),
                  static_cast<double>(plain.bs.rounds)),
         "checks"},
        {"contract.culprit_share",
         safe_div(static_cast<double>(plain.bs.culprits),
                  static_cast<double>(plain.bs.rounds)),
         "ratio"},
        {"contract.fallback_window_share",
         safe_div(static_cast<double>(plain.bs.fallback_windows),
                  static_cast<double>(plain.bs.aggregate_txs)),
         "ratio", !sh.windows},
        {"pairing.chains_per_round",
         safe_div(static_cast<double>(plain.pairings.chains), rounds), "count"},
        {"pairing.final_exps_per_round",
         safe_div(static_cast<double>(plain.pairings.final_exps), rounds), "count"},
        {"pairing.multi_pairing_us", med("probe.multi_pairing") * 1000.0, "us"},
        {"pairing.final_exp_us", med("probe.final_exp") * 1000.0, "us"},
        {"pairing.gt_subgroup_ms", med("probe.gt_subgroup"), "ms"},
        {"pairing.gt_multi_pow_ms", med("probe.gt_multi_pow"), "ms"},
        {"curve.g1_mul_us", med("probe.g1_mul") * 1000.0, "us"},
        {"curve.msm_k_us", med("probe.msm_k") * 1000.0, "us"},
        {"curve.msm_batch_us", med("probe.msm_batch") * 1000.0, "us"},
        {"curve.hash_to_g1_us", med("probe.hash_to_g1") * 1000.0, "us"},
        {"field.fp_mul_ns", med("probe.fp_mul") * 1e6 / kMulChain, "ns"},
        {"field.fp_inv_ns", med("probe.fp_inv") * 1e6 / kInvChain, "ns"},
        {"field.fr_mul_ns", med("probe.fr_mul") * 1e6 / kMulChain, "ns"},
        {"primitives.keccak_1k_us", med("probe.keccak_1k") * 1000.0, "us"},
        {"storage.encode_ms", med("storage.encode"), "ms"},
        {"chain.submit_us",
         safe_div(tracer.total_ms("chain.submit") * 1000.0,
                  static_cast<double>(rr.txs)),
         "us"},
        {"chain.txs_per_round", safe_div(static_cast<double>(plain.txs), rounds),
         "count"},
        {"parallel.efficiency", efficiency.value_or(0.0), "ratio",
         !efficiency.has_value()},
    };
    for (Metric& m : metrics) {
      if (m.na) m.value = 0;
    }

    std::printf("sizes: replay %zu rounds in %zu batches of %zu (%.2f s), "
                "msm_batch n=%zu, gt_multi_pow n=%zu, multi_pairing terms=%zu, "
                "replay culprits %zu\n",
                rr.rounds, sh.batches, sh.batch, replay_s, sizes.msm_batch,
                sizes.gt_multi_pow, sizes.pairing_terms, rr.culprits);
    std::printf("tracing overhead: sim.run_s traced %.4f s vs untraced %.4f s\n",
                traced_run_s, plain.run_s);
    std::printf("per span: latency summary (ms) and self time:\n");
    for (const auto& [name, t] : tracer.self_times()) {
      print_latency(name, tracer.durations_ms(name));
      std::printf("  %-26s count %7zu  total %12.3f ms  self %12.3f ms\n", "",
                  t.count, t.total_ms, t.self_ms);
    }
    if (!args.trace_out.empty() && !tracer.write_json(args.trace_out)) {
      errors.push_back("could not write trace file " + args.trace_out);
    }
  }

  for (const std::string& e : errors) std::printf("ERROR %s\n", e.c_str());
  const bool correct = errors.empty() && failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: round_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--reduced] [--trace-out FILE] "
                 "[--source-rev REV]\n");
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "round_bench: %s\n", e.what());
    return 1;
  }
}
