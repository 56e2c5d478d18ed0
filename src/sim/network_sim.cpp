#include "sim/network_sim.hpp"

#include <stdexcept>
#include <utility>

#include "attack/corpus.hpp"
#include "audit/serialize.hpp"
#include "econ/cost_model.hpp"
#include "parallel/thread_pool.hpp"

namespace dsaudit::sim {

namespace {

chain::ChainConfig chain_config_for(const NetworkConfig& config) {
  chain::ChainConfig cc;
  cc.settlement_window_s = config.settlement_window_s;
  cc.retention = config.retention;
  return cc;
}

/// Per-owner data seed: streaming mode regenerates owner bytes on demand
/// from this stream instead of materializing them at deploy.
constexpr std::uint64_t kOwnerDataSeed = 0x94D049BB133111EBULL;

}  // namespace

NetworkSim::NetworkSim(NetworkConfig config)
    : config_(config),
      rng_(primitives::SecureRng::deterministic(config.rng_seed)),
      chain_(chain_config_for(config)) {
  if (config_.num_owners == 0 || config_.num_providers == 0) {
    throw std::invalid_argument("NetworkSim: need owners and providers");
  }
  if (config_.erasure_data == 0) {
    throw std::invalid_argument("NetworkSim: erasure_data must be >= 1");
  }
  auto bseed = rng_.bytes32();
  beacon_ = std::make_unique<chain::TrustedBeacon>(bseed);
  if (config_.batched_settlement) {
    batch_ = std::make_unique<contract::BatchSettlement>(config_.rng_seed);
    if (config_.aggregate_settlement) batch_->enable_aggregate_tx();
  } else if (config_.aggregate_settlement) {
    throw std::invalid_argument(
        "NetworkSim: aggregate_settlement requires batched_settlement");
  }
  for (std::size_t p = 0; p < config_.num_providers; ++p) {
    const std::string name = "provider-" + std::to_string(p);
    provider_ids_.push_back(ring_.join(name));
    provider_index_[name] = p;
  }
  adversary_.assign(config_.num_providers, nullptr);
}

void NetworkSim::set_behavior(const std::string& provider, ProviderBehavior b) {
  if (deployed_) throw std::logic_error("NetworkSim: set_behavior before deploy");
  behavior_[provider] = b;
}

void NetworkSim::set_fault_schedule(FaultSchedule schedule) {
  if (deployed_) {
    throw std::logic_error("NetworkSim: set_fault_schedule before deploy");
  }
  fault_schedule_ = std::move(schedule);
  have_faults_ = true;
  // Availability is precomputed once, before anything can run concurrently:
  // responders only ever read this immutable view.
  fault_view_ = FaultView(fault_schedule_, config_.num_providers,
                          config_.response_window_s);
}

void NetworkSim::set_adversary(
    std::size_t provider,
    std::shared_ptr<const attack::AdversaryStrategy> strategy) {
  if (deployed_) throw std::logic_error("NetworkSim: set_adversary before deploy");
  if (provider >= config_.num_providers) {
    throw std::out_of_range("NetworkSim::set_adversary: provider index");
  }
  adversary_[provider] = std::move(strategy);
  have_adversaries_ = true;
}

void NetworkSim::set_adversaries(const attack::AdversaryRoster& roster) {
  for (std::size_t p = 0;
       p < roster.by_provider.size() && p < config_.num_providers; ++p) {
    if (roster.by_provider[p]) set_adversary(p, roster.by_provider[p]);
  }
}

ProviderBehavior NetworkSim::behavior_of(const std::string& provider) const {
  if (auto it = behavior_.find(provider); it != behavior_.end()) {
    return it->second;
  }
  return ProviderBehavior::Honest;
}

const audit::Verifier& NetworkSim::shared_verifier_for(std::size_t owner) const {
  if (config_.key_pool) return *pool_verifiers_[owner % config_.key_pool];
  return *owner_verifiers_[owner];
}

std::vector<std::uint8_t> NetworkSim::owner_data_of(std::size_t owner) const {
  if (config_.retention == chain::Retention::Full) return owner_data_[owner];
  std::vector<std::uint8_t> data(config_.file_bytes);
  auto drng = primitives::SecureRng::deterministic(
      config_.rng_seed ^ (kOwnerDataSeed * (owner + 1)));
  drng.fill(data);
  return data;
}

std::vector<std::vector<std::uint8_t>> NetworkSim::owner_shards_of(
    std::size_t owner) const {
  if (config_.retention == chain::Retention::Full) return owner_shards_[owner];
  storage::ReedSolomon rs(config_.erasure_data, config_.erasure_parity);
  return rs.encode(owner_data_of(owner));
}

void NetworkSim::push_hot(std::uint32_t provider_index) {
  hot_provider_.push_back(provider_index);
  hot_flags_.push_back(kShardOk);
  hot_corruption_.push_back(static_cast<std::uint8_t>(Corruption::None));
  hot_next_due_.push_back(0);
  hot_rounds_done_.push_back(0);
}

void NetworkSim::deploy() {
  if (deployed_) throw std::logic_error("NetworkSim: already deployed");
  deployed_ = true;
  const bool streaming = config_.retention == chain::Retention::Streaming;

  std::size_t shards_per_owner = config_.erasure_data + config_.erasure_parity;
  storage::ReedSolomon rs(config_.erasure_data, config_.erasure_parity);

  if (!streaming) {
    owner_data_.reserve(config_.num_owners);
    owner_shards_.reserve(config_.num_owners);
  }
  current_dep_.assign(config_.num_owners,
                      std::vector<std::size_t>(shards_per_owner, 0));
  data_lost_.assign(config_.num_owners, false);

  // Phase 1 (sequential): everything drawn from the shared network RNG —
  // owner data (full retention; streaming derives it per owner on demand),
  // file names — plus ring placement and ledger mints, in a fixed order that
  // no pool width can disturb. Every provider is funded, placed or not: a
  // repair may open a contract with any of them.
  for (std::size_t p = 0; p < config_.num_providers; ++p) {
    chain_.mint("provider-" + std::to_string(p), 1'000'000);
  }
  // Contract freeze locks reward_per_audit * num_audits from the owner and
  // penalty_per_fail * num_audits from the provider, for every deployment,
  // all up front. The flat 1'000'000 covers that at test populations but
  // not at 10^5-10^6 owners, where Chord arc skew can put tens of
  // thousands of contracts on one provider. Owners' demand is known now;
  // providers are topped up after placement below. Both top-ups are zero
  // whenever the flat mint suffices, keeping every pinned ledger constant.
  std::vector<ProviderBehavior> behaviors;
  for (std::size_t o = 0; o < config_.num_owners; ++o) {
    std::string owner = "owner-" + std::to_string(o);
    // Premium-tier owners (premium_owner_stride) lock twice the rewards.
    const std::uint64_t owner_need = static_cast<std::uint64_t>(
        shards_per_owner * config_.reward_per_audit * config_.num_audits *
        tier_multiplier(o));
    chain_.mint(owner, std::max<std::uint64_t>(1'000'000, owner_need));
    if (!streaming) {
      std::vector<std::uint8_t> data(config_.file_bytes);
      rng_.fill(data);
      owner_shards_.push_back(rs.encode(data));
      owner_data_.push_back(std::move(data));
    }

    // Place shards on the DHT ring successors of the file key.
    auto holders =
        ring_.successors(storage::ring_hash(owner + "/archive"), shards_per_owner);

    for (std::size_t sh = 0; sh < shards_per_owner; ++sh) {
      std::string provider = *ring_.node_name(holders[sh % holders.size()]);

      auto dep = std::make_unique<Deployment>();
      dep->placement = {o, sh, provider};
      dep->name = audit::Fr::random(rng_);
      behaviors.push_back(behavior_of(provider));
      current_dep_[o][sh] = deployments_.size();
      push_hot(static_cast<std::uint32_t>(provider_index_.at(provider)));
      deployments_.push_back(std::move(dep));
    }
  }

  // Provider-side funding top-up: now that placement is fixed, mint each
  // provider up to its actual deploy-time collateral demand. Sequential and
  // placement-derived, so it is identical across retention modes and
  // thread counts.
  {
    std::vector<std::uint64_t> lock_on(config_.num_providers, 0);
    for (std::size_t i = 0; i < deployments_.size(); ++i) {
      // Per-deployment collateral, scaled by the owner's contract tier.
      lock_on[hot_provider_[i]] +=
          config_.penalty_per_fail * config_.num_audits *
          tier_multiplier(deployments_[i]->placement.owner);
    }
    for (std::size_t p = 0; p < config_.num_providers; ++p) {
      if (lock_on[p] > 1'000'000) {
        chain_.mint("provider-" + std::to_string(p), lock_on[p] - 1'000'000);
      }
    }
  }

  // Phase 2 (parallel): key generation. Each keypair comes from an RNG
  // derived from the network seed and its slot index (the same scheme as the
  // per-deployment prover RNGs), so concurrently generated keys never share
  // an RNG stream and the output is byte-identical at every DSAUDIT_THREADS
  // setting. With a key pool, owners share config_.key_pool keypairs and
  // every contract borrows one of as many shared prepared Verifiers — the
  // per-contract verifier tables are what dominate memory at 10^5+ owners.
  // Each key also gets its one prepared psi table, which every prover of the
  // key borrows read-only. Keys are sized up front: provers, verifiers and
  // contracts borrow them for their whole lifetime, so nothing may
  // reallocate underneath.
  if (config_.key_pool > 0) {
    pool_keys_.resize(config_.key_pool);
    parallel::parallel_for(config_.key_pool, [&](std::size_t k) {
      auto key_rng = primitives::SecureRng::deterministic(
          config_.rng_seed ^ (0xC2B2AE3D27D4EB4FULL * (k + 1)));
      pool_keys_[k] = audit::keygen(config_.s, key_rng);
    });
    pool_verifiers_.resize(config_.key_pool);
    psi_tables_.resize(config_.key_pool);
    parallel::parallel_for(config_.key_pool, [&](std::size_t k) {
      pool_verifiers_[k] = std::make_unique<audit::Verifier>(pool_keys_[k].pk);
      psi_tables_[k] = audit::prepare_psi_table(pool_keys_[k].pk);
    });
  } else {
    owner_keys_.resize(config_.num_owners);
    psi_tables_.resize(config_.num_owners);
    parallel::parallel_for(config_.num_owners, [&](std::size_t o) {
      auto key_rng = primitives::SecureRng::deterministic(
          config_.rng_seed ^ (0xC2B2AE3D27D4EB4FULL * (o + 1)));
      owner_keys_[o] = audit::keygen(config_.s, key_rng);
      psi_tables_[o] = audit::prepare_psi_table(owner_keys_[o].pk);
    });
    // No pool, but contracts still must not each own a verifier: share one
    // prepared verifier per owner across its shard contracts.
    owner_verifiers_.resize(config_.num_owners);
    parallel::parallel_for(config_.num_owners, [&](std::size_t o) {
      owner_verifiers_[o] = std::make_unique<audit::Verifier>(owner_keys_[o].pk);
    });
  }

  // Phase 3 (parallel): the heavy per-deployment crypto. Full retention
  // materializes everything — file encoding, failure injection on the held
  // copy, tag generation, the prover's sigma table (psi is the key's) and the
  // verifier-side per-file context — exactly as the original simulator did.
  // Streaming computes the same tags over the same Fr values but keeps only
  // the tag and the chunk count: data is regenerated and a transient prover
  // over the key's psi table built per challenge (streaming_prove), and
  // contracts verify through the cold per-round path. Whole deployments
  // shard across the pool; the primitives' own inner sharding collapses
  // inline on workers.
  std::vector<audit::PreparedFile> file_ctxs;
  if (!streaming) file_ctxs.resize(deployments_.size());
  parallel::parallel_for(deployments_.size(), [&](std::size_t i) {
    Deployment& dep = *deployments_[i];
    const std::size_t o = dep.placement.owner;
    const audit::KeyPair& kp = key_of(o);
    if (streaming) {
      auto shards = owner_shards_of(o);
      auto file = storage::encode_file(shards[dep.placement.shard], config_.s);
      dep.num_chunks = file.num_chunks();
      dep.tag = audit::generate_tags(kp.sk, kp.pk, file, dep.name,
                                     parallel::thread_count());
      if (behaviors[i] == ProviderBehavior::DropsData) {
        hot_corruption_[i] = static_cast<std::uint8_t>(Corruption::DropChunk);
      }
    } else {
      dep.file = storage::encode_file(owner_shards_[o][dep.placement.shard],
                                      config_.s);
      dep.held = dep.file;
      dep.num_chunks = dep.file.num_chunks();
      dep.tag = audit::generate_tags(kp.sk, kp.pk, dep.file, dep.name,
                                     parallel::thread_count());
      if (behaviors[i] == ProviderBehavior::DropsData) {
        for (auto& b : dep.held.chunks[0]) b = audit::Fr::zero();
        hot_corruption_[i] = static_cast<std::uint8_t>(Corruption::DropChunk);
      }
      // Contract-serving provers answer num_audits rounds: borrow the key's
      // psi table and build the per-file sigma table over the tags.
      dep.prover = std::make_unique<audit::Prover>(
          kp.pk, dep.held, dep.tag, psi_table_of(o), /*prepare_sigma=*/true);
      file_ctxs[i] = audit::prepare_file(dep.name, dep.num_chunks);
    }
  });

  // Phase 4 (sequential): contracts and their chain transactions, in
  // deployment order — addresses, tx ordering and escrow flows are chain
  // state and stay single-threaded.
  for (std::size_t i = 0; i < deployments_.size(); ++i) {
    Deployment& dep = *deployments_[i];
    if (behaviors[i] != ProviderBehavior::Unresponsive ||
        adversary_of(i) != nullptr) {
      dep.prover_rng = std::make_unique<primitives::SecureRng>(
          primitives::SecureRng::deterministic(
              config_.rng_seed ^ (0x9E3779B97F4A7C15ULL * (i + 1))));
    }
    install_contract(dep, i, config_.num_audits,
                     streaming ? std::optional<audit::PreparedFile>{}
                               : std::optional<audit::PreparedFile>(
                                     std::move(file_ctxs[i])));
    placements_.push_back(dep.placement);
  }

  // Fault events become sequential chain actions at their instants; every
  // consequence (ring departure, shard zeroing, exit, repair) runs in the
  // deterministic action phase.
  if (have_faults_) {
    for (const FaultEvent& ev : fault_schedule_.events) {
      chain_.schedule(ev.at,
                      [this, ev](chain::Timestamp now) { apply_fault(ev, now); });
    }
  }
  initial_money_ = total_money();
}

storage::EncodedFile NetworkSim::regenerate_held(std::size_t dep_index) const {
  const Deployment& dep = *deployments_[dep_index];
  // Repaired shards carry byte-identical content to the originals —
  // reconstruction equality is checked before any repair proceeds.
  auto shards = owner_shards_of(dep.placement.owner);
  storage::EncodedFile held =
      storage::encode_file(shards[dep.placement.shard], config_.s);
  switch (static_cast<Corruption>(hot_corruption_[dep_index])) {
    case Corruption::DropChunk:
      for (auto& b : held.chunks[0]) b = audit::Fr::zero();
      break;
    case Corruption::AllZero:
      for (auto& chunk : held.chunks) {
        for (auto& b : chunk) b = audit::Fr::zero();
      }
      break;
    case Corruption::None:
      break;
  }
  return held;
}

std::optional<std::vector<std::uint8_t>> NetworkSim::streaming_prove(
    std::size_t dep_index, const audit::Challenge& chal,
    primitives::SecureRng& rng) const {
  const Deployment& dep = *deployments_[dep_index];
  const std::size_t o = dep.placement.owner;
  // Prove over the regenerated held chunks through a transient prover that
  // borrows the key's psi table. Same Fr values as the materialized path;
  // nothing retained afterwards.
  const storage::EncodedFile held = regenerate_held(dep_index);
  audit::Prover prover(key_of(o).pk, held, dep.tag, psi_table_of(o));
  if (config_.private_proofs) {
    return audit::serialize(prover.prove_private(chal, rng));
  }
  return audit::serialize(prover.prove(chal));
}

attack::AdversaryContext NetworkSim::adversary_context(
    std::size_t dep_index) const {
  const Deployment& dep = *deployments_[dep_index];
  attack::AdversaryContext ctx;
  ctx.deployment = dep_index;
  ctx.provider = hot_provider_[dep_index];
  ctx.owner = dep.placement.owner;
  ctx.num_chunks = dep.num_chunks;
  const std::uint64_t mult = tier_multiplier(dep.placement.owner);
  ctx.reward_per_audit = config_.reward_per_audit * mult;
  ctx.penalty_per_fail = config_.penalty_per_fail * mult;
  ctx.num_audits = dep.contract ? dep.contract->terms().num_audits
                                : config_.num_audits;
  return ctx;
}

std::optional<std::vector<std::uint8_t>> NetworkSim::adversarial_prove(
    std::size_t dep_index, const attack::AdversaryContext& ctx,
    const attack::AdversaryStrategy& adv, const audit::Challenge& chal,
    primitives::SecureRng& rng) const {
  const auto action = adv.decide(ctx, chal);
  if (action == attack::AdversaryAction::NoAnswer) return std::nullopt;

  // The held chunks exactly as streaming_prove sees them (identical Fr
  // values in both retention modes), then — for a cheating answer — zero
  // every chunk the strategy does not actually hold: the proof fails exactly
  // when the challenge touches one.
  const Deployment& dep = *deployments_[dep_index];
  const std::size_t o = dep.placement.owner;
  storage::EncodedFile held = regenerate_held(dep_index);
  if (action == attack::AdversaryAction::CorruptProof) {
    for (std::size_t i = 0; i < held.chunks.size(); ++i) {
      if (!adv.holds_chunk(ctx, i)) {
        for (auto& b : held.chunks[i]) b = audit::Fr::zero();
      }
    }
  }
  audit::Prover prover(key_of(o).pk, held, dep.tag, psi_table_of(o));
  std::vector<std::uint8_t> bytes;
  if (config_.private_proofs) {
    if (action == attack::AdversaryAction::GrindProof) {
      // Grind the masking randomness: several VALID proofs, submit the
      // lexicographically smallest serialization (a bid to bias the batch
      // transcript and, through it, the Fiat–Shamir weight seed). The
      // grinder pays candidates-1 extra provings for it.
      const std::size_t g = std::max<std::size_t>(1, adv.grind_candidates());
      for (std::size_t c = 0; c < g; ++c) {
        auto candidate = audit::serialize(prover.prove_private(chal, rng));
        if (bytes.empty() || candidate < bytes) bytes = std::move(candidate);
      }
    } else {
      bytes = audit::serialize(prover.prove_private(chal, rng));
    }
  } else {
    // Basic proofs are deterministic — nothing to grind; the strategy
    // degenerates to an honest (valid) answer.
    bytes = audit::serialize(prover.prove(chal));
  }
  if (action == attack::AdversaryAction::MalformedProof) {
    bytes = attack::corpus::corrupt_proof(
        bytes, attack::detail::fold(chal.c1) ^ dep_index);
  }
  return bytes;
}

void NetworkSim::install_contract(Deployment& dep, std::size_t dep_index,
                                  std::uint64_t num_audits,
                                  std::optional<audit::PreparedFile> prepared) {
  const std::size_t o = dep.placement.owner;
  const bool streaming = config_.retention == chain::Retention::Streaming;
  contract::ContractTerms terms;
  terms.owner = "owner-" + std::to_string(o);
  terms.provider = dep.placement.provider;
  terms.num_audits = num_audits;
  terms.audit_period_s = config_.audit_period_s;
  terms.response_window_s = config_.response_window_s;
  const std::uint64_t tier = tier_multiplier(o);
  terms.reward_per_audit = config_.reward_per_audit * tier;
  terms.penalty_per_fail = config_.penalty_per_fail * tier;
  terms.challenged_chunks = config_.challenged_chunks;
  terms.private_proofs = config_.private_proofs;
  terms.batch_gas_discount = config_.batch_gas_discount;
  terms.timeout_retry_limit = config_.timeout_retry_limit;
  terms.slash_after_consecutive = config_.slash_after_consecutive;
  if (streaming) {
    // Bounded history: the in-flight record plus its predecessor (the round
    // scheduler reads the previous challenge instant), and a short event
    // tail. Aggregate counters stay exact regardless.
    terms.retained_rounds = 2;
    terms.retained_events = 4;
  }

  if (prepared) {
    dep.file_ctx = std::make_unique<audit::PreparedFile>(std::move(*prepared));
  }
  dep.contract = std::make_unique<contract::AuditContract>(
      chain_, *beacon_, terms, shared_verifier_for(o), dep.name, dep.num_chunks,
      dep.file_ctx.get());
  if (batch_) dep.contract->enable_deferred_settlement(*batch_);
  const attack::AdversaryStrategy* adv = adversary_of(dep_index);
  if (adv != nullptr) {
    // Byzantine responder: the strategy decides, the sim executes. Decisions
    // are pure functions of (ctx, challenge), so the concurrent prepare
    // stages here, the sequential classification in on_round below and the
    // stats_by_walk() oracle always agree on what this round was.
    const FaultView* faults = have_faults_ ? &fault_view_ : nullptr;
    primitives::SecureRng* rng = dep.prover_rng.get();
    const std::size_t pidx = hot_provider_[dep_index];
    const attack::AdversaryContext ctx = adversary_context(dep_index);
    dep.contract->set_responder(
        [this, dep_index, ctx, adv, rng, faults, pidx](
            const audit::Challenge& chal)
            -> std::optional<std::vector<std::uint8_t>> {
          if (faults && !faults->available(pidx, chain_.now())) {
            return std::nullopt;  // even adversaries sit out fault gaps
          }
          return adversarial_prove(dep_index, ctx, *adv, chal, *rng);
        });
  } else if (behavior_of(dep.placement.provider) !=
             ProviderBehavior::Unresponsive) {
    const FaultView* faults = have_faults_ ? &fault_view_ : nullptr;
    if (streaming) {
      primitives::SecureRng* rng = dep.prover_rng.get();
      const std::size_t pidx = hot_provider_[dep_index];
      dep.contract->set_responder(
          [this, dep_index, rng, faults, pidx](const audit::Challenge& chal)
              -> std::optional<std::vector<std::uint8_t>> {
            if (faults && !faults->available(pidx, chain_.now())) {
              return std::nullopt;
            }
            return streaming_prove(dep_index, chal, *rng);
          });
    } else {
      audit::Prover* prover = dep.prover.get();
      bool priv = config_.private_proofs;
      primitives::SecureRng* rng = dep.prover_rng.get();
      const std::size_t pidx = hot_provider_[dep_index];
      const chain::Blockchain* chain = &chain_;
      dep.contract->set_responder(
          [prover, priv, rng, faults, pidx, chain](const audit::Challenge& chal)
              -> std::optional<std::vector<std::uint8_t>> {
            // A challenge issued while the provider is crashed, exited or
            // inside an offline/proof-fault gap goes unanswered; the round
            // times out (and retries, if the terms allow).
            if (faults && !faults->available(pidx, chain->now())) {
              return std::nullopt;
            }
            if (priv) return audit::serialize(prover->prove_private(chal, *rng));
            return audit::serialize(prover->prove(chal));
          });
    }
  }
  // Incremental population aggregates: every terminal round folds in here,
  // so stats() never walks history (which streaming mode trims anyway).
  dep.contract->set_on_round(
      [this, dep_index, adv](const contract::RoundRecord& r) {
        if (r.outcome != contract::RoundOutcome::Aborted) {
          ++agg_.total_rounds;
          switch (r.outcome) {
            case contract::RoundOutcome::Pass: ++agg_.passes; break;
            case contract::RoundOutcome::Fail: ++agg_.fails; break;
            default: ++agg_.timeouts; break;
          }
          // Adversary bookkeeping, in the sequential action phase. The
          // strategy's decision is re-derived from the settled challenge —
          // pure, so it matches what the responder actually did.
          const bool corrupted =
              hot_corruption_[dep_index] !=
                  static_cast<std::uint8_t>(Corruption::None) ||
              behavior_of(deployments_[dep_index]->placement.provider) !=
                  ProviderBehavior::Honest;
          const attack::AdversaryAction action =
              adv ? adv->decide(adversary_context(dep_index), r.challenge)
                  : attack::AdversaryAction::Honest;
          if (adv && action != attack::AdversaryAction::Honest) {
            ++advc_.attempted;
            if (r.outcome != contract::RoundOutcome::Pass) ++advc_.detected;
          } else if (r.outcome == contract::RoundOutcome::Fail && !corrupted) {
            // An honest answer over intact data can never fail — a Fail
            // here means a penalty was misattributed to an honest round.
            ++advc_.misattributed_fails;
          }
          if (adv) {
            const auto& t = deployments_[dep_index]->contract->terms();
            if (r.outcome == contract::RoundOutcome::Pass) {
              advc_.profit += static_cast<std::int64_t>(t.reward_per_audit);
            } else {
              advc_.profit -= static_cast<std::int64_t>(t.penalty_per_fail);
            }
            // The seed-grinding adversary also attacks the settlement layer:
            // replay the last settled window's Fiat–Shamir weight seed
            // against the freshness registry. Every attempt must be refused.
            if (adv->kind() == attack::StrategyKind::SeedGrinding && batch_) {
              if (auto seed = batch_->last_weight_seed()) {
                ++advc_.replay_attempts;
                if (batch_->consume_weight_seed(*seed)) {
                  ++advc_.replays_accepted;
                }
              }
            }
          }
        }
        agg_.total_gas += r.gas_used;
        agg_.timeout_retries += r.retries;
        ++hot_rounds_done_[dep_index];
        hot_next_due_[dep_index] = r.challenged_at + config_.audit_period_s;
      });
  dep.contract->set_on_closed(
      [this, dep_index, adv](contract::CloseReason reason) {
        if (reason == contract::CloseReason::Slashed) ++churn_.slashes;
        if (reason == contract::CloseReason::ProviderExit) {
          ++churn_.provider_exits;
        }
        if (adv) {
          const auto& c = *deployments_[dep_index]->contract;
          const auto& t = c.terms();
          const std::uint64_t misses = c.fails() + c.timeouts();
          if (reason == contract::CloseReason::Slashed) {
            ++advc_.slashed;
            // Forfeited collateral: the full lock minus per-round penalties
            // already paid out (slash_and_close drains the rest to the
            // owner).
            advc_.profit -= static_cast<std::int64_t>(
                t.penalty_per_fail * (t.num_audits - misses));
          } else if (reason == contract::CloseReason::ProviderExit) {
            advc_.profit -= static_cast<std::int64_t>(
                std::min(t.penalty_per_fail,
                         t.penalty_per_fail * t.num_audits -
                             t.penalty_per_fail * misses));
          }
        }
        --open_contracts_;
        hot_next_due_[dep_index] = 0;
        if (flag(dep_index, kNeedsRepair) && !flag(dep_index, kRepairDone)) {
          schedule_repair(dep_index);
        }
      });
  ++open_contracts_;
  dep.contract->negotiated();
  dep.contract->acked(true);
  dep.contract->freeze();
}

void NetworkSim::apply_fault(const FaultEvent& ev, chain::Timestamp now) {
  // One cache-linear scan over the hot arrays; the cold Deployment is only
  // dereferenced for the handful of matches.
  auto each_live_dep = [&](auto&& fn) {
    for (std::size_t i = 0; i < deployments_.size(); ++i) {
      if (flag(i, kRetired) || hot_provider_[i] != ev.provider) continue;
      fn(i, *deployments_[i]);
    }
  };
  // A fault against a contract that already closed (or a repair deployment
  // that never needed one) still invalidates the shard: repair directly.
  auto repair_now_if_unhooked = [&](std::size_t i, Deployment& d) {
    if (!d.contract || d.contract->state() == contract::State::Closed) {
      schedule_repair(i);
    }
    // Otherwise the contract is live: it will keep missing/failing rounds
    // until slashing or expiry closes it, and on_closed triggers the repair.
  };
  switch (ev.kind) {
    case FaultKind::Crash: {
      ++churn_.crashes;
      if (ring_.contains(provider_ids_[ev.provider])) {
        ring_.leave(provider_ids_[ev.provider]);
      }
      each_live_dep([&](std::size_t i, Deployment& d) {
        clear_flag(i, kShardOk);
        set_flag(i, kNeedsRepair);
        repair_now_if_unhooked(i, d);
      });
      break;
    }
    case FaultKind::Offline: {
      ++churn_.offline_events;
      // Availability itself is served from the precomputed FaultView gap;
      // the scheduled tick is the observable rejoin (churn bookkeeping).
      chain_.schedule(now + ev.duration_s,
                      [this](chain::Timestamp) { ++churn_.rejoins; });
      break;
    }
    case FaultKind::ShardLoss: {
      ++churn_.shard_losses;
      each_live_dep([&](std::size_t i, Deployment& d) {
        clear_flag(i, kShardOk);
        set_flag(i, kNeedsRepair);
        // The provider keeps answering — over garbage: every subsequent
        // proof must fail verification. Full retention zeroes the
        // materialized held copy (the prepared prover references it);
        // streaming records the corruption and applies it at regeneration.
        hot_corruption_[i] = static_cast<std::uint8_t>(Corruption::AllZero);
        if (config_.retention == chain::Retention::Full) {
          for (auto& chunk : d.held.chunks) {
            for (auto& b : chunk) b = audit::Fr::zero();
          }
        }
        repair_now_if_unhooked(i, d);
      });
      break;
    }
    case FaultKind::DropProof:
    case FaultKind::DelayProof:
      break;  // pure availability faults, served entirely by FaultView
    case FaultKind::EarlyExit: {
      if (ring_.contains(provider_ids_[ev.provider])) {
        ring_.leave(provider_ids_[ev.provider]);
      }
      each_live_dep([&](std::size_t i, Deployment& d) {
        clear_flag(i, kShardOk);
        set_flag(i, kNeedsRepair);
        if (d.contract && (d.contract->state() == contract::State::Audit ||
                           d.contract->state() == contract::State::Prove)) {
          d.contract->provider_exit();  // close fires on_closed -> repair
        } else {
          schedule_repair(i);
        }
      });
      break;
    }
  }
}

void NetworkSim::schedule_repair(std::size_t dep_index) {
  // Runs at the current instant, after the in-flight action batch — still
  // inside the sequential action phase.
  chain_.schedule(chain_.now(), [this, dep_index](chain::Timestamp now) {
    run_repair(dep_index, now);
  });
}

void NetworkSim::declare_data_loss(std::size_t owner) {
  if (data_lost_[owner]) return;
  data_lost_[owner] = true;
  ++churn_.data_loss_events;
}

void NetworkSim::run_repair(std::size_t dep_index, chain::Timestamp now) {
  Deployment& old = *deployments_[dep_index];
  if (flag(dep_index, kRepairDone)) return;  // both close- and fault-paths
                                             // may schedule
  set_flag(dep_index, kRepairDone);
  set_flag(dep_index, kRetired);
  const std::size_t o = old.placement.owner;
  const std::size_t sh = old.placement.shard;
  const std::size_t shards_per_owner =
      config_.erasure_data + config_.erasure_parity;
  if (data_lost_[o]) return;  // shards only die; a declared loss is final

  // Owner bytes/shards: stored under full retention, regenerated from the
  // owner seed under streaming (repairs are rare — the regeneration cost is
  // one erasure encode, not a per-round cost).
  const auto odata = owner_data_of(o);
  const auto oshards = owner_shards_of(o);

  // Gather the surviving shards of this owner — sparse and indexed, through
  // the duplicate/range-checked reconstruct overload the repair path owns.
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> survivors;
  for (std::size_t j = 0; j < shards_per_owner; ++j) {
    const std::size_t di = current_dep_[o][j];
    if (flag(di, kRetired) || !flag(di, kShardOk)) continue;
    if (behavior_of(deployments_[di]->placement.provider) !=
        ProviderBehavior::Honest) {
      continue;
    }
    survivors.emplace_back(j, oshards[j]);
  }
  storage::ReedSolomon rs(config_.erasure_data, config_.erasure_parity);
  std::optional<std::vector<std::uint8_t>> rec;
  if (survivors.size() >= config_.erasure_data) {
    rec = rs.reconstruct(survivors, odata.size());
  }
  if (!rec || *rec != odata || churn_.repairs >= config_.max_repairs) {
    declare_data_loss(o);
    return;
  }

  // Replacement provider: the file key's first ring successor that is not
  // the failed holder. Crashed/exited providers have left the ring, so ring
  // membership alone certifies liveness; for a shard-loss repair the failed
  // provider is still a member and serves as the last resort.
  const std::string owner_name = "owner-" + std::to_string(o);
  std::optional<std::size_t> target;
  if (ring_.size() > 0) {
    auto cands = ring_.successors(storage::ring_hash(owner_name + "/archive"),
                                  ring_.size());
    for (auto id : cands) {
      const std::string name = *ring_.node_name(id);
      if (name != old.placement.provider) {
        target = provider_index_.at(name);
        break;
      }
    }
    if (!target &&
        ring_.contains(provider_ids_[hot_provider_[dep_index]])) {
      target = hot_provider_[dep_index];
    }
  }
  if (!target) {
    declare_data_loss(o);
    return;
  }

  ++churn_.repairs;
  const bool streaming = config_.retention == chain::Retention::Streaming;
  auto nd = std::make_unique<Deployment>();
  nd->placement = {o, sh, "provider-" + std::to_string(*target)};
  // One fresh RNG per repair, derived from the network seed and the repair
  // sequence number: the replacement file name and this prover's masking
  // randomness come from a stream no other task shares, and repairs run
  // sequentially in action order — bit-identical at every thread count.
  nd->prover_rng = std::make_unique<primitives::SecureRng>(
      primitives::SecureRng::deterministic(
          config_.rng_seed ^ (0xD1B54A32D192ED03ULL * (repair_seq_ + 1))));
  ++repair_seq_;
  nd->name = audit::Fr::random(*nd->prover_rng);
  auto shards = rs.encode(*rec);
  churn_.bytes_repaired += shards[sh].size();
  // Re-tag only the replacement shard, under its fresh name. Streaming keeps
  // the tag and chunk count; the shard bytes themselves are reproducible
  // from the owner seed (reconstruction equality was just checked), so
  // streaming_prove serves repair deployments through the same regeneration.
  auto nd_file = storage::encode_file(shards[sh], config_.s);
  nd->num_chunks = nd_file.num_chunks();
  nd->tag = audit::generate_tags(key_of(o).sk, key_of(o).pk, nd_file, nd->name,
                                 parallel::thread_count());
  std::optional<audit::PreparedFile> file_ctx;
  if (!streaming) {
    nd->file = std::move(nd_file);
    nd->held = nd->file;
    nd->prover = std::make_unique<audit::Prover>(
        key_of(o).pk, nd->held, nd->tag, psi_table_of(o),
        /*prepare_sigma=*/true);
    file_ctx = audit::prepare_file(nd->name, nd->num_chunks);
  }

  // The repair tx: the replacement shard's tag set plus the placement record
  // go on chain, priced by the econ repair row (kept out of the round-based
  // total_gas figure; NetworkStats reports it separately).
  econ::AuditCostModel cost;
  const std::size_t tag_bytes = nd->tag.sigmas.size() * 32;
  chain::Transaction tx;
  tx.from = owner_name;
  tx.description = "repair";
  tx.payload_bytes = tag_bytes + 40;
  tx.gas_used = cost.repair_gas(tag_bytes);
  chain_.submit(tx);
  churn_.repair_gas += tx.gas_used;

  // A fresh contract audits the replacement shard for whatever rounds the
  // failed one never delivered; zero left means placement-only repair.
  const std::uint64_t done =
      old.contract ? old.contract->rounds_completed() : config_.num_audits;
  const std::uint64_t remaining =
      config_.num_audits > done ? config_.num_audits - done : 0;

  const std::size_t new_index = deployments_.size();
  placements_.push_back(nd->placement);
  current_dep_[o][sh] = new_index;
  push_hot(static_cast<std::uint32_t>(*target));
  deployments_.push_back(std::move(nd));
  if (remaining > 0) {
    install_contract(*deployments_[new_index], new_index, remaining,
                     std::move(file_ctx));
  }
  (void)now;
}

void NetworkSim::run_to_completion() {
  if (!deployed_) throw std::logic_error("NetworkSim: deploy first");
  // Windowed settlement defers each round's redemption by up to one window;
  // widen the horizon accordingly (zero extra when windows are off or
  // degenerate, keeping those chains byte-identical to the unwindowed run).
  chain::Timestamp slack =
      config_.settlement_window_s > 1
          ? (config_.num_audits + 2) * config_.settlement_window_s
          : 0;
  const chain::Timestamp epoch =
      (config_.num_audits + 2) * config_.audit_period_s + slack;
  chain_.advance(epoch);
  // Fault runs open repair contracts mid-flight, and retried rounds can
  // settle past the nominal horizon: extend in bounded epochs until every
  // contract closes. Fault-free runs close inside the first epoch, so the
  // loop never perturbs them.
  std::size_t guard = config_.max_repairs + 2;
  while (!all_contracts_closed() && guard-- > 0) chain_.advance(epoch);
  if (!all_contracts_closed()) {
    // Name the stuck contracts — a truncated roster beats a blind failure
    // when 10^5 contracts ran and three wedged.
    std::size_t open = 0;
    std::string stuck;
    for (std::size_t i = 0; i < deployments_.size(); ++i) {
      const auto& c = deployments_[i]->contract;
      if (!c || c->state() == contract::State::Closed) continue;
      ++open;
      if (open <= 8) {
        stuck += " " + c->address() + " (rounds " +
                 std::to_string(c->rounds_completed()) + "/" +
                 std::to_string(c->terms().num_audits) + ", next due " +
                 std::to_string(hot_next_due_[i]) + ")";
      }
    }
    throw std::logic_error(
        "NetworkSim: " + std::to_string(open) +
        " contract(s) failed to complete within " +
        std::to_string(config_.max_repairs + 3) + " extension epochs; stuck:" +
        stuck + (open > 8 ? " ..." : ""));
  }
}

NetworkStats NetworkSim::stats() const {
  NetworkStats st;
  chain::PriceModel price;
  st.total_rounds = agg_.total_rounds;
  st.passes = agg_.passes;
  st.fails = agg_.fails;
  st.timeouts = agg_.timeouts;
  st.total_gas = agg_.total_gas;
  st.timeout_retries = agg_.timeout_retries;
  st.chain_bytes = chain_.total_chain_bytes();
  st.total_usd = price.usd(st.total_gas);
  st.crashes = churn_.crashes;
  st.offline_events = churn_.offline_events;
  st.rejoins = churn_.rejoins;
  st.shard_losses = churn_.shard_losses;
  st.slashes = churn_.slashes;
  st.provider_exits = churn_.provider_exits;
  st.repairs = churn_.repairs;
  st.bytes_repaired = churn_.bytes_repaired;
  st.data_loss_events = churn_.data_loss_events;
  st.repair_gas = churn_.repair_gas;
  st.attacks_attempted = advc_.attempted;
  st.attacks_detected = advc_.detected;
  st.attacks_slashed = advc_.slashed;
  st.seed_replays_attempted = advc_.replay_attempts;
  st.seed_replays_accepted = advc_.replays_accepted;
  st.attacker_profit = advc_.profit;
  fill_aggregate_stats(st);
  return st;
}

NetworkStats NetworkSim::stats_by_walk() const {
  if (config_.retention == chain::Retention::Streaming) {
    throw std::logic_error(
        "NetworkSim::stats_by_walk requires full retention (streaming trims "
        "the round records it would walk)");
  }
  NetworkStats st;
  chain::PriceModel price;
  for (const auto& dep : deployments_) {
    if (!dep->contract) continue;
    st.total_rounds += dep->contract->rounds_completed();
    st.passes += dep->contract->passes();
    st.fails += dep->contract->fails();
    st.timeouts += dep->contract->timeouts();
    st.timeout_retries += dep->contract->timeout_retries();
    for (const auto& r : dep->contract->rounds()) st.total_gas += r.gas_used;
  }
  st.chain_bytes = chain_.total_chain_bytes();
  st.total_usd = price.usd(st.total_gas);
  st.crashes = churn_.crashes;
  st.offline_events = churn_.offline_events;
  st.rejoins = churn_.rejoins;
  st.shard_losses = churn_.shard_losses;
  st.slashes = churn_.slashes;
  st.provider_exits = churn_.provider_exits;
  st.repairs = churn_.repairs;
  st.bytes_repaired = churn_.bytes_repaired;
  st.data_loss_events = churn_.data_loss_events;
  st.repair_gas = churn_.repair_gas;
  // Adversary counters, re-derived post hoc from the retained round records
  // by replaying every strategy decision — the differential oracle for the
  // incremental advc_ accounting above. (Replay attempts are interactions
  // with the settlement registry, not round outcomes; they have no record
  // to walk and are copied.)
  for (std::size_t i = 0; i < deployments_.size(); ++i) {
    const auto& dep = *deployments_[i];
    const attack::AdversaryStrategy* adv = adversary_of(i);
    if (!adv || !dep.contract) continue;
    const auto& c = *dep.contract;
    const auto& t = c.terms();
    const attack::AdversaryContext ctx = adversary_context(i);
    for (const auto& r : c.rounds()) {
      if (r.outcome == contract::RoundOutcome::Aborted) continue;
      if (adv->decide(ctx, r.challenge) != attack::AdversaryAction::Honest) {
        ++st.attacks_attempted;
        if (r.outcome != contract::RoundOutcome::Pass) ++st.attacks_detected;
      }
      if (r.outcome == contract::RoundOutcome::Pass) {
        st.attacker_profit += static_cast<std::int64_t>(t.reward_per_audit);
      } else {
        st.attacker_profit -= static_cast<std::int64_t>(t.penalty_per_fail);
      }
    }
    const std::uint64_t misses = c.fails() + c.timeouts();
    if (c.close_reason() == contract::CloseReason::Slashed) {
      ++st.attacks_slashed;
      st.attacker_profit -= static_cast<std::int64_t>(
          t.penalty_per_fail * (t.num_audits - misses));
    } else if (c.close_reason() == contract::CloseReason::ProviderExit) {
      st.attacker_profit -= static_cast<std::int64_t>(
          std::min(t.penalty_per_fail,
                   t.penalty_per_fail * t.num_audits -
                       t.penalty_per_fail * misses));
    }
  }
  st.seed_replays_attempted = advc_.replay_attempts;
  st.seed_replays_accepted = advc_.replays_accepted;
  fill_aggregate_stats(st);
  return st;
}

/// Aggregate-settlement telemetry comes straight from the engine's own
/// counters (the engine posts the txs, so it is the source of truth); both
/// stats() and the stats_by_walk() oracle read the same source.
void NetworkSim::fill_aggregate_stats(NetworkStats& st) const {
  if (!batch_) return;
  const auto bs = batch_->stats();
  st.aggregate_txs = bs.aggregate_txs;
  st.aggregate_tx_bytes = bs.aggregate_tx_bytes;
  st.aggregate_tx_gas = bs.aggregate_tx_gas;
  st.fallback_windows = bs.fallback_windows;
}

std::uint64_t NetworkSim::total_money() const {
  // Mint-only supply, maintained by the ledger — O(1) at any population.
  // check_invariants() cross-checks it against the explicit account walk.
  return chain_.total_supply();
}

std::vector<const contract::AuditContract*> NetworkSim::contracts_of(
    const std::string& provider) const {
  std::vector<const contract::AuditContract*> out;
  for (const auto& dep : deployments_) {
    if (dep->placement.provider == provider && dep->contract) {
      out.push_back(dep->contract.get());
    }
  }
  return out;
}

bool NetworkSim::owner_can_recover(std::size_t owner) const {
  if (owner >= config_.num_owners) {
    throw std::out_of_range("NetworkSim::owner_can_recover");
  }
  storage::ReedSolomon rs(config_.erasure_data, config_.erasure_parity);
  std::size_t shards_per_owner = config_.erasure_data + config_.erasure_parity;
  const auto odata = owner_data_of(owner);
  const auto oshards = owner_shards_of(owner);
  std::vector<std::optional<std::vector<std::uint8_t>>> available(shards_per_owner);
  for (std::size_t j = 0; j < shards_per_owner; ++j) {
    const std::size_t di = current_dep_[owner][j];
    if (flag(di, kRetired) || !flag(di, kShardOk)) continue;
    if (behavior_of(deployments_[di]->placement.provider) !=
        ProviderBehavior::Honest) {
      continue;
    }
    available[j] = oshards[j];
  }
  auto rec = rs.reconstruct(available, odata.size());
  return rec && *rec == odata;
}

bool NetworkSim::data_lost(std::size_t owner) const {
  if (owner >= config_.num_owners) {
    throw std::out_of_range("NetworkSim::data_lost");
  }
  return data_lost_[owner];
}

void NetworkSim::check_invariants() const {
  auto fail = [](const std::string& what) {
    throw std::logic_error("NetworkSim invariant violated: " + what);
  };
  if (!deployed_) fail("not deployed");
  const bool full = config_.retention == chain::Retention::Full;
  // Money conservation: rewards, penalties, slashes, exit fees and repair
  // escrows only ever move value between owners, providers and contract
  // escrow — the network total is fixed at deploy time. The walk is the
  // oracle; the ledger's O(1) supply must agree with it.
  std::uint64_t walk = 0;
  for (std::size_t o = 0; o < config_.num_owners; ++o) {
    walk += chain_.balance("owner-" + std::to_string(o));
  }
  for (std::size_t p = 0; p < config_.num_providers; ++p) {
    walk += chain_.balance("provider-" + std::to_string(p));
  }
  for (const auto& dep : deployments_) {
    if (dep->contract) walk += chain_.balance(dep->contract->address());
  }
  if (walk != initial_money_) fail("money not conserved");
  if (chain_.total_supply() != walk) {
    fail("ledger total_supply drifted from the account walk");
  }
  for (const auto& dep : deployments_) {
    if (!dep->contract) continue;
    const auto& c = *dep->contract;
    // Liveness: every contract — original or repair — reached Closed.
    if (c.state() != contract::State::Closed) {
      fail("contract still open: " + c.address());
    }
    // Exact escrow accounting: a closed contract holds nothing.
    if (c.escrow_balance() != 0) {
      fail("closed contract retains escrow: " + c.address());
    }
    // Every challenged round settled (Pass/Fail/Timeout) or was explicitly
    // aborted by a provider exit; settled count matches the round counter.
    // Served from the O(1) aggregate counters in every retention mode.
    const std::uint64_t settled = c.passes() + c.fails() + c.timeouts();
    if (settled != c.rounds_completed()) {
      fail("settled rounds != rounds_completed: " + c.address());
    }
    if (c.aborted_rounds() > 1) {
      fail("more than one aborted round: " + c.address());
    }
    if (c.aborted_rounds() > 0 &&
        c.close_reason() != contract::CloseReason::ProviderExit) {
      fail("aborted round without a provider exit: " + c.address());
    }
    if (full) {
      // Full retention keeps every record: re-derive each counter from the
      // retained history so the incremental aggregates keep their post-hoc
      // oracle.
      std::uint64_t pw = 0, fw = 0, tw = 0, aw = 0, gw = 0, rw = 0;
      for (const auto& r : c.rounds()) {
        switch (r.outcome) {
          case contract::RoundOutcome::Pass: ++pw; break;
          case contract::RoundOutcome::Fail: ++fw; break;
          case contract::RoundOutcome::Timeout: ++tw; break;
          case contract::RoundOutcome::Aborted: ++aw; break;
        }
        gw += r.gas_used;
        rw += r.retries;
      }
      if (pw != c.passes() || fw != c.fails() || tw != c.timeouts() ||
          aw != c.aborted_rounds() || gw != c.total_round_gas() ||
          rw != c.timeout_retries() ||
          c.rounds().size() != c.rounds_challenged()) {
        fail("aggregate counters diverge from round records: " + c.address());
      }
    }
  }
  if (full) {
    // Pin the incremental stats() against the original history walk.
    const NetworkStats a = stats();
    const NetworkStats w = stats_by_walk();
    if (a.total_rounds != w.total_rounds || a.passes != w.passes ||
        a.fails != w.fails || a.timeouts != w.timeouts ||
        a.total_gas != w.total_gas ||
        a.timeout_retries != w.timeout_retries) {
      fail("incremental stats diverge from stats_by_walk");
    }
    if (a.attacks_attempted != w.attacks_attempted ||
        a.attacks_detected != w.attacks_detected ||
        a.attacks_slashed != w.attacks_slashed ||
        a.attacker_profit != w.attacker_profit) {
      fail("incremental adversary counters diverge from stats_by_walk");
    }
  }
  // Bisection exactness: an honest round on uncorrupted data never fails.
  // Any Fail charged to a provider whose strategy chose Honest for that
  // challenge (and whose data the fault engine never touched) would slash
  // an innocent round — the attack engine's core safety property.
  if (advc_.misattributed_fails != 0) {
    fail("honest uncorrupted round charged as Fail (bisection over-slash)");
  }
  // Replay safety: the settlement registry must refuse every reused weight
  // seed the grinding adversary replays.
  if (advc_.replays_accepted != 0) {
    fail("settlement accepted a replayed weight seed");
  }
  // Recoverability or declared loss, per owner. Legacy behavior injection
  // (set_behavior) breaks recoverability outside the fault engine's books,
  // so the check applies only to fault-schedule-driven runs.
  bool legacy_faulty = false;
  for (const auto& [name, b] : behavior_) {
    legacy_faulty |= b != ProviderBehavior::Honest;
  }
  if (!legacy_faulty) {
    for (std::size_t o = 0; o < config_.num_owners; ++o) {
      if (!owner_can_recover(o) && !data_lost_[o]) {
        fail("owner " + std::to_string(o) + " lost data without declaration");
      }
    }
  }
  // Terminal disposition: every fault-invalidated shard was either repaired
  // or folded into a declared data loss.
  for (std::size_t i = 0; i < deployments_.size(); ++i) {
    if (flag(i, kNeedsRepair) && !flag(i, kRepairDone)) {
      fail("faulted shard never repaired or declared lost (owner " +
           std::to_string(deployments_[i]->placement.owner) + ", shard " +
           std::to_string(deployments_[i]->placement.shard) + ")");
    }
  }
}

}  // namespace dsaudit::sim
