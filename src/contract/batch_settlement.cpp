#include "contract/batch_settlement.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "audit/serialize.hpp"
#include "pairing/pairing.hpp"

namespace dsaudit::contract {

BatchSettlement::BatchSettlement(std::uint64_t seed_nonce)
    : nonce_rng_(primitives::SecureRng::deterministic(seed_nonce ^
                                                      0xB47C55E771E3E27FULL)) {}

void BatchSettlement::enable_aggregate_tx(econ::AuditCostModel cost) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!pending_.empty() || stats_.batches != 0) {
    throw std::logic_error(
        "BatchSettlement: enable_aggregate_tx after settlement started");
  }
  aggregate_ = true;
  cost_ = std::move(cost);
}

bool BatchSettlement::aggregate_tx_enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return aggregate_;
}

std::optional<audit::AggregateSettlement> BatchSettlement::last_aggregate()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_aggregate_;
}

std::vector<std::array<std::uint8_t, 32>> BatchSettlement::last_transcripts()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_transcripts_;
}

BatchSettlement::Ticket BatchSettlement::enqueue(
    chain::Blockchain& chain, audit::SettlementInstance instance,
    const std::array<std::uint8_t, 32>& transcript) {
  std::lock_guard<std::mutex> lock(mutex_);
  const chain::Timestamp now = chain.now();
  if (pending_.empty()) {
    // First round of a fresh window: fix the boundary every enqueue of this
    // window settles at. Boundaries are aligned multiples of the chain's
    // window, so later enqueues inside the window agree on it.
    window_deadline_ = chain.settlement_boundary(now);
  }
  if (!any_instant_ || last_instant_ != now) {
    any_instant_ = true;
    last_instant_ = now;
    ++stats_.instants;
  }
  Ticket t{current_batch_, pending_.size(), window_deadline_};
  // All rounds of one engine settle against one chain for its whole
  // lifetime: deferred flushes dereference this pointer long after the
  // enqueue that captured it, so a second chain would misdirect (or
  // dangle) the window tx. Hard invariant, not a convention.
  if (chain_ptr_ != nullptr && chain_ptr_ != &chain) {
    throw std::logic_error(
        "BatchSettlement: rounds enqueued against a different chain");
  }
  chain_ptr_ = &chain;
  pending_.push_back(std::move(instance));
  transcripts_.push_back(transcript);
  if (!hook_armed_) {
    hook_armed_ = true;
    chain.defer_until_actions([this, &chain](chain::Timestamp at) {
      std::unique_lock<std::mutex> hook_lock(mutex_);
      on_instant(chain, at, hook_lock);
    });
  }
  return t;
}

/// Runs between the prepares and the actions of every instant that touched
/// the batch (armed per instant by enqueue, and once more at the boundary by
/// the scheduled boundary task): flushes when the instant has reached the
/// window deadline, otherwise makes sure the boundary task exists so the
/// flush fires there — always before any redemption action of that instant.
void BatchSettlement::on_instant(chain::Blockchain& chain,
                                 chain::Timestamp now,
                                 std::unique_lock<std::mutex>& lock) {
  hook_armed_ = false;
  if (pending_.empty()) return;
  if (now >= window_deadline_) {
    flush(lock);
    return;
  }
  if (!boundary_armed_) {
    boundary_armed_ = true;
    // The task's prepare re-registers this hook at the boundary instant, so
    // the flush still runs after every prepare there (rounds due exactly at
    // the boundary join the window) and before every action (which redeem).
    chain.schedule(
        window_deadline_,
        [this, &chain](chain::Timestamp) {
          chain.defer_until_actions([this, &chain](chain::Timestamp at) {
            std::unique_lock<std::mutex> hook_lock(mutex_);
            on_instant(chain, at, hook_lock);
          });
        },
        [](chain::Timestamp) {});
  }
}

std::optional<BatchSettlement::Outcome> BatchSettlement::try_outcome(
    const Ticket& ticket, chain::Timestamp now) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (ticket.batch == current_batch_ && !pending_.empty() &&
      now >= window_deadline_) {
    // Direct-call path (no advance()-driven hook): settle on first demand —
    // everything due by the deadline has been enqueued by now.
    flush(lock);
  }
  wait_for_flush_locked(lock, ticket.batch);
  if (auto settled = settled_outcome_locked(ticket)) return settled;
  if (ticket.batch >= current_batch_) return std::nullopt;  // window open
  throw std::logic_error("BatchSettlement: unknown ticket");
}

BatchSettlement::Outcome BatchSettlement::outcome(const Ticket& ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (ticket.batch == current_batch_ && !pending_.empty()) {
    flush(lock);
  }
  wait_for_flush_locked(lock, ticket.batch);
  if (auto settled = settled_outcome_locked(ticket)) return *settled;
  throw std::logic_error("BatchSettlement: unknown ticket");
}

std::optional<BatchSettlement::Outcome> BatchSettlement::settled_outcome_locked(
    const Ticket& ticket) const {
  auto it = results_.find(ticket.batch);
  if (it == results_.end()) return std::nullopt;
  if (ticket.index >= it->second.ok.size()) {
    throw std::logic_error("BatchSettlement: unknown ticket");
  }
  return Outcome{it->second.ok[ticket.index], it->second.ok.size(),
                 it->second.flush_ms, it->second.aggregated,
                 it->second.fallback};
}

void BatchSettlement::wait_for_flush_locked(std::unique_lock<std::mutex>& lock,
                                            std::uint64_t batch) {
  flush_cv_.wait(lock, [&] {
    return !flush_in_progress_ || flushing_batch_ != batch;
  });
}

bool BatchSettlement::consume_weight_seed(
    const std::array<std::uint8_t, 32>& seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  return consume_weight_seed_locked(seed);
}

bool BatchSettlement::consume_weight_seed_locked(
    const std::array<std::uint8_t, 32>& seed) {
  return used_seeds_.insert(seed).second;
}

std::optional<std::array<std::uint8_t, 32>> BatchSettlement::last_weight_seed()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_seed_;
}

void BatchSettlement::flush(std::unique_lock<std::mutex>& lock) {
  if (pending_.empty()) return;
  // Snapshot the open window under the lock: batch contents, identity and
  // seed material. Enqueues racing with the verification below start the
  // next window against a fresh batch id.
  std::vector<audit::SettlementInstance> snapshot;
  snapshot.swap(pending_);
  std::vector<std::array<std::uint8_t, 32>> transcripts;
  transcripts.swap(transcripts_);
  const std::uint64_t batch_id = current_batch_++;
  const chain::Timestamp deadline = window_deadline_;
  const std::uint64_t nonce = nonce_rng_.next_u64();
  boundary_armed_ = false;

  // Canonical batch order: sort by transcript so the weight schedule and
  // results are independent of the concurrent enqueue arrival order.
  std::vector<std::size_t> perm(snapshot.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    return transcripts[a] < transcripts[b];
  });
  std::vector<audit::SettlementInstance> sorted;
  sorted.reserve(snapshot.size());
  std::vector<std::array<std::uint8_t, 32>> sorted_transcripts;
  sorted_transcripts.reserve(snapshot.size());
  for (std::size_t p : perm) {
    sorted.push_back(std::move(snapshot[p]));
    sorted_transcripts.push_back(transcripts[p]);
  }

  // Fiat–Shamir weight seed over (fresh nonce || window boundary || every
  // round's transcript): weights are fixed only after all proofs across the
  // whole window are committed, the boundary binds the seed to its window,
  // and the nonce keeps the schedule fresh even for a byte-identical batch.
  // The derivation is shared with audit::verify_settlement_aggregate, which
  // re-runs it from the posted nonce to refuse self-chosen seeds.
  const auto seed =
      audit::derive_settlement_seed(nonce, deadline, sorted_transcripts);
  if (!consume_weight_seed_locked(seed)) {
    throw std::logic_error("BatchSettlement: replayed weight seed");
  }
  last_seed_ = seed;

  // The verification itself runs unlocked: it fans out over the thread
  // pool, and the engine mutex must never wrap the pool's submit lock
  // (concurrent prepare stages enqueue from inside it). Redeemers of this
  // batch arriving meanwhile block on wait_for_flush_locked instead of
  // mis-reading the not-yet-stored result as an unknown ticket.
  const bool aggregate = aggregate_;
  chain::Blockchain* chain_ptr = chain_ptr_;
  flush_in_progress_ = true;
  flushing_batch_ = batch_id;
  lock.unlock();
  auto counters_before = pairing::pairing_counters();
  auto t0 = std::chrono::steady_clock::now();
  audit::SettlementOptions opts;
  opts.compute_aggregate_opening = aggregate;
  audit::SettlementOutcome res = audit::verify_settlement(sorted, seed, opts);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  auto counters_after = pairing::pairing_counters();

  std::optional<audit::AggregateSettlement> agg;
  std::uint64_t agg_bytes = 0, agg_gas = 0;
  if (aggregate) {
    // Post the window's one settlement tx: seed, aggregated opening, and
    // the outcome bitmap in the canonical (transcript-sorted) batch order.
    // Posting happens here — between the instant's prepares and actions —
    // so the window tx always lands on chain before any ticket redemption.
    audit::AggregateSettlement tx;
    tx.weight_seed = seed;
    tx.seed_nonce = nonce;
    tx.window_boundary = deadline;
    tx.rounds = perm.size();
    tx.opening = res.aggregated_opening;
    tx.outcomes.assign(audit::AggregateSettlement::bitmap_bytes(tx.rounds), 0);
    for (std::size_t j = 0; j < perm.size(); ++j) tx.set_outcome(j, res.ok[j]);
    const auto payload = audit::serialize(tx);
    chain::Transaction ctx;
    ctx.from = "settlement";
    ctx.description = "settle-window";
    ctx.payload_bytes = payload.size();
    ctx.gas_used = cost_.gas_per_window_tx(tx.rounds);
    agg_bytes = ctx.payload_bytes;
    agg_gas = ctx.gas_used;
    chain_ptr->submit(ctx);
    agg = std::move(tx);
  }
  lock.lock();
  last_transcripts_ = std::move(sorted_transcripts);

  BatchResult batch;
  batch.ok.assign(perm.size(), false);
  for (std::size_t j = 0; j < perm.size(); ++j) {
    batch.ok[perm[j]] = res.ok[j];
  }
  batch.flush_ms = ms;
  batch.aggregated = aggregate;
  batch.fallback = aggregate && !res.all_ok();

  stats_.batches += 1;
  stats_.rounds += perm.size();
  stats_.batch_checks += res.batch_checks;
  stats_.single_checks += res.single_checks;
  stats_.pairing_chains += counters_after.chains - counters_before.chains;
  for (bool ok : batch.ok) stats_.culprits += !ok;
  if (aggregate) {
    last_aggregate_ = std::move(agg);
    stats_.aggregate_txs += 1;
    stats_.aggregate_tx_bytes += agg_bytes;
    stats_.aggregate_tx_gas += agg_gas;
    stats_.fallback_windows += batch.fallback;
  }

  results_[batch_id] = std::move(batch);
  // Bound the redemption window: tickets are redeemed by their window
  // boundary; anything older than a few windows is an abandoned round.
  while (results_.size() > 16) results_.erase(results_.begin());
  flush_in_progress_ = false;
  flush_cv_.notify_all();
}

BatchSettlement::Stats BatchSettlement::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace dsaudit::contract
