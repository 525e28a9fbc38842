// RoundRunner — the one implementation of §III-A multi-round processing.
//
// A pipeline's entry point is reduced to: validate the config, construct a
// RoundRunner (which collectively agrees on the round count), optionally do
// per-job setup (e.g. the supermer pipeline's frequency-balanced routing
// table — built once per job, *after* the round planning collective, so the
// ledger deltas match the pre-framework pipelines bit for bit), and hand
// `run_stages()` the pipeline's round, described once as a Stages struct
// (parse / post / receive / count). The runner splits the rank's reads into
// base-balanced sub-batches and drives the stages over every round in the
// schedule PipelineConfig::overlap_rounds selects — lockstep, or with each
// round's exchange in flight while the next round parses — folds each
// round's ledger into the total, and derives the final table-dependent
// fields.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "dedukt/core/config.hpp"
#include "dedukt/core/exchange_plan.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/mpisim/comm.hpp"

namespace dedukt::core {

/// §III-A: "Depending on the total size of the input, relative to software
/// limits (approximating available memory), the computation and
/// communication may proceed in multiple rounds." All ranks must agree on
/// the round count, so the per-rank requirement is maximized collectively.
inline std::uint64_t plan_rounds(mpisim::Comm& comm,
                                 const io::ReadBatch& reads, int k,
                                 std::uint64_t max_kmers_per_round) {
  if (max_kmers_per_round == 0) return 1;  // unlimited memory
  std::uint64_t local = 0;
  for (const auto& read : reads.reads) {
    local += kmer::count_kmers(read.bases, k);
  }
  const std::uint64_t mine =
      std::max<std::uint64_t>(1, (local + max_kmers_per_round - 1) /
                                     max_kmers_per_round);
  return comm.allreduce(mine, mpisim::ReduceOp::kMax);
}

/// Fold one round's metrics into the running total (work counts and phase
/// times add; table-derived fields are set by RoundRunner at the end).
inline void accumulate_round(RankMetrics& total, const RankMetrics& round) {
  total.reads += round.reads;
  total.bases += round.bases;
  total.kmers_parsed += round.kmers_parsed;
  total.supermers_built += round.supermers_built;
  total.supermer_bases += round.supermer_bases;
  total.kmers_received += round.kmers_received;
  total.supermers_received += round.supermers_received;
  total.bytes_sent += round.bytes_sent;
  total.bytes_received += round.bytes_received;
  total.intra_node_bytes += round.intra_node_bytes;
  total.inter_node_bytes += round.inter_node_bytes;
  total.measured.merge(round.measured);
  total.modeled.merge(round.modeled);
  total.modeled_volume.merge(round.modeled_volume);
  total.modeled_alltoallv_seconds += round.modeled_alltoallv_seconds;
  total.modeled_alltoallv_volume_seconds +=
      round.modeled_alltoallv_volume_seconds;
  total.overlap_saved_seconds += round.overlap_saved_seconds;
  total.spill_bytes_written += round.spill_bytes_written;
  total.spill_bytes_read += round.spill_bytes_read;
  // Peak footprint folds by MAX: the batches/bins were resident one at a
  // time, not simultaneously.
  total.peak_resident_bytes =
      std::max(total.peak_resident_bytes, round.peak_resident_bytes);
}

/// How a pipeline's exchange stage touches the device: which device stages
/// the buffers (null for host-only pipelines), whether staging is priced
/// (ExchangeMode::kStaged), and the constant exchange-phase overhead.
struct ExchangeSpec {
  gpusim::Device* device = nullptr;
  bool staged = false;
  double overhead_seconds = 0.0;
};

/// One lockstep exchange phase: `post(plan)` stages the payload out and runs
/// the blocking collective(s), `stages.receive` collects the result and
/// stages it in, and the phase commits the full exchange charge. Lockstep
/// rounds and out-of-core pass 2 both run it.
template <typename Stages, typename Post>
typename Stages::Received lockstep_exchange(mpisim::Comm& comm,
                                            const ExchangeSpec& spec,
                                            bool hierarchical, Stages& stages,
                                            RankMetrics& metrics,
                                            Post&& post) {
  PhaseScope phase(metrics, kPhaseExchange);
  ExchangePlan plan(comm, spec.device, spec.staged, hierarchical);
  typename Stages::Received received =
      stages.receive(post(plan), plan, metrics);
  phase.commit_exchange(plan, spec.overhead_seconds);
  return received;
}

class RoundRunner {
 public:
  /// Plans the round count — a collective: every rank must construct its
  /// runner at the same point in the pipeline.
  RoundRunner(mpisim::Comm& comm, const io::ReadBatch& reads,
              const PipelineConfig& config)
      : reads_(reads),
        rounds_(plan_rounds(comm, reads, config.k,
                            config.max_kmers_per_round)),
        overlap_(config.overlap_rounds),
        hierarchical_(config.hierarchical_exchange) {}

  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  /// The collectively-agreed round count.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Run `run_single` once per round (on the whole batch when everything
  /// fits in one round), accumulate the per-round ledgers on top of
  /// `setup`, and derive the table-dependent totals from `table`.
  ///
  /// `run_single` is invoked as `RankMetrics(const io::ReadBatch&)`; all
  /// ranks execute their rounds in lockstep, accumulating into the same
  /// local table.
  template <typename Table, typename RunSingle>
  [[nodiscard]] RankMetrics run(Table& table, RunSingle&& run_single,
                                RankMetrics setup = RankMetrics{}) const {
    RankMetrics total = std::move(setup);
    if (rounds_ == 1) {
      accumulate_round(total, run_single(reads_));
    } else {
      const std::vector<io::ReadBatch> round_batches =
          io::partition_by_bases(reads_, static_cast<int>(rounds_));
      for (const io::ReadBatch& batch : round_batches) {
        accumulate_round(total, run_single(batch));
      }
    }
    total.unique_kmers = table.unique();
    total.counted_kmers = table.total();
    return total;
  }

  /// Drive the pipeline's round over every round. `stages` describes one
  /// round as
  ///   Parsed parse(const io::ReadBatch&, RankMetrics&) — the parse
  ///       phase(s);
  ///   Pending post(Parsed, ExchangePlan&, RankMetrics&) — stage_out plus
  ///       ExchangePlan::post(s);
  ///   Received receive(Pending, ExchangePlan&, RankMetrics&) — wait(s)
  ///       plus stage_in(s);
  ///   void count(Received, RankMetrics&) — the count phase;
  /// (the struct must declare those three member types; each stage owns
  /// and releases its input). In lockstep one exchange phase per round
  /// holds post and receive, and post runs the blocking collectives. With
  /// overlap_rounds, while round r's ialltoallv is in flight round r+1
  /// parses and posts into the second slot of a double buffer. Parse and
  /// count run the same operations in the same round order against the
  /// same table either way, so spectra and work counts stay bit-identical;
  /// only the exchange phase's modeled charge changes — the routine's
  /// overlappable share hides behind the next round's parse
  /// (NetworkModel::overlapped_seconds), and the hidden share is recorded
  /// as RankMetrics::overlap_saved_seconds instead of being spent.
  template <typename Table, typename Stages>
  [[nodiscard]] RankMetrics run_stages(
      mpisim::Comm& comm, const ExchangeSpec& spec, Table& table,
      Stages& stages, RankMetrics setup = RankMetrics{}) const {
    if (overlap_) {
      return run_overlapped(comm, spec, table, stages, std::move(setup));
    }
    return run(
        table,
        [&](const io::ReadBatch& batch) {
          RankMetrics metrics;
          auto parsed = parse(stages, batch, metrics);
          auto received = lockstep_exchange(
              comm, spec, hierarchical_, stages, metrics,
              [&](ExchangePlan& plan) {
                return stages.post(std::move(parsed), plan, metrics);
              });
          stages.count(std::move(received), metrics);
          return metrics;
        },
        std::move(setup));
  }

 private:
  /// The round's parse stage, after recording the batch's size.
  template <typename Stages>
  static typename Stages::Parsed parse(Stages& stages,
                                       const io::ReadBatch& batch,
                                       RankMetrics& metrics) {
    metrics.reads = batch.size();
    metrics.bases = batch.total_bases();
    return stages.parse(batch, metrics);
  }

  template <typename Table, typename Stages>
  [[nodiscard]] RankMetrics run_overlapped(mpisim::Comm& comm,
                                           const ExchangeSpec& spec,
                                           Table& table, Stages& stages,
                                           RankMetrics setup) const {
    struct Slot {
      RankMetrics metrics;
      typename Stages::Pending pending;
    };

    RankMetrics total = std::move(setup);
    std::vector<io::ReadBatch> round_batches;
    if (rounds_ > 1) {
      round_batches =
          io::partition_by_bases(reads_, static_cast<int>(rounds_));
    }
    const std::size_t nrounds = rounds_ > 1 ? round_batches.size() : 1;
    auto batch_at = [&](std::size_t i) -> const io::ReadBatch& {
      return rounds_ > 1 ? round_batches[i] : reads_;
    };

    // Parse round `round` into `slot` and post its exchange(s) as
    // nonblocking. Only the stage-out staging cost lands on this side of
    // the exchange phase; the routine cost is charged at completion in
    // receive_and_count. Returns the round's parse charge — the compute
    // the previous round's in-flight exchange hides behind.
    auto parse_and_post = [&](Slot& slot, std::size_t round) {
      slot.metrics = RankMetrics{};
      auto parsed = parse(stages, batch_at(round), slot.metrics);
      const double parse_seconds = slot.metrics.modeled.total();
      PhaseScope phase(slot.metrics, kPhaseExchange);
      ExchangePlan plan(comm, spec.device, spec.staged, hierarchical_,
                        /*overlapped=*/true);
      slot.pending = stages.post(std::move(parsed), plan, slot.metrics);
      phase.set_charge(plan.staging_seconds(), plan.staging_volume_seconds());
      return parse_seconds;
    };

    // Complete the slot's exchange and stage it in. `compute_seconds` is
    // the modeled compute that ran while the exchange was in flight (the
    // next round's parse); the routine's overlappable share hides behind
    // it.
    auto receive = [&](Slot& slot, double compute_seconds) {
      PhaseScope phase(slot.metrics, kPhaseExchange);
      ExchangePlan plan(comm, spec.device, spec.staged, hierarchical_,
                        /*overlapped=*/true);
      typename Stages::Received received =
          stages.receive(std::move(slot.pending), plan, slot.metrics);

      const double routine = plan.alltoallv_seconds();
      const double routine_volume = plan.alltoallv_volume_seconds();
      // Only the inter-node hop hides behind the in-flight parse; the
      // intra-node staging share (zero on the flat path, where these
      // expressions reduce bit-for-bit to the pre-hierarchical math) stays
      // exposed.
      const double intra = plan.hier_intra_seconds();
      const double intra_volume = plan.hier_intra_volume_seconds();
      const double inter = routine - intra;
      const double inter_volume = routine_volume - intra_volume;
      const double exposed_inter =
          comm.network().overlapped_seconds(inter, compute_seconds) -
          compute_seconds;
      const double exposed = intra + exposed_inter;
      const double saved = inter - exposed_inter;

      slot.metrics.bytes_sent = plan.bytes_sent();
      slot.metrics.bytes_received = plan.bytes_received();
      slot.metrics.intra_node_bytes = plan.intra_node_bytes();
      slot.metrics.inter_node_bytes = plan.inter_node_bytes();
      // Fig. 8's metric keeps seeing the full routine time; only the
      // phase's exposure shrinks.
      slot.metrics.modeled_alltoallv_seconds = routine;
      slot.metrics.modeled_alltoallv_volume_seconds = routine_volume;
      const double exposed_volume =
          intra_volume +
          (inter > 0.0 ? inter_volume * (exposed_inter / inter) : 0.0);
      phase.set_charge(
          exposed + plan.staging_seconds() + spec.overhead_seconds,
          exposed_volume + plan.staging_volume_seconds());
      phase.set_overlap_saved_seconds(saved);
      return received;
    };

    std::array<Slot, 2> slots;
    parse_and_post(slots[0], 0);
    for (std::size_t r = 0; r < nrounds; ++r) {
      Slot& current = slots[r % 2];
      const double compute_seconds =
          r + 1 < nrounds ? parse_and_post(slots[(r + 1) % 2], r + 1) : 0.0;
      stages.count(receive(current, compute_seconds), current.metrics);
      accumulate_round(total, current.metrics);
    }
    total.unique_kmers = table.unique();
    total.counted_kmers = table.total();
    return total;
  }

  const io::ReadBatch& reads_;
  const std::uint64_t rounds_;
  const bool overlap_;
  const bool hierarchical_;
};

}  // namespace dedukt::core
