// The batch driver every counting run shares (internal to dedukt_core).
//
// The exact driver, the sketch driver and out-of-core pass 1 all feed the
// parse -> exchange -> count dataflow the same way: pull one read batch
// ahead (so the last batch is known while it runs — end-of-run collectives
// must happen inside it), split it across ranks by bases, run every rank
// on its part inside one Runtime::run, and fold each batch's ledger into
// the rank's total. At the end the per-rank tables gather to rank 0 and
// merge into the global counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/core/round_runner.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/trace/trace.hpp"

namespace dedukt::core {

/// The job's network: the Summit model unless the options ask for a free
/// local transport.
[[nodiscard]] inline mpisim::NetworkModel driver_network(
    const DriverOptions& options) {
  return options.summit_network
             ? summit::network(options.effective_ranks_per_node())
             : mpisim::NetworkModel::local();
}

/// Stamp `result` with the job's configuration and one ledger per rank.
inline void start_result(CountResult& result, const DriverOptions& options) {
  result.config = options.pipeline;
  result.nranks = options.nranks;
  result.ranks.resize(static_cast<std::size_t>(options.nranks));
}

/// One rank's share of one pulled batch.
struct BatchStep {
  mpisim::Comm& comm;
  std::size_t rank;
  const io::ReadBatch& mine;
  std::uint64_t index;  ///< 0 for the first batch
  bool last;            ///< no batch follows this one
};

/// Run `step(BatchStep)` on every rank for every batch `stream` yields (one
/// empty batch for empty input), under the app span `span_name`.
template <typename Step>
void for_each_batch(io::ReadBatchStream& stream, mpisim::Runtime& runtime,
                    const char* span_name, Step&& step) {
  std::optional<io::ReadBatch> batch = stream.next();
  if (!batch) batch.emplace();
  for (std::uint64_t index = 0; batch; ++index) {
    std::optional<io::ReadBatch> following = stream.next();
    const std::vector<io::ReadBatch> parts =
        io::partition_by_bases(*batch, runtime.nranks());
    runtime.run([&](mpisim::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      const io::ReadBatch& mine = parts[rank];
      // Top-level app span: everything this rank does for the batch — the
      // pipeline's phase spans and collectives nest inside it.
      trace::ScopedSpan rank_span(trace::kCategoryApp, span_name);
      if (rank_span.active()) {
        rank_span.arg_u64("reads", mine.size());
        rank_span.arg_u64("bases", mine.total_bases());
      }
      step(BatchStep{comm, rank, mine, index, !following});
    });
    batch = std::move(following);
  }
}

/// Fold one batch's ledger into the rank's total: the first batch assigns,
/// later ones accumulate. Table-derived fields reflect the latest
/// (cumulative) table state, not a per-batch delta.
inline void fold_batch(RankMetrics& total, const RankMetrics& batch,
                       std::uint64_t index) {
  if (index == 0) {
    total = batch;
    return;
  }
  accumulate_round(total, batch);
  total.unique_kmers = batch.unique_kmers;
  total.counted_kmers = batch.counted_kmers;
}

/// Report a streamed run's peak footprint on its last batch. A single-batch
/// run leaves the field 0 and emits no counter, so in-memory output stays
/// byte-identical to the one-shot path.
inline void report_streamed_peak(RankMetrics& total, std::uint64_t peak,
                                 std::uint64_t index) {
  if (index == 0) return;
  total.peak_resident_bytes = peak;
  trace::counter("peak_resident_bytes", peak);
}

/// Wire format for gathering per-rank table entries to rank 0.
template <typename Key>
struct KeyCount {
  Key key;
  std::uint64_t count;
};

/// Per-rank (key, count) entries as rank 0 received them.
template <typename Key>
using GatheredCounts = std::vector<std::vector<KeyCount<Key>>>;

/// Gather every entry of this rank's `table` to rank 0 (collective); only
/// rank 0 writes `gathered`.
template <typename Key, typename Table>
void gather_counts(mpisim::Comm& comm, const Table& table,
                   GatheredCounts<Key>& gathered) {
  static_assert(std::is_trivially_copyable_v<KeyCount<Key>>);
  std::vector<KeyCount<Key>> entries;
  entries.reserve(table.unique());
  table.for_each([&](const Key& key, std::uint64_t count) {
    entries.push_back({key, count});
  });
  auto all = comm.gatherv(entries, /*root=*/0);
  if (comm.rank() == 0) gathered = std::move(all);
}

/// Flatten the gathered parts into sorted (key, count) pairs. Partitioning
/// normally sends every occurrence of a k-mer to one rank, so keys are
/// disjoint across parts — but sum duplicates anyway: the frequency-balanced
/// routing schemes re-sample their assignment per batch under streamed
/// ingest, so a minimizer may legally land on different ranks in different
/// batches.
template <typename Key>
[[nodiscard]] std::vector<std::pair<Key, std::uint64_t>>
merge_gathered_counts(const GatheredCounts<Key>& gathered) {
  std::vector<std::pair<Key, std::uint64_t>> counts;
  std::size_t total = 0;
  for (const auto& part : gathered) total += part.size();
  counts.reserve(total);
  for (const auto& part : gathered) {
    for (const auto& entry : part) counts.emplace_back(entry.key, entry.count);
  }
  std::sort(counts.begin(), counts.end());
  std::size_t write = 0;
  for (std::size_t read = 0; read < counts.size(); ++read) {
    if (write > 0 && counts[write - 1].first == counts[read].first) {
      counts[write - 1].second += counts[read].second;
    } else {
      counts[write++] = counts[read];
    }
  }
  counts.resize(write);
  return counts;
}

/// Two-pass out-of-core run (ooc.cpp; options.ooc.enabled() must hold),
/// for Traits = NarrowKeys or WideKeys (count_phases.hpp). Fills `result`'s
/// metrics and `counts` with the merged global counts.
template <typename Traits>
void run_ooc_count(
    io::ReadBatchStream& stream, const DriverOptions& options,
    CountResult& result,
    std::vector<std::pair<typename Traits::Wire, std::uint64_t>>& counts);

}  // namespace dedukt::core
