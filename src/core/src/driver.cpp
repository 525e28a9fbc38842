#include "dedukt/core/driver.hpp"

#include <algorithm>
#include <utility>

#include "batch_driver.hpp"
#include "count_phases.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

namespace {

/// One rank's pass of the selected pipeline over its part of a batch.
template <typename Traits>
RankMetrics run_rank(mpisim::Comm& comm, const io::ReadBatch& mine,
                     const DriverOptions& options,
                     typename Traits::Table& table) {
  if constexpr (std::is_same_v<Traits, WideKeys>) {
    return run_cpu_wide_rank(comm, mine, options.pipeline, table);
  } else {
    switch (options.pipeline.kind) {
      case PipelineKind::kCpu:
        return run_cpu_rank(comm, mine, options.pipeline, table);
      case PipelineKind::kGpuKmer: {
        gpusim::Device device(options.device);
        return run_gpu_kmer_rank(comm, device, mine, options.pipeline, table);
      }
      case PipelineKind::kGpuSupermer: {
        gpusim::Device device(options.device);
        return run_gpu_supermer_rank(comm, device, mine, options.pipeline,
                                     table);
      }
    }
    return {};
  }
}

/// The exact count at either key width: every pulled batch runs the
/// pipeline against per-rank tables that persist across batches, so the
/// final state equals the one-shot run's; the last batch gathers them.
template <typename Traits>
void run_exact_count(
    io::ReadBatchStream& stream, const DriverOptions& options,
    CountResult& result,
    std::vector<std::pair<typename Traits::Wire, std::uint64_t>>& counts) {
  if (options.ooc.enabled()) {
    run_ooc_count<Traits>(stream, options, result, counts);
    return;
  }
  mpisim::Runtime runtime(options.nranks, driver_network(options));
  start_result(result, options);
  const auto nranks = static_cast<std::size_t>(options.nranks);
  std::vector<typename Traits::Table> tables(nranks);
  std::vector<std::uint64_t> peaks(nranks, 0);
  // Written only by rank 0 inside the run; read after the run returns.
  GatheredCounts<typename Traits::Wire> gathered;

  for_each_batch(stream, runtime, "rank_pipeline", [&](const BatchStep& at) {
    auto& table = tables[at.rank];
    const RankMetrics metrics =
        run_rank<Traits>(at.comm, at.mine, options, table);
    peaks[at.rank] = std::max(peaks[at.rank],
                              io::resident_read_bytes(at.mine) +
                                  metrics.bytes_sent + metrics.bytes_received);
    fold_batch(result.ranks[at.rank], metrics, at.index);
    if (!at.last) return;
    report_streamed_peak(result.ranks[at.rank], peaks[at.rank], at.index);
    if (options.collect_counts) gather_counts(at.comm, table, gathered);
  });
  if (options.collect_counts) counts = merge_gathered_counts(gathered);
}

}  // namespace

CountResult run_distributed_count(const io::ReadBatch& reads,
                                  const DriverOptions& options) {
  io::VectorBatchStream stream(reads, options.batch);
  return run_distributed_count(stream, options);
}

CountResult run_distributed_count(io::ReadBatchStream& stream,
                                  const DriverOptions& options) {
  options.pipeline.validate();
  DEDUKT_REQUIRE(options.nranks >= 1);
  if (options.pipeline.sketch) return run_sketch_count(stream, options);
  CountResult result;
  run_exact_count<NarrowKeys>(stream, options, result, result.global_counts);
  return result;
}

HostHashTable reference_count(const io::ReadBatch& reads,
                              const PipelineConfig& config) {
  const io::BaseEncoding enc = config.encoding();
  HostHashTable table(reads.total_kmers(config.k));
  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      kmer::for_each_kmer(fragment, config.k, enc, [&](kmer::KmerCode code) {
        if (config.canonical) code = kmer::canonical(code, config.k, enc);
        table.add(code);
      });
    }
  }
  return table;
}

WideCountResult run_distributed_count_wide(const io::ReadBatch& reads,
                                           const DriverOptions& options) {
  io::VectorBatchStream stream(reads, options.batch);
  return run_distributed_count_wide(stream, options);
}

WideCountResult run_distributed_count_wide(io::ReadBatchStream& stream,
                                           const DriverOptions& options) {
  options.pipeline.validate();
  DEDUKT_REQUIRE_MSG(options.pipeline.kind == PipelineKind::kCpu,
                     "wide-k counting runs on the CPU pipeline");
  DEDUKT_REQUIRE(options.nranks >= 1);
  WideCountResult result;
  run_exact_count<WideKeys>(stream, options, result.base,
                            result.global_counts);
  return result;
}

WideHostHashTable reference_count_wide(const io::ReadBatch& reads,
                                       const PipelineConfig& config) {
  const io::BaseEncoding enc = config.encoding();
  WideHostHashTable table(reads.total_kmers(config.k));
  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      kmer::for_each_wide_kmer(
          fragment, config.k, enc, [&](kmer::WideCode code) {
            if (config.canonical) {
              code = kmer::wide_canonical(code, config.k, enc);
            }
            table.add(kmer::to_key(code));
          });
    }
  }
  return table;
}

}  // namespace dedukt::core
