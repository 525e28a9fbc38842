// CPU baseline pipelines — Algorithm 1, the diBELLA-derived counter the
// paper benchmarks against (§III-A, §V-A), in both key widths:
//
//  * narrow: one-word packed k-mers (k <= 31), the paper's regime;
//  * wide: two-word packed k-mers (31 < k <= 63) for long-read analyses —
//    structurally identical, but the wire type is the 16-byte WideKey and
//    the hash is the 128->64 mix, so the exchanged volume per k-mer
//    doubles — exactly the regime where the supermer idea pays off most.
//
// One translation unit, templated on a key-traits struct (mirroring how
// the supermer pipeline templates on its packing word; the traits and the
// count phase live in count_phases.hpp, shared with the out-of-core
// replay); each round is the parse -> exchange -> count stage sequence on
// the staged pipeline framework.
#include <vector>

#include "count_phases.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/core/staged_pipeline.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/trace/trace.hpp"

namespace dedukt::core {

namespace {

/// PARSEKMER (one full parse phase): extract k-mers and bucket them by
/// destination processor. Shared verbatim by the lockstep and overlapped
/// paths so their operations — and the parse charge — cannot drift.
template <typename Traits>
std::vector<std::vector<typename Traits::Wire>> parse_cpu(
    const io::ReadBatch& reads, const PipelineConfig& config,
    std::uint32_t parts, RankMetrics& metrics) {
  const io::BaseEncoding enc = config.encoding();
  std::vector<std::vector<typename Traits::Wire>> outgoing(parts);
  PhaseScope phase(metrics, kPhaseParse);
  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      Traits::for_each_routed(
          fragment, config, enc, parts,
          [&](std::uint32_t dest, const typename Traits::Wire& key) {
            outgoing[dest].push_back(key);
            ++metrics.kmers_parsed;
          });
    }
  }
  phase.set_uniform_charge(static_cast<double>(metrics.bases) /
                           summit::kCpuParseBasesPerSec);
  return outgoing;
}

/// One round of Algorithm 1 (the whole job when it fits in memory).
template <typename Traits>
RankMetrics run_cpu_single(mpisim::Comm& comm, const io::ReadBatch& reads,
                           const PipelineConfig& config,
                           typename Traits::Table& local_table) {
  const auto parts = static_cast<std::uint32_t>(comm.size());

  RankMetrics metrics;
  metrics.reads = reads.size();
  metrics.bases = reads.total_bases();

  std::vector<std::vector<typename Traits::Wire>> outgoing =
      parse_cpu<Traits>(reads, config, parts, metrics);

  // --- EXCHANGEKMER: Alltoallv of packed k-mers ---
  mpisim::AlltoallvResult<typename Traits::Wire> received;
  {
    PhaseScope phase(metrics, kPhaseExchange);
    ExchangePlan plan(comm, /*device=*/nullptr, /*staged=*/false,
                      config.hierarchical_exchange);
    received = plan.exchange(outgoing);
    phase.commit_exchange(plan);
  }
  outgoing.clear();
  outgoing.shrink_to_fit();

  count_cpu<Traits>(received, local_table, metrics);

  metrics.unique_kmers = local_table.unique();
  metrics.counted_kmers = local_table.total();
  return metrics;
}

/// The round decomposition RoundRunner::run_overlapped drives: parse and
/// count call the exact helpers of the lockstep path; the exchange is
/// split into a nonblocking post and a wait-side receive.
template <typename Traits>
struct CpuOverlapStages {
  using Wire = typename Traits::Wire;
  using Parsed = std::vector<std::vector<Wire>>;
  using Pending = mpisim::Request<Wire>;
  using Received = mpisim::AlltoallvResult<Wire>;

  const PipelineConfig& config;
  std::uint32_t parts;
  typename Traits::Table& local_table;

  Parsed parse(const io::ReadBatch& reads, RankMetrics& metrics) {
    metrics.reads = reads.size();
    metrics.bases = reads.total_bases();
    return parse_cpu<Traits>(reads, config, parts, metrics);
  }

  Pending post(Parsed&& outgoing, ExchangePlan& plan, RankMetrics&) {
    return plan.post(outgoing);
  }

  Received receive(Pending&& request, ExchangePlan&, RankMetrics&) {
    return request.wait();
  }

  void count(Received&& received, RankMetrics& metrics) {
    count_cpu<Traits>(received, local_table, metrics);
  }
};

template <typename Traits>
RankMetrics run_cpu_pipeline(mpisim::Comm& comm, const io::ReadBatch& reads,
                             const PipelineConfig& config,
                             typename Traits::Table& local_table) {
  const RoundRunner runner(comm, reads, config);
  if (config.overlap_rounds) {
    CpuOverlapStages<Traits> stages{
        config, static_cast<std::uint32_t>(comm.size()), local_table};
    const OverlapExchangeSpec spec{/*device=*/nullptr, /*staged=*/false,
                                   /*overhead_seconds=*/0.0,
                                   config.hierarchical_exchange};
    return runner.run_overlapped(comm, spec, local_table, stages);
  }
  return runner.run(local_table, [&](const io::ReadBatch& batch) {
    return run_cpu_single<Traits>(comm, batch, config, local_table);
  });
}

}  // namespace

RankMetrics run_cpu_rank(mpisim::Comm& comm, const io::ReadBatch& reads,
                         const PipelineConfig& config,
                         HostHashTable& local_table) {
  config.validate();
  return run_cpu_pipeline<NarrowKeys>(comm, reads, config, local_table);
}

RankMetrics run_cpu_wide_rank(mpisim::Comm& comm, const io::ReadBatch& reads,
                              const PipelineConfig& config,
                              WideHostHashTable& local_table) {
  DEDUKT_REQUIRE_MSG(config.k > kmer::kMaxPackedK &&
                         config.k <= kmer::kMaxWideK,
                     "wide pipeline handles 31 < k <= 63, got k="
                         << config.k);
  DEDUKT_REQUIRE_MSG(config.kind == PipelineKind::kCpu,
                     "wide-k counting is CPU-pipeline only");
  return run_cpu_pipeline<WideKeys>(comm, reads, config, local_table);
}

}  // namespace dedukt::core
