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
// receive and count stages live in count_phases.hpp, shared with the
// out-of-core replay); each round is the parse -> exchange -> count stage
// sequence on the staged pipeline framework.
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

/// One round of Algorithm 1 as the stages RoundRunner drives.
template <typename Traits>
struct CpuStages : CpuCountStages<Traits> {
  using Wire = typename Traits::Wire;
  using Parsed = std::vector<std::vector<Wire>>;
  using typename CpuCountStages<Traits>::Pending;

  const PipelineConfig& config;
  std::uint32_t parts;

  /// PARSEKMER: extract k-mers and bucket them by destination processor.
  Parsed parse(const io::ReadBatch& reads, RankMetrics& metrics) {
    const io::BaseEncoding enc = config.encoding();
    Parsed outgoing(parts);
    PhaseScope phase(metrics, kPhaseParse);
    for (const auto& read : reads.reads) {
      for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
        Traits::for_each_routed(fragment, config, enc, parts,
                                [&](std::uint32_t dest, const Wire& key) {
                                  outgoing[dest].push_back(key);
                                  ++metrics.kmers_parsed;
                                });
      }
    }
    phase.set_uniform_charge(static_cast<double>(metrics.bases) /
                             summit::kCpuParseBasesPerSec);
    return outgoing;
  }

  /// EXCHANGEKMER: Alltoallv of the packed k-mers.
  Pending post(Parsed outgoing, ExchangePlan& plan, RankMetrics&) {
    return plan.post(outgoing);
  }
};

template <typename Traits>
RankMetrics run_cpu_pipeline(mpisim::Comm& comm, const io::ReadBatch& reads,
                             const PipelineConfig& config,
                             typename Traits::Table& local_table) {
  const RoundRunner runner(comm, reads, config);
  CpuStages<Traits> stages{
      {local_table}, config, static_cast<std::uint32_t>(comm.size())};
  return runner.run_stages(comm, exchange_spec(nullptr, config), local_table,
                           stages);
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
