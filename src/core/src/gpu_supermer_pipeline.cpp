// GPU pipeline with supermers on the wire (§IV).
//
// parse & process: one thread per window builds supermers in private
// registers (Algorithm 2); supermers are routed by minimizer hash so every
// occurrence of a k-mer reaches the same rank. exchange: two Alltoallv's —
// packed supermer words and per-supermer length bytes (§IV-C: "an extra
// buffer is also maintained to store the length of each supermer").
// count: the destination extracts each supermer's k-mers and counts them in
// the device hash table.
#include <algorithm>
#include <vector>

#include "count_phases.hpp"
#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/core/device_hash_table.hpp"
#include "dedukt/core/kernels.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/core/staged_pipeline.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/trace/trace.hpp"

namespace dedukt::core {

namespace {

/// The device-resident parse output: per-destination counts/offsets and the
/// packed supermer word/length buffers awaiting the exchange.
template <typename Word>
struct ParsedSupermers {
  std::vector<std::uint32_t> counts;
  std::vector<std::uint64_t> offsets;
  gpusim::DeviceBuffer<Word> d_words;
  gpusim::DeviceBuffer<std::uint8_t> d_lens;
  std::uint64_t total_supermers = 0;
};

/// parse & process: build supermers on the device (one full parse phase).
/// Word selects the supermer packing: std::uint64_t for the paper's
/// single-word regime, kmer::WideKey for the two-word extension that lifts
/// the window cap of 15.
template <typename Word>
ParsedSupermers<Word> parse_gpu_supermers(
    gpusim::Device& device, const io::ReadBatch& reads,
    const PipelineConfig& config, std::uint32_t parts,
    const kernels::DestinationTable& routing, RankMetrics& metrics) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  const kmer::SupermerConfig smer_config = config.supermer_config();

  ParsedSupermers<Word> parsed;
  parsed.counts.resize(parts);
  PhaseScope phase(metrics, kPhaseParse, device);

  kernels::EncodedReads staging = kernels::EncodedReads::build(reads,
                                                               config.k);
  metrics.kmers_parsed = staging.total_kmers;
  const std::vector<kernels::Window> windows =
      kernels::build_windows(staging, config.k, config.window);

  auto d_bases = device.alloc<char>(staging.bases.size());
  device.copy_to_device<char>(staging.bases, d_bases);
  auto d_windows = device.alloc<kernels::Window>(
      std::max<std::size_t>(windows.size(), 1));
  device.copy_to_device<kernels::Window>(windows, d_windows);

  auto d_counts = device.alloc<std::uint32_t>(parts, 0u);
  if constexpr (kWide) {
    kernels::supermer_count_wide(device, d_bases, d_windows,
                                 windows.size(), smer_config, parts,
                                 d_counts, routing);
  } else {
    kernels::supermer_count(device, d_bases, d_windows, windows.size(),
                            smer_config, parts, d_counts, routing);
  }
  device.copy_to_host(d_counts, std::span<std::uint32_t>(parsed.counts));

  parsed.total_supermers = exclusive_prefix(parsed.counts, parsed.offsets);

  auto d_offsets = device.alloc<std::uint64_t>(parts);
  device.copy_to_device<std::uint64_t>(parsed.offsets, d_offsets);
  auto d_cursors = device.alloc<std::uint32_t>(parts, 0u);
  parsed.d_words = device.alloc<Word>(
      std::max<std::uint64_t>(parsed.total_supermers, 1));
  parsed.d_lens = device.alloc<std::uint8_t>(
      std::max<std::uint64_t>(parsed.total_supermers, 1));
  if constexpr (kWide) {
    kernels::supermer_fill_wide(device, d_bases, d_windows,
                                windows.size(), smer_config, parts,
                                d_offsets, d_cursors, parsed.d_words,
                                parsed.d_lens, routing);
  } else {
    kernels::supermer_fill(device, d_bases, d_windows, windows.size(),
                           smer_config, parts, d_offsets, d_cursors,
                           parsed.d_words, parsed.d_lens, routing);
  }

  device.free(d_bases);
  device.free(d_windows);
  device.free(d_counts);
  device.free(d_offsets);
  device.free(d_cursors);

  metrics.supermers_built = parsed.total_supermers;
  // Supermer construction costs ~33% over plain k-mer parsing (§V-C).
  phase.set_device_floor_charge(
      static_cast<double>(metrics.kmers_parsed) /
          (summit::kGpuParseKmersPerSec / summit::kSupermerParseOverhead),
      summit::kGpuParseOverheadSec);
  return parsed;
}

}  // namespace

template <typename Word>
typename GpuSupermerCountStages<Word>::Received
GpuSupermerCountStages<Word>::receive(Pending pending, ExchangePlan& plan,
                                      RankMetrics&) {
  Received received{pending.words.wait(), pending.lens.wait(), {}, {}};
  DEDUKT_CHECK(received.recv_words.data.size() ==
               received.recv_lens.data.size());
  received.d_recv_words = plan.stage_in(received.recv_words.data);
  received.d_recv_lens = plan.stage_in(received.recv_lens.data);
  return received;
}

/// Count phase: extract k-mers from received supermers and count.
template <typename Word>
void GpuSupermerCountStages<Word>::count(Received received,
                                         RankMetrics& metrics) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  PhaseScope phase(metrics, kPhaseCount, device);

  const std::uint64_t n = received.recv_words.data.size();
  metrics.supermers_received = n;
  std::uint64_t kmers_to_count = 0;
  for (const std::uint8_t len : received.recv_lens.data) {
    kmers_to_count += static_cast<std::uint64_t>(len) -
                      static_cast<std::uint64_t>(config.k) + 1;
  }

  auto& d_words = received.d_recv_words;
  auto& d_lens = received.d_recv_lens;
  DeviceHashTable table(device, kmers_to_count, config.table_headroom,
                        config.smem_agg);
  if (config.filter_singletons) {
    DeviceBloomFilter bloom(device, kmers_to_count);
    if constexpr (kWide) {
      table.count_wide_supermers_filtered(d_words, d_lens, n, config.k,
                                          bloom);
    } else {
      table.count_supermers_filtered(d_words, d_lens, n, config.k, bloom);
    }
  } else {
    if constexpr (kWide) {
      table.count_wide_supermers(d_words, d_lens, n, config.k);
    } else {
      table.count_supermers(d_words, d_lens, n, config.k);
    }
  }
  device.free(d_words);
  device.free(d_lens);

  for (const auto& [key, count] : table.to_host()) {
    local_table.add(key, count);
  }
  metrics.kmers_received = kmers_to_count;
  // Counting from supermers costs ~27% over direct counting (§V-C).
  phase.set_device_floor_charge(
      static_cast<double>(kmers_to_count) /
          (summit::kGpuCountKmersPerSec / summit::kSupermerCountOverhead),
      summit::kGpuCountOverheadSec);
}

template struct GpuSupermerCountStages<std::uint64_t>;
template struct GpuSupermerCountStages<kmer::WideKey>;

namespace {

/// One round of the pipeline as the stages RoundRunner drives. `routing`
/// carries the §VII frequency-balanced table when enabled; it is built
/// once per job (not per round) so every occurrence of a k-mer routes to
/// the same rank across rounds.
template <typename Word>
struct GpuSupermerStages : GpuSupermerCountStages<Word> {
  using Parsed = ParsedSupermers<Word>;
  using typename GpuSupermerCountStages<Word>::Pending;

  std::uint32_t parts;
  const kernels::DestinationTable& routing;

  Parsed parse(const io::ReadBatch& reads, RankMetrics& metrics) {
    return parse_gpu_supermers<Word>(this->device, reads, this->config,
                                     parts, routing, metrics);
  }

  /// Exchange supermer words and lengths.
  Pending post(Parsed parsed, ExchangePlan& plan, RankMetrics& metrics) {
    const std::vector<Word> host_words =
        plan.stage_out(parsed.d_words, parsed.total_supermers);
    const std::vector<std::uint8_t> host_lens =
        plan.stage_out(parsed.d_lens, parsed.total_supermers);
    // Total supermer payload bases (§IV-C compression metric), summed from
    // the host copy of the length buffer — never element-by-element from
    // device memory.
    for (const std::uint8_t len : host_lens) {
      metrics.supermer_bases += len;
    }
    return {plan.post(host_words, parsed.counts, parsed.offsets),
            plan.post(host_lens, parsed.counts, parsed.offsets)};
  }
};

}  // namespace

RankMetrics run_gpu_supermer_rank(mpisim::Comm& comm, gpusim::Device& device,
                                  const io::ReadBatch& reads,
                                  const PipelineConfig& config,
                                  HostHashTable& local_table) {
  config.validate();
  // Round planning is collective and must precede the routing-table
  // collectives below — RoundRunner's constructor does it.
  const RoundRunner runner(comm, reads, config);

  // §VII extension: build the frequency-balanced routing table ONCE for
  // the whole job — per-round tables would route the same k-mer to
  // different ranks in different rounds and break table locality. Its
  // sampling work and collectives are charged to the parse phase.
  RankMetrics setup;
  kernels::DestinationTable routing;
  gpusim::DeviceBuffer<std::uint32_t> d_routing;
  if (config.partition != PartitionScheme::kMinimizerHash) {
    PhaseScope phase(setup, kPhaseParse, comm, device);

    const MinimizerAssignment assignment = MinimizerAssignment::build(
        comm, reads, config.supermer_config(), /*sample_stride=*/4,
        config.partition == PartitionScheme::kNodeAware);
    d_routing = device.alloc<std::uint32_t>(assignment.buckets());
    device.copy_to_device<std::uint32_t>(assignment.table(), d_routing);
    routing.bucket_to_rank = d_routing.data();
    routing.nbuckets = assignment.buckets();

    // Sampling touches 1/stride of the k-mers at the supermer parse rate.
    const double sampling = static_cast<double>(reads.total_bases()) / 4.0 /
                            (summit::kGpuParseKmersPerSec /
                             summit::kSupermerParseOverhead);
    phase.set_charge(sampling + phase.comm().modeled_seconds() +
                         phase.device().modeled_seconds(),
                     sampling + phase.comm().modeled_volume_seconds() +
                         phase.device().modeled_volume_seconds());
  }

  const ExchangeSpec spec = exchange_spec(&device, config);
  const auto parts = static_cast<std::uint32_t>(comm.size());
  if (config.wide_supermers) {
    GpuSupermerStages<kmer::WideKey> stages{
        {device, config, local_table}, parts, routing};
    return runner.run_stages(comm, spec, local_table, stages,
                             std::move(setup));
  }
  GpuSupermerStages<std::uint64_t> stages{
      {device, config, local_table}, parts, routing};
  return runner.run_stages(comm, spec, local_table, stages, std::move(setup));
}

}  // namespace dedukt::core
