// GPU pipeline with k-mers on the wire (§III-B).
//
// parse & process: reads concatenated and copied to the device; one thread
// per base position parses and routes k-mers (two-phase outgoing-buffer
// population). exchange: staged through the CPU (D2H -> MPI_Alltoallv ->
// H2D) or GPUDirect. count: open-addressing device hash table with atomic
// CAS/add.
#include <algorithm>
#include <utility>
#include <vector>

#include "count_phases.hpp"
#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/core/device_hash_table.hpp"
#include "dedukt/core/kernels.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/core/staged_pipeline.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/trace/trace.hpp"

namespace dedukt::core {

namespace {

/// The device-resident parse output: per-destination counts/offsets and the
/// packed k-mer buffer awaiting the exchange.
struct ParsedKmers {
  std::vector<std::uint32_t> counts;
  std::vector<std::uint64_t> offsets;
  gpusim::DeviceBuffer<std::uint64_t> d_out;
  std::uint64_t total = 0;
};

/// Per-destination (key, count) buckets after source-side consolidation.
struct ConsolidatedKmers {
  std::vector<std::vector<std::uint64_t>> out_keys;
  std::vector<std::vector<std::uint32_t>> out_key_counts;
};

/// parse & process k-mers on the device (one full parse phase).
ParsedKmers parse_gpu_kmers(gpusim::Device& device, const io::ReadBatch& reads,
                            const PipelineConfig& config, std::uint32_t parts,
                            RankMetrics& metrics) {
  const io::BaseEncoding enc = config.encoding();
  ParsedKmers parsed;
  parsed.counts.resize(parts);
  PhaseScope phase(metrics, kPhaseParse, device);

  kernels::EncodedReads staging = kernels::EncodedReads::build(reads,
                                                               config.k);
  auto d_bases = device.alloc<char>(staging.bases.size());
  device.copy_to_device<char>(staging.bases, d_bases);

  auto d_counts = device.alloc<std::uint32_t>(parts, 0u);
  kernels::parse_count_kmers(device, d_bases, staging.bases.size(),
                             config.k, enc, parts, d_counts);
  device.copy_to_host(d_counts, std::span<std::uint32_t>(parsed.counts));

  parsed.total = exclusive_prefix(parsed.counts, parsed.offsets);
  DEDUKT_CHECK_MSG(parsed.total == staging.total_kmers,
                   "parse kernel lost k-mers: " << parsed.total << " vs "
                                                << staging.total_kmers);

  auto d_offsets = device.alloc<std::uint64_t>(parts);
  device.copy_to_device<std::uint64_t>(parsed.offsets, d_offsets);
  auto d_cursors = device.alloc<std::uint32_t>(parts, 0u);
  parsed.d_out = device.alloc<std::uint64_t>(
      std::max<std::uint64_t>(parsed.total, 1));
  kernels::parse_fill_kmers(device, d_bases, staging.bases.size(),
                            config.k, enc, parts, d_offsets, d_cursors,
                            parsed.d_out);

  device.free(d_bases);
  device.free(d_counts);
  device.free(d_offsets);
  device.free(d_cursors);

  metrics.kmers_parsed = parsed.total;
  phase.set_device_floor_charge(
      static_cast<double>(parsed.total) / summit::kGpuParseKmersPerSec,
      summit::kGpuParseOverheadSec);
  return parsed;
}

/// Source-side consolidation (footnote 1, after Georganas): count locally
/// first and bucket (k-mer, count) pairs per destination. A second parse
/// phase in the ledger.
ConsolidatedKmers consolidate_gpu_kmers(gpusim::Device& device,
                                        const PipelineConfig& config,
                                        ParsedKmers&& parsed,
                                        std::uint32_t parts,
                                        RankMetrics& metrics) {
  ConsolidatedKmers buckets;
  buckets.out_keys.resize(parts);
  buckets.out_key_counts.resize(parts);
  PhaseScope phase(metrics, kPhaseParse, device);

  DeviceHashTable local(device, parsed.total, config.table_headroom,
                        config.smem_agg);
  local.count_kmers(parsed.d_out, parsed.total);
  device.free(parsed.d_out);
  for (const auto& [key, count] : local.to_host()) {
    const std::uint32_t dest = kmer::kmer_partition(key, parts);
    buckets.out_keys[dest].push_back(key);
    buckets.out_key_counts[dest].push_back(count);
  }
  // Local pre-counting runs at the count rate; no extra launch overhead is
  // charged for the fused pass.
  phase.set_device_floor_charge(
      static_cast<double>(parsed.total) / summit::kGpuCountKmersPerSec,
      /*overhead_seconds=*/0.0);
  return buckets;
}

}  // namespace

GpuKmerCountStages::Received GpuKmerCountStages::receive(Pending request,
                                                         ExchangePlan& plan,
                                                         RankMetrics&) {
  Received received{request.wait(), {}};
  received.d_recv = plan.stage_in(received.result.data);
  return received;
}

/// Count phase of the main path: build the k-mer counter on the device.
void GpuKmerCountStages::count(Received received, RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseCount, device);

  const std::uint64_t n = received.result.data.size();
  DeviceHashTable table(device, n, config.table_headroom, config.smem_agg);
  if (config.filter_singletons) {
    DeviceBloomFilter bloom(device, n);
    table.count_kmers_filtered(received.d_recv, n, bloom);
  } else {
    table.count_kmers(received.d_recv, n);
  }
  device.free(received.d_recv);

  for (const auto& [key, count] : table.to_host()) {
    local_table.add(key, count);
  }
  metrics.kmers_received = n;
  phase.set_device_floor_charge(
      static_cast<double>(metrics.kmers_received) /
          summit::kGpuCountKmersPerSec,
      summit::kGpuCountOverheadSec);
}

namespace {

/// One round of the main (occurrence-on-the-wire) path as the stages
/// RoundRunner drives.
struct GpuKmerStages : GpuKmerCountStages {
  using Parsed = ParsedKmers;

  std::uint32_t parts;

  Parsed parse(const io::ReadBatch& reads, RankMetrics& metrics) {
    return parse_gpu_kmers(device, reads, config, parts, metrics);
  }

  Pending post(Parsed parsed, ExchangePlan& plan, RankMetrics&) {
    const std::vector<std::uint64_t> host_out =
        plan.stage_out(parsed.d_out, parsed.total);
    return plan.post(host_out, parsed.counts, parsed.offsets);
  }
};

/// One round of the source-consolidation path: parse, then count locally
/// and bucket (key, count) pairs per destination; two requests (keys +
/// counts) per round, waited in posting order.
struct GpuKmerConsolidatedStages {
  using Parsed = ConsolidatedKmers;
  struct Pending {
    mpisim::Request<std::uint64_t> keys;
    mpisim::Request<std::uint32_t> key_counts;
  };
  struct Received {
    mpisim::AlltoallvResult<std::uint64_t> recv_keys;
    mpisim::AlltoallvResult<std::uint32_t> recv_key_counts;
    gpusim::DeviceBuffer<std::uint64_t> d_recv_keys;
    gpusim::DeviceBuffer<std::uint32_t> d_recv_key_counts;
  };

  gpusim::Device& device;
  const PipelineConfig& config;
  HostHashTable& local_table;
  std::uint32_t parts;

  Parsed parse(const io::ReadBatch& reads, RankMetrics& metrics) {
    ParsedKmers parsed =
        parse_gpu_kmers(device, reads, config, parts, metrics);
    return consolidate_gpu_kmers(device, config, std::move(parsed), parts,
                                 metrics);
  }

  Pending post(Parsed buckets, ExchangePlan& plan, RankMetrics&) {
    return {plan.post(buckets.out_keys), plan.post(buckets.out_key_counts)};
  }

  Received receive(Pending pending, ExchangePlan& plan, RankMetrics&) {
    Received received{pending.keys.wait(), pending.key_counts.wait(), {}, {}};
    DEDUKT_CHECK(received.recv_keys.data.size() ==
                 received.recv_key_counts.data.size());
    received.d_recv_keys = plan.stage_in(received.recv_keys.data);
    received.d_recv_key_counts = plan.stage_in(received.recv_key_counts.data);
    return received;
  }

  /// Count phase of the consolidated path: accumulate the received (key,
  /// count) pairs into the local partition of the global table.
  void count(Received received, RankMetrics& metrics) {
    PhaseScope phase(metrics, kPhaseCount, device);

    std::uint64_t kmers_to_count = 0;
    for (const std::uint32_t count : received.recv_key_counts.data) {
      kmers_to_count += count;
    }
    const std::uint64_t pairs = received.recv_keys.data.size();
    DeviceHashTable table(device, pairs, config.table_headroom,
                          config.smem_agg);
    table.accumulate_pairs(received.d_recv_keys, received.d_recv_key_counts,
                           pairs);
    device.free(received.d_recv_keys);
    device.free(received.d_recv_key_counts);

    for (const auto& [key, count] : table.to_host()) {
      local_table.add(key, count);
    }
    metrics.kmers_received = kmers_to_count;
    // Accumulation touches one pair per locally-distinct k-mer.
    phase.set_device_floor_charge(
        static_cast<double>(pairs) / summit::kGpuCountKmersPerSec,
        summit::kGpuCountOverheadSec);
  }
};

}  // namespace

RankMetrics run_gpu_kmer_rank(mpisim::Comm& comm, gpusim::Device& device,
                              const io::ReadBatch& reads,
                              const PipelineConfig& config,
                              HostHashTable& local_table) {
  config.validate();
  const RoundRunner runner(comm, reads, config);
  const ExchangeSpec spec = exchange_spec(&device, config);
  const auto parts = static_cast<std::uint32_t>(comm.size());
  if (config.source_consolidation) {
    GpuKmerConsolidatedStages stages{device, config, local_table, parts};
    return runner.run_stages(comm, spec, local_table, stages);
  }
  GpuKmerStages stages{{device, config, local_table}, parts};
  return runner.run_stages(comm, spec, local_table, stages);
}

}  // namespace dedukt::core
