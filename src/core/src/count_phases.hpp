// Count phases shared by the in-memory pipelines and the out-of-core
// replay (internal to dedukt_core).
//
// Each pipeline owns the count phase of its dataflow: the CPU pipelines
// fold received keys into the host table, the GPU pipelines build a device
// table from received k-mers or supermers and fold it back. Out-of-core
// pass 2 exchanges one reloaded bin exactly like the in-memory exchange and
// then calls the same phase, so both paths price and count identically.
#pragma once

#include <cstdint>
#include <string_view>

#include "dedukt/core/config.hpp"
#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/core/phase_scope.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/dna.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/minimizer.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/mpisim/comm.hpp"

namespace dedukt::core {

/// Single-word keys (k <= 31): the packed code itself goes on the wire.
struct NarrowKeys {
  using Wire = std::uint64_t;
  using Table = HostHashTable;

  /// Visit every k-mer of `fragment` as (destination rank, wire key), the
  /// CPU pipeline's parse routing.
  template <typename Fn>
  static void for_each_routed(std::string_view fragment,
                              const PipelineConfig& config,
                              io::BaseEncoding enc, std::uint32_t parts,
                              Fn&& fn) {
    kmer::for_each_kmer(fragment, config.k, enc, [&](kmer::KmerCode code) {
      if (config.canonical) {
        code = kmer::canonical(code, config.k, enc);
      }
      fn(kmer::kmer_partition(code, parts), code);
    });
  }
};

/// Two-word keys (31 < k <= 63): the 16-byte WideKey goes on the wire.
struct WideKeys {
  using Wire = kmer::WideKey;
  using Table = WideHostHashTable;

  template <typename Fn>
  static void for_each_routed(std::string_view fragment,
                              const PipelineConfig& config,
                              io::BaseEncoding enc, std::uint32_t parts,
                              Fn&& fn) {
    kmer::for_each_wide_kmer(
        fragment, config.k, enc, [&](kmer::WideCode code) {
          if (config.canonical) {
            code = kmer::wide_canonical(code, config.k, enc);
          }
          fn(kmer::wide_kmer_partition(code, parts), kmer::to_key(code));
        });
  }
};

/// COUNTKMER (one full count phase of the CPU pipelines): fold the received
/// keys into the local partition of the global hash table.
template <typename Traits>
void count_cpu(const mpisim::AlltoallvResult<typename Traits::Wire>& received,
               typename Traits::Table& local_table, RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseCount);
  for (const auto& key : received.data) {
    local_table.add(key);
  }
  metrics.kmers_received = received.data.size();
  phase.set_uniform_charge(static_cast<double>(metrics.kmers_received) /
                           summit::kCpuCountKmersPerSec);
}

/// Count phase of the GPU k-mer pipeline (gpu_kmer_pipeline.cpp): build the
/// k-mer counter on the device from the staged-in keys and fold it into
/// `local_table`. Frees `d_recv`.
void count_gpu_kmers(gpusim::Device& device, const PipelineConfig& config,
                     const mpisim::AlltoallvResult<std::uint64_t>& received,
                     gpusim::DeviceBuffer<std::uint64_t>& d_recv,
                     HostHashTable& local_table, RankMetrics& metrics);

/// Count phase of the GPU supermer pipeline (gpu_supermer_pipeline.cpp):
/// extract the k-mers of the staged-in supermers and count them. Word is
/// std::uint64_t or kmer::WideKey. Frees both device buffers.
template <typename Word>
void count_gpu_supermers(gpusim::Device& device, const PipelineConfig& config,
                         const mpisim::AlltoallvResult<Word>& recv_words,
                         const mpisim::AlltoallvResult<std::uint8_t>& recv_lens,
                         gpusim::DeviceBuffer<Word>& d_recv_words,
                         gpusim::DeviceBuffer<std::uint8_t>& d_recv_lens,
                         HostHashTable& local_table, RankMetrics& metrics);

}  // namespace dedukt::core
