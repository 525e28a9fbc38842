// The wait side of each pipeline's round — receive and count — shared by
// the in-memory pipelines and the out-of-core replay (internal to
// dedukt_core).
//
// Each pipeline owns the count phase of its dataflow: the CPU pipelines
// fold received keys into the host table, the GPU pipelines build a device
// table from received k-mers or supermers and fold it back. The structs
// below hold a pipeline's receive and count stages; the pipeline's full
// round (RoundRunner::run_stages) derives from them and adds parse and
// post. Out-of-core pass 2 posts one reloaded bin through the same
// lockstep exchange and then calls these stages, so both paths price and
// count identically.
#pragma once

#include <cstdint>
#include <string_view>

#include "dedukt/core/config.hpp"
#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/core/staged_pipeline.hpp"
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

/// The exchange of the pipelines: host-only for the CPU pipelines (null
/// `device`), staged through the host or GPUDirect with the constant phase
/// overhead for the GPU pipelines.
inline ExchangeSpec exchange_spec(gpusim::Device* device,
                                  const PipelineConfig& config) {
  return {device, config.exchange == ExchangeMode::kStaged,
          device != nullptr ? summit::kGpuExchangeOverheadSec : 0.0};
}

/// Receive and count of the CPU pipelines (COUNTKMER): fold the received
/// keys into the local partition of the global hash table.
template <typename Traits>
struct CpuCountStages {
  using Wire = typename Traits::Wire;
  using Pending = mpisim::Request<Wire>;
  using Received = mpisim::AlltoallvResult<Wire>;

  typename Traits::Table& local_table;

  Received receive(Pending request, ExchangePlan&, RankMetrics&) {
    return request.wait();
  }

  void count(Received received, RankMetrics& metrics) {
    PhaseScope phase(metrics, kPhaseCount);
    for (const auto& key : received.data) {
      local_table.add(key);
    }
    metrics.kmers_received = received.data.size();
    phase.set_uniform_charge(static_cast<double>(metrics.kmers_received) /
                             summit::kCpuCountKmersPerSec);
  }
};

/// Receive and count of the GPU k-mer pipeline (gpu_kmer_pipeline.cpp):
/// stage the received keys in, build the k-mer counter on the device and
/// fold it into `local_table`.
struct GpuKmerCountStages {
  using Wire = std::uint64_t;
  using Pending = mpisim::Request<Wire>;
  struct Received {
    mpisim::AlltoallvResult<Wire> result;
    gpusim::DeviceBuffer<Wire> d_recv;
  };

  gpusim::Device& device;
  const PipelineConfig& config;
  HostHashTable& local_table;

  Received receive(Pending request, ExchangePlan& plan, RankMetrics&);
  void count(Received received, RankMetrics& metrics);
};

/// Receive and count of the GPU supermer pipeline
/// (gpu_supermer_pipeline.cpp): two requests (words + lengths) waited in
/// posting order, then the k-mers of the staged-in supermers are extracted
/// and counted. Word is std::uint64_t or kmer::WideKey.
template <typename Word>
struct GpuSupermerCountStages {
  using Wire = Word;
  struct Pending {
    mpisim::Request<Word> words;
    mpisim::Request<std::uint8_t> lens;
  };
  struct Received {
    mpisim::AlltoallvResult<Word> recv_words;
    mpisim::AlltoallvResult<std::uint8_t> recv_lens;
    gpusim::DeviceBuffer<Word> d_recv_words;
    gpusim::DeviceBuffer<std::uint8_t> d_recv_lens;
  };

  gpusim::Device& device;
  const PipelineConfig& config;
  HostHashTable& local_table;

  Received receive(Pending pending, ExchangePlan& plan, RankMetrics&);
  void count(Received received, RankMetrics& metrics);
};

}  // namespace dedukt::core
