// Out-of-core two-pass counting — see ooc.hpp for the dataflow and
// docs/out-of-core.md for the design rationale.
//
// Pass 1 parses on the host (the simulated device kernels operate on whole
// in-memory batches; the host builders produce the same k-mer/supermer
// multiset per destination, which is all pass 2 consumes). Its parse
// charges use each pipeline's calibrated throughput terms; the GPU device
// floor is approximated by the throughput term itself, an equality on
// every profiled configuration since the modeled kernels are
// throughput-bound.
#include "dedukt/core/ooc.hpp"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "batch_driver.hpp"
#include "count_phases.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/staged_pipeline.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/spill.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

namespace {

/// What the selected pipeline spills: exactly its wire payload.
io::SpillKind spill_kind_of(const PipelineConfig& config, bool wide_keys) {
  if (wide_keys) return io::SpillKind::kWideKmerKeys;
  switch (config.kind) {
    case PipelineKind::kCpu:
    case PipelineKind::kGpuKmer:
      return io::SpillKind::kKmerKeys;
    case PipelineKind::kGpuSupermer:
      return config.wide_supermers ? io::SpillKind::kWideSupermers
                                   : io::SpillKind::kSupermers;
  }
  return io::SpillKind::kKmerKeys;
}

void validate_ooc(const DriverOptions& options) {
  DEDUKT_REQUIRE_MSG(options.ooc.bins >= 1,
                     "--ooc-bins must be >= 1, got " << options.ooc.bins);
  DEDUKT_REQUIRE_MSG(!options.pipeline.overlap_rounds,
                     "out-of-core mode and --overlap-rounds are mutually "
                     "exclusive (pass 2 replays bins in lockstep)");
  DEDUKT_REQUIRE_MSG(options.pipeline.max_kmers_per_round == 0,
                     "out-of-core bins replace multi-round processing; "
                     "leave --max-kmers-per-round unset");
  DEDUKT_REQUIRE_MSG(!options.pipeline.filter_singletons,
                     "the Bloom pre-filter cannot span spill bins");
  DEDUKT_REQUIRE_MSG(!options.pipeline.source_consolidation,
                     "source-side consolidation is incompatible with "
                     "out-of-core spilling");
}

/// Per-[bin][dest] staging buffers one pass-1 batch fills before the spill
/// phase appends them as runs.
struct BinBuckets {
  std::vector<std::vector<std::vector<std::uint64_t>>> words;
  std::vector<std::vector<std::vector<std::uint8_t>>> lens;

  BinBuckets(std::uint32_t bins, std::uint32_t parts, bool has_lens) {
    words.assign(bins, std::vector<std::vector<std::uint64_t>>(parts));
    if (has_lens) {
      lens.assign(bins, std::vector<std::vector<std::uint8_t>>(parts));
    }
  }

  [[nodiscard]] std::uint64_t resident_bytes() const {
    std::uint64_t bytes = 0;
    for (const auto& per_bin : words) {
      for (const auto& buf : per_bin) bytes += buf.size() * sizeof(buf[0]);
    }
    for (const auto& per_bin : lens) {
      for (const auto& buf : per_bin) bytes += buf.size();
    }
    return bytes;
  }
};

/// Append a key or supermer word to a spill bucket as packed 64-bit words.
void push_words(std::vector<std::uint64_t>& out, std::uint64_t word) {
  out.push_back(word);
}

void push_words(std::vector<std::uint64_t>& out, const kmer::WideKey& word) {
  out.push_back(word.hi);
  out.push_back(word.lo);
}

/// Append a reloaded run's packed 64-bit words to a per-destination buffer
/// of `Word`s — the one copy of the payload pass 2 makes.
void append_words(std::vector<std::uint64_t>& out,
                  const std::vector<std::uint64_t>& words) {
  out.insert(out.end(), words.begin(), words.end());
}

void append_words(std::vector<kmer::WideKey>& out,
                  const std::vector<std::uint64_t>& words) {
  for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
    out.push_back(kmer::WideKey{words[i], words[i + 1]});
  }
}

/// A supermer's first k-mer, whose minimizer routes and bins it.
kmer::KmerCode first_kmer(const kmer::PackedSupermer& smer, int k) {
  return kmer::sub_code(smer.bases, smer.len, 0, k);
}

kmer::KmerCode first_kmer(const kmer::PackedWideSupermer& smer, int k) {
  return kmer::wide_sub(kmer::from_key(smer.bases), smer.len, 0, k);
}

/// Bucket one batch's supermers by spill bin and destination. Word selects
/// the packing (std::uint64_t, or kmer::WideKey for --wide-supermers); each
/// supermer routes exactly as the in-memory parse routes it.
template <typename Word>
void parse_supermers_into_bins(const io::ReadBatch& mine,
                               const PipelineConfig& config,
                               std::uint32_t parts, std::uint32_t bins,
                               const MinimizerAssignment* assignment,
                               BinBuckets& buckets, RankMetrics& metrics) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  const kmer::SupermerConfig smer_config = config.supermer_config();
  const kmer::MinimizerPolicy policy = config.minimizer_policy();
  for (const auto& read : mine.reads) {
    const auto built = [&] {
      if constexpr (kWide) {
        return kmer::build_wide_supermers_read(read.bases, smer_config, parts);
      } else {
        return kmer::build_supermers_read(read.bases, smer_config, parts);
      }
    }();
    for (const auto& ds : built) {
      const kmer::KmerCode mini =
          kmer::minimizer_of(first_kmer(ds.smer, config.k), config.k, policy);
      const std::uint32_t dest =
          assignment != nullptr ? assignment->rank_of(mini) : ds.dest;
      const std::uint32_t bin = spill_bin_of(mini, bins);
      push_words(buckets.words[bin][dest], ds.smer.bases);
      buckets.lens[bin][dest].push_back(ds.smer.len);
      ++metrics.supermers_built;
      metrics.supermer_bases += ds.smer.len;
      metrics.kmers_parsed += static_cast<std::uint64_t>(ds.smer.len) -
                              static_cast<std::uint64_t>(config.k) + 1;
    }
  }
}

/// Parse one pass-1 batch into the bin buckets and state the parse charge.
/// Mirrors each pipeline's parse routing exactly (same destination
/// function per k-mer occurrence) and its charge formulas.
template <typename Traits>
void parse_into_bins(const io::ReadBatch& mine, const PipelineConfig& config,
                     std::uint32_t parts, std::uint32_t bins,
                     const MinimizerAssignment* assignment,
                     BinBuckets& buckets, RankMetrics& metrics) {
  const io::BaseEncoding enc = config.encoding();
  PhaseScope phase(metrics, kPhaseParse);

  switch (config.kind) {
    case PipelineKind::kCpu: {
      for (const auto& read : mine.reads) {
        for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
          Traits::for_each_routed(
              fragment, config, enc, parts,
              [&](std::uint32_t dest, const typename Traits::Wire& key) {
                push_words(buckets.words[spill_bin_of(key, bins)][dest], key);
                ++metrics.kmers_parsed;
              });
        }
      }
      phase.set_uniform_charge(static_cast<double>(metrics.bases) /
                               summit::kCpuParseBasesPerSec);
      return;
    }
    case PipelineKind::kGpuKmer: {
      for (const auto& read : mine.reads) {
        for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
          kmer::for_each_kmer(
              fragment, config.k, enc, [&](kmer::KmerCode code) {
                const std::uint32_t dest = kmer::kmer_partition(code, parts);
                buckets.words[spill_bin_of(code, bins)][dest].push_back(code);
                ++metrics.kmers_parsed;
              });
        }
      }
      const double work = static_cast<double>(metrics.kmers_parsed) /
                          summit::kGpuParseKmersPerSec;
      phase.set_charge(work + summit::kGpuParseOverheadSec, work);
      return;
    }
    case PipelineKind::kGpuSupermer: {
      if (config.wide_supermers) {
        parse_supermers_into_bins<kmer::WideKey>(mine, config, parts, bins,
                                                 assignment, buckets, metrics);
      } else {
        parse_supermers_into_bins<std::uint64_t>(mine, config, parts, bins,
                                                 assignment, buckets, metrics);
      }
      const double work =
          static_cast<double>(metrics.kmers_parsed) /
          (summit::kGpuParseKmersPerSec / summit::kSupermerParseOverhead);
      phase.set_charge(work + summit::kGpuParseOverheadSec, work);
      return;
    }
  }
}

/// Append one batch's bin buckets as runs and state the spill charge.
void spill_buckets(BinBuckets& buckets,
                   std::vector<std::unique_ptr<io::SpillBinWriter>>& writers,
                   io::SpillKind kind, const io::DiskModel& disk,
                   RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseSpill);
  std::uint64_t bytes = 0;
  std::uint64_t runs = 0;
  const bool has_lens = io::spill_has_lens(kind);
  const std::uint32_t wpi = io::spill_words_per_item(kind);
  for (std::size_t bin = 0; bin < writers.size(); ++bin) {
    io::SpillBinWriter& writer = *writers[bin];
    const std::uint64_t before_bytes = writer.bytes_written();
    const std::uint64_t before_runs = writer.runs();
    for (std::size_t dest = 0; dest < buckets.words[bin].size(); ++dest) {
      const std::vector<std::uint64_t>& words = buckets.words[bin][dest];
      if (words.empty()) continue;
      writer.append_run(static_cast<std::uint32_t>(dest), words.data(),
                        words.size() / wpi,
                        has_lens ? buckets.lens[bin][dest].data() : nullptr);
    }
    bytes += writer.bytes_written() - before_bytes;
    runs += writer.runs() - before_runs;
  }
  metrics.spill_bytes_written = bytes;
  phase.set_charge(disk.write_seconds(bytes, runs),
                   disk.write_volume_seconds(bytes));
}

/// One pass-2 bin reload: every run replayed into per-destination buffers.
template <typename Word>
struct ReloadedBin {
  std::vector<std::vector<Word>> words;         ///< [dest]
  std::vector<std::vector<std::uint8_t>> lens;  ///< [dest], supermers only
  std::uint64_t bytes = 0;
};

template <typename Word>
ReloadedBin<Word> reload_bin(const std::string& path, io::SpillKind kind,
                             int k, std::uint32_t parts,
                             const io::DiskModel& disk, RankMetrics& metrics) {
  ReloadedBin<Word> reloaded;
  reloaded.words.resize(parts);
  reloaded.lens.resize(parts);
  PhaseScope phase(metrics, kPhaseReload);
  io::SpillBinReader reader(path, kind, k, parts);
  io::SpillRun run;
  while (reader.next(run)) {
    append_words(reloaded.words[run.dest], run.words);
    auto& lens = reloaded.lens[run.dest];
    lens.insert(lens.end(), run.lens.begin(), run.lens.end());
  }
  reloaded.bytes = reader.bytes_read();
  metrics.spill_bytes_read = reloaded.bytes;
  // One op per run plus the header read.
  phase.set_charge(disk.read_seconds(reader.bytes_read(), reader.runs() + 1),
                   disk.read_volume_seconds(reader.bytes_read()));
  return reloaded;
}

/// Pass 2 on one rank: reload a bin, post its per-destination buffers
/// through the lockstep exchange exactly as the in-memory round posts them,
/// and run that pipeline's own receive and count stages against the rank's
/// persistent table.
struct BinReplay {
  mpisim::Comm& comm;
  const PipelineConfig& config;
  ExchangeSpec spec;
  io::SpillKind kind;
  const io::DiskModel& disk;

  /// Replay the bin at `path` through `stages` (a receive-and-count struct
  /// from count_phases.hpp); returns the bin's reloaded bytes.
  template <typename Stages>
  std::uint64_t run(const std::string& path, Stages stages,
                    RankMetrics& bm) const {
    using Wire = typename Stages::Wire;
    using Pending = typename Stages::Pending;
    ReloadedBin<Wire> bin = reload_bin<Wire>(
        path, kind, config.k, static_cast<std::uint32_t>(comm.size()), disk,
        bm);
    auto received = lockstep_exchange(
        comm, spec, config.hierarchical_exchange, stages, bm,
        [&](ExchangePlan& plan) {
          Pending pending;
          if constexpr (std::is_same_v<Pending, mpisim::Request<Wire>>) {
            pending = plan.post(bin.words);
          } else {  // supermers: words, then lengths
            pending = {plan.post(bin.words), plan.post(bin.lens)};
          }
          // The payload has been delivered; free it before the stage-in.
          bin.words.clear();
          bin.lens.clear();
          return pending;
        });
    stages.count(std::move(received), bm);
    return bin.bytes;
  }
};

}  // namespace

template <typename Traits>
void run_ooc_count(
    io::ReadBatchStream& stream, const DriverOptions& options,
    CountResult& result,
    std::vector<std::pair<typename Traits::Wire, std::uint64_t>>& counts) {
  constexpr bool kNarrow = std::is_same_v<Traits, NarrowKeys>;
  const PipelineConfig& config = options.pipeline;
  validate_ooc(options);

  const auto nranks = static_cast<std::size_t>(options.nranks);
  const auto parts = static_cast<std::uint32_t>(options.nranks);
  const auto bins = static_cast<std::uint32_t>(options.ooc.bins);
  const io::SpillKind kind = spill_kind_of(config, !kNarrow);
  const io::DiskModel& disk = options.ooc.disk;
  const bool gpu = config.kind != PipelineKind::kCpu;
  const bool supermers = config.kind == PipelineKind::kGpuSupermer;
  const bool need_assignment =
      supermers && config.partition != PartitionScheme::kMinimizerHash;

  mpisim::Runtime runtime(options.nranks, driver_network(options));
  start_result(result, options);

  // RAII scratch: removed on return and on exception alike.
  io::SpillDir spill(options.ooc.spill_root);

  // [rank][bin] writers, created up front on this thread; each simulated
  // rank only ever touches its own row.
  std::vector<std::vector<std::unique_ptr<io::SpillBinWriter>>> writers(
      nranks);
  for (std::size_t rank = 0; rank < nranks; ++rank) {
    writers[rank].reserve(bins);
    for (std::uint32_t bin = 0; bin < bins; ++bin) {
      writers[rank].push_back(std::make_unique<io::SpillBinWriter>(
          spill.bin_path(static_cast<int>(rank), static_cast<int>(bin)),
          kind, config.k, parts));
    }
  }

  // Frequency-balanced routing is sampled collectively from the FIRST
  // batch and reused for the whole job, mirroring the in-memory pipeline's
  // once-per-job routing table.
  std::vector<std::optional<MinimizerAssignment>> assignments(nranks);

  // --- pass 1: stream batches, parse, spill ---
  for_each_batch(stream, runtime, "rank_spill_pass", [&](const BatchStep& at) {
    const io::ReadBatch& mine = at.mine;
    RankMetrics metrics;
    metrics.reads = mine.size();
    metrics.bases = mine.total_bases();

    if (need_assignment && at.index == 0) {
      PhaseScope phase(metrics, kPhaseParse);
      mpisim::CommCapture capture(at.comm);
      assignments[at.rank] = MinimizerAssignment::build(
          at.comm, mine, config.supermer_config(), /*sample_stride=*/4,
          config.partition == PartitionScheme::kNodeAware);
      const double sampling =
          static_cast<double>(mine.total_bases()) / 4.0 /
          (summit::kGpuParseKmersPerSec / summit::kSupermerParseOverhead);
      phase.set_charge(sampling + capture.modeled_seconds(),
                       sampling + capture.modeled_volume_seconds());
    }

    BinBuckets buckets(bins, parts, io::spill_has_lens(kind));
    const auto& assignment = assignments[at.rank];
    parse_into_bins<Traits>(mine, config, parts, bins,
                            assignment ? &*assignment : nullptr, buckets,
                            metrics);
    metrics.peak_resident_bytes =
        io::resident_read_bytes(mine) + buckets.resident_bytes();
    spill_buckets(buckets, writers[at.rank], kind, disk, metrics);
    fold_batch(result.ranks[at.rank], metrics, at.index);
  });

  // Flush before pass 2 opens the files for reading; surfaces write errors
  // as exceptions here rather than as ParseError truncations later.
  for (auto& row : writers) {
    for (auto& writer : row) writer->close();
  }

  // --- pass 2: replay each bin through exchange + count ---
  std::vector<typename Traits::Table> tables(nranks);
  GatheredCounts<typename Traits::Wire> gathered;

  runtime.run([&](mpisim::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    trace::ScopedSpan rank_span(trace::kCategoryApp, "rank_replay_pass");
    RankMetrics& total = result.ranks[rank];
    auto& table = tables[rank];

    std::optional<gpusim::Device> device;
    if (gpu) device.emplace(options.device);
    gpusim::Device* const dev = device ? &*device : nullptr;
    const BinReplay replay{comm, config, exchange_spec(dev, config), kind,
                           disk};

    for (std::uint32_t bin = 0; bin < bins; ++bin) {
      const std::string path =
          spill.bin_path(static_cast<int>(rank), static_cast<int>(bin));
      // Fresh per-bin ledger: commit_exchange ASSIGNS byte counts and
      // alltoallv times, so they must not overwrite earlier bins' values.
      RankMetrics bm;
      std::uint64_t reloaded_bytes = 0;
      if constexpr (kNarrow) {
        if (supermers && config.wide_supermers) {
          reloaded_bytes = replay.run(
              path, GpuSupermerCountStages<kmer::WideKey>{*dev, config, table},
              bm);
        } else if (supermers) {
          reloaded_bytes = replay.run(
              path, GpuSupermerCountStages<std::uint64_t>{*dev, config, table},
              bm);
        } else if (gpu) {
          reloaded_bytes =
              replay.run(path, GpuKmerCountStages{*dev, config, table}, bm);
        }
      }
      if (!gpu) {
        reloaded_bytes = replay.run(path, CpuCountStages<Traits>{table}, bm);
      }
      bm.peak_resident_bytes =
          reloaded_bytes + bm.bytes_sent + bm.bytes_received;
      accumulate_round(total, bm);
    }

    total.unique_kmers = table.unique();
    total.counted_kmers = table.total();
    trace::counter("spill_bytes_written", total.spill_bytes_written);
    trace::counter("spill_bytes_read", total.spill_bytes_read);
    trace::counter("peak_resident_bytes", total.peak_resident_bytes);
    if (options.collect_counts) gather_counts(comm, table, gathered);
  });

  if (options.collect_counts) counts = merge_gathered_counts(gathered);
}

template void run_ooc_count<NarrowKeys>(
    io::ReadBatchStream&, const DriverOptions&, CountResult&,
    std::vector<std::pair<std::uint64_t, std::uint64_t>>&);
template void run_ooc_count<WideKeys>(
    io::ReadBatchStream&, const DriverOptions&, CountResult&,
    std::vector<std::pair<kmer::WideKey, std::uint64_t>>&);

}  // namespace dedukt::core
