// Out-of-core two-pass counting (--ooc-spill).
//
// Pass 1 streams read batches through the pipeline's parse machinery and
// appends destination-tagged runs of packed payload (k-mer keys or
// supermers, matching what the selected pipeline puts on the wire) to
// per-rank spill-bin files — the bin is a pure function of the k-mer key
// or supermer minimizer, so pass 2 can process bins independently.
// Pass 2 replays one bin at a time against the persistent per-rank tables:
// the bin's payload goes through the same exchange as the in-memory run and
// then through the selected pipeline's own count phase, bounding the
// exchange working set by 1/bins of the dataset instead of the whole input.
// The run itself is reached through run_distributed_count /
// run_distributed_count_wide with DriverOptions::ooc set.
//
// Spectra, global counts and (for hash routing) per-rank tallies are
// bit-identical to the in-memory path: every occurrence of a key follows
// the same destination function, only grouped differently in time. Disk
// traffic is priced by io::DiskModel into the two out-of-core-only phases
// (kPhaseSpill / kPhaseReload).
#pragma once

#include <cstdint>

#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/wide.hpp"

namespace dedukt::core {

/// Seed of the spill-bin hash — distinct from kDestinationHashSeed (rank
/// routing) and the tables' probe seed, so bins do not inherit either
/// partition's structure.
inline constexpr std::uint64_t kSpillBinSeed = 0x5B1Du;

/// Spill bin of a 64-bit key/minimizer (stable, independent of nranks).
[[nodiscard]] inline std::uint32_t spill_bin_of(std::uint64_t value,
                                                std::uint32_t bins) {
  return hash::to_partition(hash::hash_u64(value, kSpillBinSeed), bins);
}

/// Spill bin of a two-word key (wide-k CPU runs).
[[nodiscard]] inline std::uint32_t spill_bin_of(const kmer::WideKey& key,
                                                std::uint32_t bins) {
  return hash::to_partition(kmer::hash_wide(key, kSpillBinSeed), bins);
}

}  // namespace dedukt::core
