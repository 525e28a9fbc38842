// Reference counter and output checks of the benchmark, written apart from
// the program: a naive hash-map k-mer counter over the benchmark's own
// packing of the documented randomized 2-bit encoding (A=1, C=0, T=2, G=3,
// first base in the most significant bits), and property checks that each
// return an empty string on success or a description of the first
// mismatch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Sorted (key, count) pairs.
using Counts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
/// multiplicity -> number of distinct k-mers with that multiplicity.
using Spectrum = std::map<std::uint64_t, std::uint64_t>;

/// Randomized-order 2-bit pack of an ACGT string of at most 31 bases.
[[nodiscard]] std::uint64_t pack_randomized(const std::string& bases);

/// Every k-mer occurrence of every read counted in one hash map.
[[nodiscard]] Counts reference_counts(const std::vector<std::string>& reads,
                                      int k);

/// Σ (len - k + 1) over reads at least k long.
[[nodiscard]] std::uint64_t expected_occurrences(
    const std::vector<std::string>& reads, int k);

[[nodiscard]] Spectrum spectrum_of(const Counts& counts);

// --- checks: "" when the property holds ---

[[nodiscard]] std::string check_counts(const Counts& actual,
                                       const Counts& reference);
[[nodiscard]] std::string check_spectrum(const Spectrum& actual,
                                         const Spectrum& reference);
/// Summed counts against Σ (len - k + 1).
[[nodiscard]] std::string check_total(const Counts& actual,
                                      std::uint64_t expected);
/// Σ bytes_sent == Σ bytes_received over ranks.
[[nodiscard]] std::string check_bytes_balance(
    const std::vector<std::uint64_t>& sent,
    const std::vector<std::uint64_t>& received);
/// Spill bytes written == spill bytes read, and something was spilled.
[[nodiscard]] std::string check_spill(std::uint64_t written,
                                      std::uint64_t read);
[[nodiscard]] std::string check_dir_empty(const std::string& path);
/// answers[i] == expected[i] for every query of a batch.
[[nodiscard]] std::string check_answers(
    const std::vector<std::uint64_t>& answers,
    const std::uint64_t* expected, std::size_t n);
/// A capped count histogram (bin i = keys with count i, last bin = keys
/// with count >= bins - 1) against the reference spectrum.
[[nodiscard]] std::string check_histogram(
    const std::vector<std::uint64_t>& bins, const Spectrum& reference);

}  // namespace perfbench
