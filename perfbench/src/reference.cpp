#include "reference.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint64_t code_of(char b) {
  switch (b) {
    case 'A': return 1;
    case 'C': return 0;
    case 'T': return 2;
    case 'G': return 3;
    default: throw std::invalid_argument(std::string("non-ACGT base ") + b);
  }
}

}  // namespace

std::uint64_t pack_randomized(const std::string& bases) {
  if (bases.empty() || bases.size() > 31) {
    throw std::invalid_argument("pack_randomized takes 1..31 bases");
  }
  std::uint64_t code = 0;
  for (char b : bases) code = (code << 2) | code_of(b);
  return code;
}

Counts reference_counts(const std::vector<std::string>& reads, int k) {
  if (k < 1 || k > 31) throw std::invalid_argument("k must be in 1..31");
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(expected_occurrences(reads, k) / 8);
  const auto kk = static_cast<std::size_t>(k);
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
  for (const auto& read : reads) {
    // Rolling form of pack_randomized over each k-base window.
    std::uint64_t code = 0;
    for (std::size_t i = 0; i < read.size(); ++i) {
      code = ((code << 2) | code_of(read[i])) & mask;
      if (i + 1 >= kk) ++table[code];
    }
  }
  Counts out(table.begin(), table.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t expected_occurrences(const std::vector<std::string>& reads,
                                   int k) {
  std::uint64_t n = 0;
  for (const auto& read : reads) {
    if (read.size() >= static_cast<std::size_t>(k)) {
      n += read.size() - static_cast<std::size_t>(k) + 1;
    }
  }
  return n;
}

Spectrum spectrum_of(const Counts& counts) {
  Spectrum s;
  for (const auto& [key, count] : counts) ++s[count];
  return s;
}

std::string check_counts(const Counts& actual, const Counts& reference) {
  std::ostringstream err;
  const std::size_t n = std::min(actual.size(), reference.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (actual[i] != reference[i]) {
      err << "counts differ at entry " << i << ": got (" << actual[i].first
          << ", " << actual[i].second << "), reference ("
          << reference[i].first << ", " << reference[i].second << ")";
      return err.str();
    }
  }
  if (actual.size() != reference.size()) {
    err << "count table has " << actual.size() << " keys, reference "
        << reference.size();
  }
  return err.str();
}

std::string check_spectrum(const Spectrum& actual, const Spectrum& reference) {
  if (actual == reference) return "";
  for (const auto& [mult, n] : reference) {
    const auto it = actual.find(mult);
    const std::uint64_t got = it == actual.end() ? 0 : it->second;
    if (got != n) {
      std::ostringstream err;
      err << "spectrum differs at multiplicity " << mult << ": got " << got
          << ", reference " << n;
      return err.str();
    }
  }
  return "spectrum has multiplicities the reference lacks";
}

std::string check_total(const Counts& actual, std::uint64_t expected) {
  std::uint64_t sum = 0;
  for (const auto& entry : actual) sum += entry.second;
  if (sum == expected) return "";
  std::ostringstream err;
  err << "summed counts " << sum << " != sum(len - k + 1) " << expected;
  return err.str();
}

std::string check_bytes_balance(const std::vector<std::uint64_t>& sent,
                                const std::vector<std::uint64_t>& received) {
  std::uint64_t s = 0;
  std::uint64_t r = 0;
  for (auto v : sent) s += v;
  for (auto v : received) r += v;
  if (s == r && s > 0) return "";
  std::ostringstream err;
  err << "bytes sent " << s << " vs received " << r;
  return err.str();
}

std::string check_spill(std::uint64_t written, std::uint64_t read) {
  if (written == read && written > 0) return "";
  std::ostringstream err;
  err << "spill bytes written " << written << " vs read " << read;
  return err.str();
}

std::string check_dir_empty(const std::string& path) {
  if (!std::filesystem::is_directory(path)) return "missing directory " + path;
  if (std::filesystem::is_empty(path)) return "";
  return "directory not empty: " + path;
}

std::string check_answers(const std::vector<std::uint64_t>& answers,
                          const std::uint64_t* expected, std::size_t n) {
  if (answers.size() != n) return "answer count differs from query count";
  for (std::size_t i = 0; i < n; ++i) {
    if (answers[i] != expected[i]) {
      std::ostringstream err;
      err << "answer " << i << " is " << answers[i] << ", reference "
          << expected[i];
      return err.str();
    }
  }
  return "";
}

std::string check_histogram(const std::vector<std::uint64_t>& bins,
                            const Spectrum& reference) {
  if (bins.size() < 2) return "histogram has fewer than two bins";
  std::vector<std::uint64_t> want(bins.size(), 0);
  for (const auto& [mult, n] : reference) {
    want[std::min<std::uint64_t>(mult, bins.size() - 1)] += n;
  }
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i] != want[i]) {
      std::ostringstream err;
      err << "histogram bin " << i << " is " << bins[i] << ", reference "
          << want[i];
      return err.str();
    }
  }
  return "";
}

}  // namespace perfbench
