// Shows that every output check of the benchmark can fail: each check is
// fed a correct output (must pass) and a perturbed one (must fail). Exits
// non-zero on the first check that does not behave.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "gen.hpp"
#include "reference.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect_pass(const std::string& what, const std::string& error) {
  if (!error.empty()) {
    std::cerr << "FAIL " << what << ": correct output rejected: " << error << "\n";
    ++failures;
  }
}

void expect_fail(const std::string& what, const std::string& error) {
  if (error.empty()) {
    std::cerr << "FAIL " << what << ": perturbed output accepted\n";
    ++failures;
  } else {
    std::cout << "ok   " << what << " -> " << error << "\n";
  }
}

}  // namespace

int main() {
  constexpr int k = 17;
  const ReadSetShape shape{20'000, 500, 1'500, 3.0, 0.01};
  const std::vector<std::string> reads = make_reads(shape, 7);
  const Counts reference = reference_counts(reads, k);
  const Spectrum spectrum = spectrum_of(reference);
  const std::uint64_t total = expected_occurrences(reads, k);

  // The packing follows the documented randomized order, first base high.
  expect_pass("pack", pack_randomized("ACTG") == 0b01'00'10'11
                          ? ""
                          : "randomized packing of ACTG is wrong");

  // The rolling reference agrees with packing every window on its own.
  Counts windowed;
  {
    std::map<std::uint64_t, std::uint64_t> table;
    for (const auto& read : reads) {
      for (std::size_t i = 0; i + k <= read.size(); ++i) {
        ++table[pack_randomized(read.substr(i, k))];
      }
    }
    windowed.assign(table.begin(), table.end());
  }
  expect_pass("reference", check_counts(windowed, reference));

  expect_pass("counts", check_counts(reference, reference));
  expect_pass("spectrum", check_spectrum(spectrum, spectrum));
  expect_pass("total", check_total(reference, total));

  Counts changed = reference;
  changed[changed.size() / 2].second += 1;
  expect_fail("one count changed", check_counts(changed, reference));
  expect_fail("one count changed (spectrum)",
              check_spectrum(spectrum_of(changed), spectrum));
  expect_fail("one count changed (total)", check_total(changed, total));

  Counts dropped = reference;
  dropped.erase(dropped.begin() + static_cast<long>(dropped.size() / 3));
  expect_fail("one key dropped", check_counts(dropped, reference));
  expect_fail("one key dropped (spectrum)",
              check_spectrum(spectrum_of(dropped), spectrum));
  expect_fail("one key dropped (total)", check_total(dropped, total));

  Counts last_dropped = reference;
  last_dropped.pop_back();
  expect_fail("last key dropped", check_counts(last_dropped, reference));

  expect_pass("bytes balance", check_bytes_balance({10, 20}, {25, 5}));
  expect_fail("bytes unequal", check_bytes_balance({10, 20}, {25, 6}));

  expect_pass("spill", check_spill(4096, 4096));
  expect_fail("spill bytes unequal", check_spill(4096, 4095));

  const std::string dir = "perfbench_checks_test_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  expect_pass("spill dir", check_dir_empty(dir));
  std::ofstream(dir + "/leftover.bin") << "x";
  expect_fail("spill dir left non-empty", check_dir_empty(dir));
  std::filesystem::remove_all(dir);

  const std::vector<std::uint64_t> expected = {3, 0, 7, 1};
  std::vector<std::uint64_t> answers = expected;
  expect_pass("answers", check_answers(answers, expected.data(), expected.size()));
  answers[2] = 8;
  expect_fail("one served answer altered",
              check_answers(answers, expected.data(), expected.size()));
  answers = {3, 0, 7};
  expect_fail("one served answer missing",
              check_answers(answers, expected.data(), expected.size()));

  std::vector<std::uint64_t> bins(256, 0);
  for (const auto& [mult, n] : spectrum) bins[std::min<std::uint64_t>(mult, 255)] += n;
  expect_pass("histogram", check_histogram(bins, spectrum));
  bins[1] -= 1;
  expect_fail("histogram bin altered", check_histogram(bins, spectrum));

  // The Zipf sampler draws rank 0 with probability 1 / H(n) at s = 1.
  {
    constexpr std::uint64_t n = 1000;
    constexpr int draws = 200'000;
    const ZipfSampler zipf(n, 1.0);
    Rng rng(3, 3);
    int top = 0;
    for (int i = 0; i < draws; ++i) top += zipf.sample(rng) == 0 ? 1 : 0;
    double harmonic = 0.0;
    for (std::uint64_t r = 1; r <= n; ++r) harmonic += 1.0 / static_cast<double>(r);
    const double share = static_cast<double>(top) / draws;
    expect_pass("zipf", std::abs(share * harmonic - 1.0) < 0.05
                            ? ""
                            : "rank-0 share " + std::to_string(share) +
                                  " is off 1/H(n)");
  }

  if (failures != 0) {
    std::cerr << failures << " check(s) misbehaved\n";
    return 1;
  }
  std::cout << "every check rejects its perturbed output\n";
  return 0;
}
