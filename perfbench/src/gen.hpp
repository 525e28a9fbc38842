// Seeded input generator of the benchmark. Everything here is the
// benchmark's own code, so a change to the program (its synthetic datasets
// included) cannot change the inputs a seed produces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// xoshiro256** seeded through splitmix64: the same (seed, stream) pair
/// always yields the same sequence.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);

  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t s_[4];
};

/// Shape of a simulated long-read run over a random genome.
struct ReadSetShape {
  std::uint64_t genome_bases = 0;
  std::uint64_t read_min = 0;
  std::uint64_t read_max = 0;
  double coverage = 0.0;        ///< sampled bases / genome bases
  double substitution = 0.0;    ///< per-base substitution error rate
};

/// Random ACGT genome sampled into reads of uniform length in
/// [read_min, read_max] at uniform positions, half of them reverse
/// complemented, each base substituted with probability `substitution`.
[[nodiscard]] std::vector<std::string> make_reads(const ReadSetShape& shape,
                                                  std::uint64_t seed);

/// Writes the reads as four-line FASTQ records with a constant quality.
void write_fastq(const std::string& path,
                 const std::vector<std::string>& reads);

/// Zipf(s) sampler over ranks [0, n): P(rank r) is proportional to
/// 1 / (r + 1)^s. Rejection-inversion (Hörmann and Derflinger), O(1) per
/// sample; s > 0.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);
  [[nodiscard]] std::uint64_t sample(Rng& rng) const;

 private:
  [[nodiscard]] double h(double x) const;
  [[nodiscard]] double h_integral(double x) const;
  [[nodiscard]] double h_integral_inverse(double x) const;

  double n_;
  double s_;
  double h_integral_x1_;
  double h_integral_n_;
  double squeeze_;
};

}  // namespace perfbench
