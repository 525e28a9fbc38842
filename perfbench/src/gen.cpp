#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

constexpr char kBases[4] = {'A', 'C', 'G', 'T'};

char complement(char b) {
  switch (b) {
    case 'A': return 'T';
    case 'C': return 'G';
    case 'G': return 'C';
    default: return 'A';
  }
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x632be59bd9b4e019ULL + stream;
  for (auto& word : s_) word = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Lemire's multiply-shift; the bias at these n is far below 2^-32.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * n) >> 64);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<std::string> make_reads(const ReadSetShape& shape,
                                    std::uint64_t seed) {
  if (shape.read_min == 0 || shape.read_max < shape.read_min ||
      shape.genome_bases < shape.read_max) {
    throw std::invalid_argument("bad read-set shape");
  }
  Rng genome_rng(seed, 1);
  std::string genome(shape.genome_bases, 'A');
  for (char& b : genome) b = kBases[genome_rng.below(4)];

  Rng rng(seed, 2);
  const auto target = static_cast<std::uint64_t>(
      shape.coverage * static_cast<double>(shape.genome_bases));
  std::vector<std::string> reads;
  std::uint64_t sampled = 0;
  while (sampled < target) {
    const std::uint64_t len =
        shape.read_min + rng.below(shape.read_max - shape.read_min + 1);
    const std::uint64_t start = rng.below(shape.genome_bases - len + 1);
    std::string read = genome.substr(start, len);
    if (rng.below(2) == 1) {
      std::reverse(read.begin(), read.end());
      for (char& b : read) b = complement(b);
    }
    for (char& b : read) {
      if (rng.uniform() < shape.substitution) {
        // One of the three other bases.
        const char* pos = std::find(kBases, kBases + 4, b);
        b = kBases[(static_cast<std::uint64_t>(pos - kBases) + 1 +
                    rng.below(3)) % 4];
      }
    }
    sampled += len;
    reads.push_back(std::move(read));
  }
  return reads;
}

void write_fastq(const std::string& path,
                 const std::vector<std::string>& reads) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    out << "@read" << i << '\n'
        << reads[i] << "\n+\n"
        << std::string(reads[i].size(), 'I') << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("short write to " + path);
}

namespace {

// log1p(x)/x and expm1(x)/x, continuous at 0.
double log1p_over(double x) {
  return std::abs(x) > 1e-8 ? std::log1p(x) / x
                            : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
}
double expm1_over(double x) {
  return std::abs(x) > 1e-8 ? std::expm1(x) / x
                            : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(static_cast<double>(n)), s_(s) {
  if (n == 0 || !(s > 0.0)) throw std::invalid_argument("bad Zipf parameters");
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(n_ + 0.5);
  squeeze_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  return expm1_over((1.0 - s_) * log_x) * log_x;
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;
  return std::exp(log1p_over(t) * x);
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  // Ranks are 1-based inside the method, 0-based outside.
  while (true) {
    const double u =
        h_integral_n_ + rng.uniform() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    double k = std::floor(x + 0.5);
    k = std::clamp(k, 1.0, n_);
    if (k - x <= squeeze_ || u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<std::uint64_t>(k) - 1;
    }
  }
}

}  // namespace perfbench
