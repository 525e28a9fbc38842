// perfbench — the workloads of the end-to-end benchmark (run.py drives it).
//
//   perfbench setup --workload W --seed S --dir D
//       Generates the workload's inputs under D (and, for serve-zipf, counts
//       them and writes the store). Prints one JSON line of layer metrics.
//   perfbench run --workload W --seed S --dir D --seconds N --t0 T --trace B
//       Runs the workload for about N seconds of timed work, checks every
//       output against the benchmark's reference, and prints one JSON line:
//       end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
//       T is the CLOCK_MONOTONIC time at which run.py spawned the process.
//
// The program is driven only through its public functions: io (FASTQ read
// and streaming), core (run_distributed_count, write_store_from_result),
// store (KmerStore::open, DistributedQueryEngine) and mpisim (Runtime::run).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/core/store_export.hpp"
#include "dedukt/io/fastq.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/store/distributed_query.hpp"
#include "dedukt/store/store.hpp"
#include "dedukt/trace/session.hpp"
#include "dedukt/util/thread_pool.hpp"
#include "gen.hpp"
#include "reference.hpp"

namespace fs = std::filesystem;
using namespace dedukt;
using perfbench::Counts;
using perfbench::Spectrum;

namespace {

// ---- Fixed workload shape (README.md documents each choice) ----

/// Simulated ranks of every counting job and of the serving tier. With
/// kSimThreads pool threads (run.py sets DEDUKT_SIM_THREADS) the program
/// never runs more than 4 threads of work, the machine's core count.
constexpr int kRanks = 2;
constexpr int kSimThreads = 1;
constexpr int kK = 17;
/// Input-size factor of the modeled projection: large enough that volume
/// terms, not fixed launch and message latencies, dominate the modeled job.
constexpr double kProjection = 100.0;
/// 600 kbp genome at 5x in 2-8 kbp reads with 1% substitutions: ~3 M bases.
const perfbench::ReadSetShape kReadShape{600'000, 2'000, 8'000, 5.0, 0.01};
/// ingest-ooc: FASTQ bytes per streamed batch and spill bins per rank.
constexpr std::uint64_t kIngestBatchBytes = 1u << 20;
constexpr int kOocBins = 8;
/// serve-zipf: shards in the store (4 per serving rank), per-rank cache
/// budget (3 of its 4 shards), keys per lookup batch, batches between two
/// full-store histogram scans, and the Zipf exponent over stored k-mers.
constexpr std::uint32_t kStoreShards = 8;
constexpr std::uint32_t kCacheShards = 3;
constexpr std::size_t kBatchKeys = 1024;
constexpr int kBatchesPerRound = 64;
constexpr double kZipfExponent = 1.0;
/// One query in kAbsentEvery asks for a k-mer the store does not hold.
constexpr std::uint64_t kAbsentEvery = 8;
/// Timed rounds whose modeled serve time gives the modeled metrics; the
/// query pool holds one warm-up round plus these, and repeats after.
constexpr int kFixedRounds = 16;
/// Counting workloads time at least this many jobs after the warm-up job.
/// peak_rss_mb is read after exactly these: one job's peak swings by a
/// fifth between identical runs with the timing of the two rank threads,
/// and the peak over 12 back-to-back jobs is steady.
constexpr int kMinJobs = 11;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double monotonic_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

/// Peak resident set of this process so far, in MB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB-ish MB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

std::uint64_t digest(const Counts& counts) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [key, count] : counts) {
    h = (h ^ key) * 1099511628211ULL;
    h = (h ^ count) * 1099511628211ULL;
  }
  return h;
}

// ---- Output ----

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed checks, first few kept
  Metrics metrics;
  double setup_tail_s = 0.0;  ///< this process's start -> timed work

  /// Records a check result; a non-empty message is a failed check.
  bool expect(const std::string& error) {
    if (error.empty()) return true;
    if (errors.size() < 8) errors.push_back(error);
    return false;
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

void print_outcome(const Outcome& o) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (o.errors.empty() ? "true" : "false")
      << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
      << ", \"setup_tail_s\": " << o.setup_tail_s << ", \"errors\": [";
  for (std::size_t i = 0; i < o.errors.size(); ++i) {
    out << (i ? ", " : "") << '"' << json_escape(o.errors[i]) << '"';
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : o.metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---- Per-layer metrics ----

/// Kernels whose modeled time the traced run reports (0 when a workload
/// does not launch them).
const char* const kKernels[] = {
    "supermer_count",     "supermer_fill",  "hash_count_supermers",
    "hash_count_kmers",   "hash_reduce_unique", "lookup_bsearch",
    "value_histogram",
};

/// Every per-layer metric, zero-initialized: a workload that bypasses a
/// layer reports 0 for it.
Metrics zero_layer_metrics() {
  Metrics m;
  auto add = [&](const std::string& name, const char* unit) {
    m[name] = {0.0, unit};
  };
  for (const char* n : {"io.fastq_read_s", "io.spill_s", "io.reload_s",
                        "core.parse_s", "core.exchange_s", "core.count_s",
                        "core.parse_modeled_s", "core.exchange_modeled_s",
                        "core.count_modeled_s", "mpisim.alltoallv_modeled_s",
                        "store.write_s", "store.open_s",
                        "store.exchange_modeled_s", "store.lookup_modeled_s"}) {
    add(n, "s");
  }
  for (const char* n : {"io.spill_write_mb", "io.spill_read_mb",
                        "core.peak_resident_mb", "mpisim.exchanged_mb",
                        "gpusim.h2d_mb", "gpusim.d2h_mb", "store.disk_mb",
                        "store.staged_mb", "store.nic_mb"}) {
    add(n, "MB");
  }
  for (const char* n : {"kmer.supermers", "mpisim.collective_calls",
                        "gpusim.launches", "gpusim.smem_atomics"}) {
    add(n, "count");
  }
  for (const char* n : {"kmer.kmers_per_supermer", "core.load_imbalance",
                        "store.cache_hit_ratio", "store.dedup_saved_ratio",
                        "trace.overhead_ratio"}) {
    add(n, "ratio");
  }
  add("io.fastq_mb_per_s", "MB/s");
  add("mpisim.run_us", "us");
  for (const char* k : kKernels) add(std::string("gpusim.kernel_modeled_s.") + k, "s");
  return m;
}

/// gpusim and mpisim figures of everything recorded since the last reset.
void add_trace_layers(Metrics& m, int ranks) {
  auto& session = trace::TraceSession::instance();
  const trace::MetricsReport report = session.metrics();
  std::uint64_t launches = 0;
  std::uint64_t smem_atomics = 0;
  for (const auto& [name, k] : report.kernel_totals()) {
    launches += k.launches;
    smem_atomics += k.smem_atomics;
    const std::string key = "gpusim.kernel_modeled_s." + name;
    if (m.count(key)) {
      m[key].value = k.modeled_seconds;
    } else {
      std::cerr << "perfbench: kernel " << name << " is not reported\n";
    }
  }
  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  std::uint64_t sent = 0;
  for (const auto& r : report.ranks) {
    auto get = [&](const char* c) {
      const auto it = r.counters.find(c);
      return it == r.counters.end() ? std::uint64_t{0} : it->second;
    };
    h2d += get("device.h2d_bytes");
    d2h += get("device.d2h_bytes");
    sent += get("comm.bytes_sent");
  }
  std::uint64_t collectives = 0;
  for (int r = trace::SpanRecorder::kMainRank; r < ranks; ++r) {
    for (const auto& span : session.recorder(r).spans_snapshot()) {
      if (std::strcmp(span.category, trace::kCategoryCollective) == 0) {
        ++collectives;
      }
    }
  }
  m["gpusim.launches"].value = static_cast<double>(launches);
  m["gpusim.smem_atomics"].value = static_cast<double>(smem_atomics);
  m["gpusim.h2d_mb"].value = mb(h2d);
  m["gpusim.d2h_mb"].value = mb(d2h);
  m["mpisim.exchanged_mb"].value = mb(sent);
  m["mpisim.collective_calls"].value = static_cast<double>(collectives);
}

/// Median wall time of one empty Runtime::run at `ranks`, in microseconds.
double runtime_run_us(int ranks) {
  mpisim::Runtime runtime(ranks);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const auto t = Clock::now();
    runtime.run([](mpisim::Comm&) {});
    us.push_back(seconds_since(t) * 1e6);
  }
  return median(us);
}

/// Core, kmer and mpisim figures from a counting job's public ledger.
void add_count_layers(Metrics& m, const core::CountResult& r) {
  const PhaseTimes measured = r.measured_breakdown();
  const PhaseTimes modeled = r.projected_breakdown(kProjection);
  const core::RankMetrics t = r.totals();
  m["core.parse_s"].value = measured.get(core::kPhaseParse);
  m["core.exchange_s"].value = measured.get(core::kPhaseExchange);
  m["core.count_s"].value = measured.get(core::kPhaseCount);
  m["io.spill_s"].value = measured.get(core::kPhaseSpill);
  m["io.reload_s"].value = measured.get(core::kPhaseReload);
  m["core.parse_modeled_s"].value = modeled.get(core::kPhaseParse);
  m["core.exchange_modeled_s"].value = modeled.get(core::kPhaseExchange);
  m["core.count_modeled_s"].value = modeled.get(core::kPhaseCount);
  m["core.load_imbalance"].value = r.load_imbalance();
  m["core.peak_resident_mb"].value = mb(t.peak_resident_bytes);
  m["kmer.supermers"].value = static_cast<double>(r.total_supermers());
  m["kmer.kmers_per_supermer"].value =
      r.total_supermers() == 0
          ? 0.0
          : static_cast<double>(t.kmers_parsed) /
                static_cast<double>(r.total_supermers());
  m["io.spill_write_mb"].value = mb(t.spill_bytes_written);
  m["io.spill_read_mb"].value = mb(t.spill_bytes_read);
  m["mpisim.alltoallv_modeled_s"].value =
      r.projected_alltoallv_seconds(kProjection);
}

// ---- Inputs ----

struct Paths {
  std::string dir;
  std::string fastq() const { return dir + "/reads.fastq"; }
  std::string spill() const { return dir + "/spill"; }
  std::string ingest_store() const { return dir + "/ingest_store"; }
  std::string serve_store() const { return dir + "/store"; }
  std::string reference() const { return dir + "/reference.bin"; }
  std::string queries() const { return dir + "/queries.bin"; }
  std::string spectrum() const { return dir + "/spectrum.bin"; }
};

void write_u64s(std::ofstream& out, const std::vector<std::uint64_t>& v) {
  const std::uint64_t n = v.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
}

std::vector<std::uint64_t> read_u64s(std::ifstream& in) {
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!in || n > (1ULL << 32)) throw std::runtime_error("bad input file");
  std::vector<std::uint64_t> v(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
  if (!in) throw std::runtime_error("truncated input file");
  return v;
}

/// reference.bin: Σ (len - k + 1), then the reference counts' keys and
/// counts.
struct ReferenceFile {
  std::uint64_t occurrences = 0;
  Counts counts;
};

void write_reference(const Paths& p, std::uint64_t occurrences,
                     const Counts& counts) {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> values;
  for (const auto& [key, count] : counts) {
    keys.push_back(key);
    values.push_back(count);
  }
  std::ofstream out(p.reference(), std::ios::binary | std::ios::trunc);
  write_u64s(out, {occurrences});
  write_u64s(out, keys);
  write_u64s(out, values);
  if (!out) throw std::runtime_error("cannot write " + p.reference());
}

/// `with_counts` = false reads the total alone.
ReferenceFile read_reference(const Paths& p, bool with_counts) {
  std::ifstream in(p.reference(), std::ios::binary);
  ReferenceFile ref;
  const std::vector<std::uint64_t> total = read_u64s(in);
  if (total.size() != 1) throw std::runtime_error("bad reference file");
  ref.occurrences = total[0];
  if (with_counts) {
    const std::vector<std::uint64_t> keys = read_u64s(in);
    const std::vector<std::uint64_t> values = read_u64s(in);
    if (keys.size() != values.size()) throw std::runtime_error("bad reference file");
    ref.counts.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) ref.counts.emplace_back(keys[i], values[i]);
  }
  return ref;
}

core::DriverOptions count_options(core::PipelineKind kind) {
  core::DriverOptions o;
  o.pipeline.kind = kind;
  o.pipeline.k = kK;
  o.nranks = kRanks;
  return o;
}

struct QueryPool {
  std::vector<std::uint64_t> keys;      ///< batch b = [b*kBatchKeys, +kBatchKeys)
  std::vector<std::uint64_t> expected;  ///< reference answer per key
  std::size_t batches() const { return keys.size() / kBatchKeys; }
};

/// Zipf traffic over the stored k-mers (popularity rank -> key through a
/// seeded permutation), one query in kAbsentEvery for an absent k-mer.
QueryPool make_query_pool(const Counts& reference, std::uint64_t seed) {
  perfbench::Rng rng(seed, 3);
  std::vector<std::uint32_t> by_rank(reference.size());
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  for (std::size_t i = by_rank.size(); i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.below(i)]);
  }
  const perfbench::ZipfSampler zipf(reference.size(), kZipfExponent);
  QueryPool pool;
  const std::size_t n =
      static_cast<std::size_t>(kFixedRounds + 1) * kBatchesPerRound * kBatchKeys;
  pool.keys.reserve(n);
  pool.expected.reserve(n);
  const std::uint64_t key_space = 1ULL << (2 * kK);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.below(kAbsentEvery) == 0) {
      std::uint64_t key = 0;
      do {
        key = rng.below(key_space);
      } while (std::binary_search(
          reference.begin(), reference.end(), std::make_pair(key, 0ULL),
          [](const auto& a, const auto& b) { return a.first < b.first; }));
      pool.keys.push_back(key);
      pool.expected.push_back(0);
    } else {
      const auto& entry = reference[by_rank[zipf.sample(rng)]];
      pool.keys.push_back(entry.first);
      pool.expected.push_back(entry.second);
    }
  }
  return pool;
}

/// Set-up: the FASTQ input and the reference answers every workload's
/// checks need; serve-zipf also counts the input, writes the store it
/// serves, and draws its query pool.
void setup(const std::string& workload, std::uint64_t seed, const Paths& p) {
  fs::create_directories(p.dir);
  const std::vector<std::string> reads = perfbench::make_reads(kReadShape, seed);
  perfbench::write_fastq(p.fastq(), reads);
  const Counts reference = perfbench::reference_counts(reads, kK);
  write_reference(p, perfbench::expected_occurrences(reads, kK), reference);
  Outcome o;
  o.attempted = 1;
  if (workload == "serve-zipf") {
    // The store a GPU k-mer count writes, sharded as an 8-rank run would
    // shard it (store_routing_for is the routing write_store_from_result
    // derives), so each of the kRanks serving ranks owns several shards.
    const core::DriverOptions opts = count_options(core::PipelineKind::kGpuKmer);
    io::ReadBatch batch = io::read_fastq_file(p.fastq());
    const core::CountResult result = core::run_distributed_count(batch, opts);
    if (!o.expect(perfbench::check_counts(result.global_counts, reference))) {
      o.failed = 1;
    }
    fs::create_directories(p.serve_store());
    const auto t = Clock::now();
    store::write_store(p.serve_store(), result.global_counts,
                       opts.pipeline.encoding(),
                       core::store_routing_for(opts.pipeline, kStoreShards));
    o.metrics["store.write_s"] = {seconds_since(t), "s"};

    const QueryPool pool = make_query_pool(reference, seed);
    std::ofstream q(p.queries(), std::ios::binary | std::ios::trunc);
    write_u64s(q, pool.keys);
    write_u64s(q, pool.expected);
    std::vector<std::uint64_t> spec;
    for (const auto& [mult, n] : perfbench::spectrum_of(reference)) {
      spec.push_back(mult);
      spec.push_back(n);
    }
    std::ofstream s(p.spectrum(), std::ios::binary | std::ios::trunc);
    write_u64s(s, spec);
    if (!q || !s) throw std::runtime_error("cannot write query pool");
  }
  print_outcome(o);
}

// ---- Counting workloads ----

/// FastqBatchStream with its next() timed (io.fastq_read_s on ingest-ooc).
class TimedFastqStream final : public io::ReadBatchStream {
 public:
  TimedFastqStream(const std::string& path, io::BatchBounds bounds)
      : inner_(path, bounds) {}

  std::optional<io::ReadBatch> next() override {
    const auto t = Clock::now();
    auto batch = inner_.next();
    seconds_ += seconds_since(t);
    return batch;
  }

  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  io::FastqBatchStream inner_;
  double seconds_ = 0.0;
};

struct JobRun {
  core::CountResult result;
  double job_s = 0.0;
  double fastq_s = 0.0;
  double write_s = 0.0;
};

JobRun run_job(const std::string& workload, const Paths& p) {
  JobRun run;
  if (workload == "count-supermer") {
    const auto t = Clock::now();
    const io::ReadBatch reads = io::read_fastq_file(p.fastq());
    run.fastq_s = seconds_since(t);
    run.result = core::run_distributed_count(
        reads, count_options(core::PipelineKind::kGpuSupermer));
    run.job_s = seconds_since(t);
    return run;
  }
  // ingest-ooc: the previous job's store goes before the clock starts.
  fs::remove_all(p.ingest_store());
  fs::create_directories(p.spill());
  core::DriverOptions opts = count_options(core::PipelineKind::kGpuKmer);
  opts.ooc.spill_root = p.spill();
  opts.ooc.bins = kOocBins;
  const auto t = Clock::now();
  TimedFastqStream stream(p.fastq(), io::BatchBounds{0, kIngestBatchBytes});
  run.result = core::run_distributed_count(stream, opts);
  const auto w = Clock::now();
  fs::create_directories(p.ingest_store());
  core::write_store_from_result(p.ingest_store(), run.result);
  run.write_s = seconds_since(w);
  run.job_s = seconds_since(t);
  run.fastq_s = stream.seconds();
  return run;
}

/// Cheap per-job checks; the key-for-key check runs once, on the last job,
/// and every other job must produce the same digest.
bool check_job(Outcome& o, const std::string& workload, const Paths& p,
               const JobRun& run, std::uint64_t expected_total) {
  const auto& r = run.result;
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> received;
  for (const auto& rank : r.ranks) {
    sent.push_back(rank.bytes_sent);
    received.push_back(rank.bytes_received);
  }
  bool ok = o.expect(perfbench::check_total(r.global_counts, expected_total));
  ok = o.expect(perfbench::check_bytes_balance(sent, received)) && ok;
  if (workload == "ingest-ooc") {
    const core::RankMetrics t = r.totals();
    ok = o.expect(perfbench::check_spill(t.spill_bytes_written,
                                         t.spill_bytes_read)) && ok;
    ok = o.expect(perfbench::check_dir_empty(p.spill())) && ok;
  }
  return ok;
}

void run_counting(const std::string& workload, const Paths& p,
                  double seconds, bool traced, double t0) {
  Outcome o;
  const std::uint64_t expected_total =
      read_reference(p, false).occurrences;
  o.setup_tail_s = monotonic_now() - t0;

  JobRun last;
  bool last_ok = true;
  std::vector<std::uint64_t> digests;
  double rss = 0.0;
  auto one_job = [&](std::vector<double>* times) {
    last = JobRun{};  // release the previous job's result first
    last = run_job(workload, p);
    ++o.attempted;
    last_ok = check_job(o, workload, p, last, expected_total);
    if (!last_ok) ++o.failed;
    digests.push_back(digest(last.result.global_counts));
    if (times) times->push_back(last.job_s);
  };
  auto timed_loop = [&](double budget, std::vector<double>& times,
                        auto&& after_job) {
    const auto start = Clock::now();
    while (static_cast<int>(times.size()) < kMinJobs ||
           seconds_since(start) < budget) {
      one_job(&times);
      if (rss == 0.0 && static_cast<int>(times.size()) == kMinJobs) {
        rss = peak_rss_mb();
      }
      after_job();
    }
  };

  one_job(nullptr);  // warm-up
  std::vector<double> times;
  Metrics layers = zero_layer_metrics();
  if (!traced) {
    timed_loop(seconds, times, [] {});
  } else {
    timed_loop(seconds / 2, times, [] {});
    auto& session = trace::TraceSession::instance();
    session.enable("");
    std::vector<double> traced_times;
    std::map<std::string, std::vector<double>> walls;
    timed_loop(seconds / 2, traced_times, [&] {
      walls["io.fastq_read_s"].push_back(last.fastq_s);
      walls["store.write_s"].push_back(last.write_s);
      const PhaseTimes measured = last.result.measured_breakdown();
      walls["core.parse_s"].push_back(measured.get(core::kPhaseParse));
      walls["core.exchange_s"].push_back(measured.get(core::kPhaseExchange));
      walls["core.count_s"].push_back(measured.get(core::kPhaseCount));
      walls["io.spill_s"].push_back(measured.get(core::kPhaseSpill));
      walls["io.reload_s"].push_back(measured.get(core::kPhaseReload));
      add_trace_layers(layers, kRanks);
      session.reset();
    });
    session.disable();
    add_count_layers(layers, last.result);
    for (const auto& [name, v] : walls) layers[name].value = median(v);
    layers["io.fastq_mb_per_s"].value =
        mb(fs::file_size(p.fastq())) / layers["io.fastq_read_s"].value;
    layers["trace.overhead_ratio"].value = median(traced_times) / median(times);
    layers["mpisim.run_us"].value = runtime_run_us(kRanks);
  }
  // Key-for-key check of the last job against the reference counter.
  const Counts reference = read_reference(p, true).counts;
  const Spectrum ref_spectrum = perfbench::spectrum_of(reference);
  bool ok = o.expect(perfbench::check_counts(last.result.global_counts, reference));
  ok = o.expect(perfbench::check_spectrum(last.result.spectrum(), ref_spectrum)) && ok;
  if (workload == "ingest-ooc") {
    const auto t = Clock::now();
    const store::KmerStore reopened = store::KmerStore::open(p.ingest_store());
    layers["store.open_s"].value = seconds_since(t);
    layers["store.disk_mb"].value = mb(dir_bytes(p.ingest_store()));
    ok = o.expect(perfbench::check_counts(reopened.scan_all(), reference)) && ok;
  }
  if (!ok && last_ok) ++o.failed;
  for (std::size_t i = 0; i + 1 < digests.size(); ++i) {
    if (digests[i] != digests.back()) {
      ++o.failed;
      o.expect("job " + std::to_string(i) + " counted differently from the last job");
    }
  }

  std::cerr << "perfbench: job seconds";
  for (double t : times) std::cerr << ' ' << t;
  std::cerr << '\n';
  if (traced) {
    o.metrics = layers;
  } else {
    const double job_s = median(times);
    const double modeled_s =
        last.result.projected_breakdown(kProjection).total();
    const double kmers = static_cast<double>(expected_total);
    o.metrics["op_ms"] = {job_s * 1e3, "ms"};
    o.metrics["kmers_per_s"] = {kmers / job_s, "kmer/s"};
    o.metrics["modeled_kmers_per_s"] = {kProjection * kmers / modeled_s,
                                        "kmer/s"};
    o.metrics["modeled_p99_ms"] = {modeled_s * 1e3, "ms"};
    o.metrics["peak_rss_mb"] = {rss, "MB"};
  }
  print_outcome(o);
}

// ---- Serving workload ----

void run_serving(const Paths& p, double seconds, bool traced, double t0) {
  Outcome o;
  Metrics layers = zero_layer_metrics();
  auto t = Clock::now();
  const store::KmerStore store = store::KmerStore::open(p.serve_store());
  layers["store.open_s"].value = seconds_since(t);
  layers["store.disk_mb"].value = mb(dir_bytes(p.serve_store()));
  store::DistributedQueryConfig config;
  config.ranks = kRanks;
  config.cache_shards = kCacheShards;
  config.freq_admission = true;
  store::DistributedQueryEngine tier(store, config);
  QueryPool pool;
  Spectrum spectrum;
  {
    std::ifstream q(p.queries(), std::ios::binary);
    pool.keys = read_u64s(q);
    pool.expected = read_u64s(q);
    std::ifstream s(p.spectrum(), std::ios::binary);
    const std::vector<std::uint64_t> spec = read_u64s(s);
    for (std::size_t i = 0; i + 1 < spec.size(); i += 2) spectrum[spec[i]] = spec[i + 1];
  }
  if (pool.keys.size() != pool.expected.size() || pool.batches() == 0) {
    throw std::runtime_error("query pool is malformed");
  }
  o.setup_tail_s = monotonic_now() - t0;

  std::size_t next_batch = 0;
  std::vector<double> latencies;        // wall per lookup batch
  std::vector<double> modeled_batches;  // modeled per lookup batch, fixed rounds
  std::vector<double> round_qps;        // wall queries/s per round
  auto round = [&](bool timed, bool fixed) {
    double busy = 0.0;
    for (int b = 0; b < kBatchesPerRound; ++b) {
      const std::size_t at = (next_batch++ % pool.batches()) * kBatchKeys;
      const std::span<const std::uint64_t> keys(pool.keys.data() + at, kBatchKeys);
      const double modeled_before = tier.stats().serve_seconds;
      const auto bt = Clock::now();
      const std::vector<std::uint64_t> answers = tier.lookup(keys);
      const double wall = seconds_since(bt);
      busy += wall;
      if (timed) latencies.push_back(wall);
      if (fixed) modeled_batches.push_back(tier.stats().serve_seconds - modeled_before);
      ++o.attempted;
      if (!o.expect(perfbench::check_answers(answers, pool.expected.data() + at,
                                             kBatchKeys))) {
        ++o.failed;
      }
    }
    const auto ht = Clock::now();
    const std::vector<std::uint64_t> bins = tier.histogram();
    busy += seconds_since(ht);
    ++o.attempted;
    if (!o.expect(perfbench::check_histogram(bins, spectrum))) ++o.failed;
    if (timed) round_qps.push_back(kBatchesPerRound * kBatchKeys / busy);
  };

  round(false, false);  // warm-up: fills the per-rank caches
  const store::DistributedQueryStats before = tier.stats();
  std::vector<store::QueryStats> rank_before;
  for (int r = 0; r < kRanks; ++r) rank_before.push_back(tier.rank_stats(r));
  const auto start = Clock::now();
  const double budget = traced ? seconds / 2 : seconds;
  int rounds = 0;
  store::DistributedQueryStats fixed_delta;
  std::uint64_t hits = 0, touches = 0, staged = 0;
  double rss = 0.0;
  while (rounds < kFixedRounds || seconds_since(start) < budget) {
    round(true, rounds < kFixedRounds);
    if (++rounds == kFixedRounds) {
      rss = peak_rss_mb();
      const auto& now = tier.stats();
      fixed_delta.queries = now.queries - before.queries;
      fixed_delta.dedup_saved = now.dedup_saved - before.dedup_saved;
      fixed_delta.nic_bytes = now.nic_bytes - before.nic_bytes;
      fixed_delta.exchange_seconds = now.exchange_seconds - before.exchange_seconds;
      fixed_delta.lookup_seconds = now.lookup_seconds - before.lookup_seconds;
      fixed_delta.serve_seconds = now.serve_seconds - before.serve_seconds;
      for (int r = 0; r < kRanks; ++r) {
        const auto& rs = tier.rank_stats(r);
        const auto& rb = rank_before[static_cast<std::size_t>(r)];
        hits += rs.cache_hits - rb.cache_hits;
        touches += rs.cache_hits - rb.cache_hits + rs.cache_misses - rb.cache_misses;
        staged += rs.staged_bytes - rb.staged_bytes;
      }
    }
  }

  if (traced) {
    const double untraced_p50 = median(latencies);
    latencies.clear();
    auto& session = trace::TraceSession::instance();
    session.reset();
    session.enable("");
    for (int r = 0; r < kFixedRounds; ++r) round(true, false);
    add_trace_layers(layers, kRanks);
    session.disable();
    layers["trace.overhead_ratio"].value = median(latencies) / untraced_p50;
    layers["mpisim.run_us"].value = runtime_run_us(kRanks);
    layers["mpisim.alltoallv_modeled_s"].value = fixed_delta.exchange_seconds;
    layers["store.cache_hit_ratio"].value =
        touches == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(touches);
    layers["store.staged_mb"].value = mb(staged);
    layers["store.dedup_saved_ratio"].value =
        static_cast<double>(fixed_delta.dedup_saved) /
        static_cast<double>(fixed_delta.queries);
    layers["store.nic_mb"].value = mb(fixed_delta.nic_bytes);
    layers["store.exchange_modeled_s"].value = fixed_delta.exchange_seconds;
    layers["store.lookup_modeled_s"].value = fixed_delta.lookup_seconds;
    o.metrics = layers;
  } else {
    o.metrics["op_ms"] = {median(latencies) * 1e3, "ms"};
    o.metrics["kmers_per_s"] = {median(round_qps), "kmer/s"};
    o.metrics["modeled_kmers_per_s"] = {
        static_cast<double>(fixed_delta.queries) / fixed_delta.serve_seconds,
        "kmer/s"};
    o.metrics["modeled_p99_ms"] = {percentile(modeled_batches, 0.99) * 1e3, "ms"};
    o.metrics["peak_rss_mb"] = {rss, "MB"};
  }
  print_outcome(o);
}

// ---- Command line ----

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  const std::string& get(const std::string& name) const {
    const auto it = flags.find(name);
    if (it == flags.end()) throw std::invalid_argument("missing --" + name);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench setup|run --flag value ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + flag);
    a.flags[flag.substr(2)] = argv[i + 1];
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::string& workload = args.get("workload");
    if (workload != "count-supermer" && workload != "ingest-ooc" &&
        workload != "serve-zipf") {
      throw std::invalid_argument("unknown workload " + workload);
    }
    const std::uint64_t seed = std::stoull(args.get("seed"));
    const Paths paths{args.get("dir")};
    if (util::ThreadPool::configured_threads() != kSimThreads) {
      throw std::invalid_argument("DEDUKT_SIM_THREADS must be " +
                                  std::to_string(kSimThreads));
    }
    if (args.command == "setup") {
      setup(workload, seed, paths);
    } else if (args.command == "run") {
      const double seconds = std::stod(args.get("seconds"));
      const bool traced = args.get("trace") == "1";
      const double t0 = std::stod(args.get("t0"));
      if (workload == "serve-zipf") {
        run_serving(paths, seconds, traced, t0);
      } else {
        run_counting(workload, paths, seconds, traced, t0);
      }
    } else {
      throw std::invalid_argument("unknown command " + args.command);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
