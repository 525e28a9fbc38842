// Unit tests for the staged pipeline framework in isolation: PhaseScope
// commits exactly what a hand-rolled phase block would (bit-for-bit),
// ExchangePlan moves the same data staged and direct while pricing only the
// staged copies, and RoundRunner's round planning is a collective every
// rank agrees on. The end-to-end bit-identity of whole pipelines built on
// these pieces is covered by pipeline_golden_framework_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/core/staged_pipeline.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/mpisim/runtime.hpp"

namespace dedukt::core {
namespace {

TEST(ExclusivePrefixTest, OffsetsAndTotal) {
  const std::vector<std::uint32_t> counts = {3, 0, 5, 2};
  std::vector<std::uint64_t> offsets;
  EXPECT_EQ(exclusive_prefix(counts, offsets), 10u);
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 3, 3, 8}));
}

TEST(ExclusivePrefixTest, EmptyCounts) {
  std::vector<std::uint64_t> offsets = {7};  // stale contents must go
  EXPECT_EQ(exclusive_prefix({}, offsets), 0u);
  EXPECT_TRUE(offsets.empty());
}

TEST(AccumulateRoundTest, WorkCountsAndTimesAdd) {
  RankMetrics total;
  RankMetrics round;
  round.reads = 2;
  round.bases = 100;
  round.kmers_parsed = 84;
  round.bytes_sent = 672;
  round.bytes_received = 640;
  round.modeled.add(kPhaseParse, 0.25);
  round.modeled_volume.add(kPhaseParse, 0.125);
  round.modeled_alltoallv_seconds = 0.5;
  round.modeled_alltoallv_volume_seconds = 0.375;

  accumulate_round(total, round);
  accumulate_round(total, round);
  EXPECT_EQ(total.reads, 4u);
  EXPECT_EQ(total.bases, 200u);
  EXPECT_EQ(total.kmers_parsed, 168u);
  EXPECT_EQ(total.bytes_sent, 1344u);
  EXPECT_EQ(total.bytes_received, 1280u);
  EXPECT_EQ(total.modeled.get(kPhaseParse), 0.5);
  EXPECT_EQ(total.modeled_volume.get(kPhaseParse), 0.25);
  EXPECT_EQ(total.modeled_alltoallv_seconds, 1.0);
  EXPECT_EQ(total.modeled_alltoallv_volume_seconds, 0.75);
  // Table-derived fields are NOT accumulated; RoundRunner sets them once.
  EXPECT_EQ(total.unique_kmers, 0u);
}

TEST(PhaseScopeTest, UniformChargeCommitsToBothClocks) {
  RankMetrics metrics;
  {
    PhaseScope phase(metrics, kPhaseParse);
    phase.set_uniform_charge(0.625);
  }
  EXPECT_EQ(metrics.modeled.get(kPhaseParse), 0.625);
  EXPECT_EQ(metrics.modeled_volume.get(kPhaseParse), 0.625);
  EXPECT_GE(metrics.measured.get(kPhaseParse), 0.0);
}

TEST(PhaseScopeTest, UncommittedPhaseChargesZero) {
  RankMetrics metrics;
  { PhaseScope phase(metrics, kPhaseCount); }
  EXPECT_EQ(metrics.modeled.get(kPhaseCount), 0.0);
  EXPECT_EQ(metrics.modeled_volume.get(kPhaseCount), 0.0);
}

/// The device-floor charge must be bit-identical to the hand-rolled block
/// it replaced: max(capture, work) + overhead on the modeled clock,
/// max(volume capture, work) with no overhead on the volume clock.
TEST(PhaseScopeTest, DeviceFloorChargeMatchesHandRolledReference) {
  const std::vector<std::uint64_t> payload(4096, 7);
  const double work = 1e-7;
  const double overhead = 3e-4;

  // Hand-rolled reference, as the pipelines wrote it before the framework.
  gpusim::Device ref_device;
  double ref_modeled = 0.0;
  double ref_volume = 0.0;
  {
    gpusim::DeviceCapture capture(ref_device);
    auto buf = ref_device.alloc<std::uint64_t>(payload.size());
    ref_device.copy_to_device<std::uint64_t>(payload, buf);
    ref_device.free(buf);
    ref_modeled = std::max(capture.modeled_seconds(), work) + overhead;
    ref_volume = std::max(capture.modeled_volume_seconds(), work);
  }

  gpusim::Device device;
  RankMetrics metrics;
  {
    PhaseScope phase(metrics, kPhaseParse, device);
    auto buf = device.alloc<std::uint64_t>(payload.size());
    device.copy_to_device<std::uint64_t>(payload, buf);
    device.free(buf);
    phase.set_device_floor_charge(work, overhead);
  }
  EXPECT_EQ(metrics.modeled.get(kPhaseParse), ref_modeled);
  EXPECT_EQ(metrics.modeled_volume.get(kPhaseParse), ref_volume);
}

/// Staged and direct plans must deliver identical data; only the staged
/// plan prices the D2H/H2D copies, and both report the identical
/// Alltoallv-routine time for identical payloads.
TEST(ExchangePlanTest, StagedAndDirectDeliverIdenticalData) {
  constexpr int kRanks = 4;
  std::vector<std::vector<std::uint64_t>> staged_data(kRanks);
  std::vector<std::vector<std::uint64_t>> direct_data(kRanks);
  std::vector<double> staged_a2a(kRanks), direct_a2a(kRanks);
  std::vector<double> staged_staging(kRanks), direct_staging(kRanks);

  for (const bool staged : {true, false}) {
    mpisim::Runtime runtime(kRanks);
    runtime.run([&](mpisim::Comm& comm) {
      const auto parts = static_cast<std::uint32_t>(comm.size());
      // Rank r sends r*10 + dest, dest+1 times, out of one flat buffer.
      std::vector<std::uint32_t> counts(parts);
      std::vector<std::uint64_t> flat;
      for (std::uint32_t dest = 0; dest < parts; ++dest) {
        counts[dest] = dest + 1;
        for (std::uint32_t i = 0; i <= dest; ++i) {
          flat.push_back(static_cast<std::uint64_t>(comm.rank()) * 10 + dest);
        }
      }
      std::vector<std::uint64_t> offsets;
      const std::uint64_t total = exclusive_prefix(counts, offsets);

      gpusim::Device device;
      auto d_out = device.alloc<std::uint64_t>(total);
      device.copy_to_device<std::uint64_t>(flat, d_out);

      ExchangePlan plan(comm, &device, staged);
      const std::vector<std::uint64_t> host_out =
          plan.stage_out(d_out, total);
      EXPECT_EQ(host_out, flat);
      auto received = plan.post(host_out, counts, offsets).wait();
      auto d_recv = plan.stage_in(received.data);
      const auto r = static_cast<std::size_t>(comm.rank());
      // The staged-in device buffer holds the received payload either way.
      (staged ? staged_data : direct_data)[r].assign(
          d_recv.data(), d_recv.data() + received.data.size());
      (staged ? staged_a2a : direct_a2a)[r] = plan.alltoallv_seconds();
      (staged ? staged_staging : direct_staging)[r] =
          plan.staging_seconds();
      device.free(d_recv);
    });
  }

  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(staged_data[i], direct_data[i]) << "rank " << r;
    // Every rank receives r+1 elements from each source, all equal to
    // source*10 + r.
    ASSERT_EQ(staged_data[i].size(),
              static_cast<std::size_t>(kRanks) * (i + 1));
    // Identical payloads -> identical modeled routine time, bit for bit.
    EXPECT_EQ(staged_a2a[i], direct_a2a[i]) << "rank " << r;
    EXPECT_GT(staged_staging[i], 0.0) << "rank " << r;
    EXPECT_EQ(direct_staging[i], 0.0) << "rank " << r;
  }
}

/// commit_exchange must write the exact fields the hand-rolled exchange
/// blocks wrote: assignment (not +=) of byte counts and routine times, and
/// a charge of routine + staging + overhead.
TEST(ExchangePlanTest, CommitExchangeMatchesHandRolledReference) {
  constexpr int kRanks = 3;
  std::vector<RankMetrics> framework(kRanks);
  std::vector<RankMetrics> reference(kRanks);

  const auto payload = [](int rank, int dest) {
    std::vector<std::uint64_t> out(
        static_cast<std::size_t>((rank + 1) * (dest + 2)));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint64_t>(rank * 100 + dest * 10) + i;
    }
    return out;
  };
  const double overhead = 2.5e-4;

  {  // Hand-rolled, as gpu_kmer_pipeline.cpp wrote it pre-framework.
    mpisim::Runtime runtime(kRanks);
    runtime.run([&](mpisim::Comm& comm) {
      RankMetrics& metrics = reference[static_cast<std::size_t>(comm.rank())];
      gpusim::Device device;
      std::vector<std::vector<std::uint64_t>> outgoing(kRanks);
      for (int dest = 0; dest < kRanks; ++dest) {
        outgoing[static_cast<std::size_t>(dest)] = payload(comm.rank(), dest);
      }
      trace::ScopedSpan span(trace::kCategoryPhase, kPhaseExchange);
      ScopedPhase wall(metrics.measured, kPhaseExchange);
      gpusim::DeviceCapture device_capture(device);
      mpisim::CommCapture comm_capture(comm);
      auto received = comm.alltoallv(outgoing);
      auto d_recv = device.alloc<std::uint64_t>(received.data.size());
      device.copy_to_device<std::uint64_t>(received.data, d_recv);
      device.free(d_recv);
      metrics.bytes_sent = comm_capture.bytes_sent();
      metrics.bytes_received = comm_capture.bytes_received();
      const double exchange_modeled = comm_capture.modeled_seconds() +
                                      device_capture.modeled_seconds() +
                                      overhead;
      const double exchange_volume =
          comm_capture.modeled_volume_seconds() +
          device_capture.modeled_volume_seconds();
      metrics.modeled.add(kPhaseExchange, exchange_modeled);
      metrics.modeled_volume.add(kPhaseExchange, exchange_volume);
      metrics.modeled_alltoallv_seconds = comm_capture.modeled_seconds();
      metrics.modeled_alltoallv_volume_seconds =
          comm_capture.modeled_volume_seconds();
    });
  }

  {  // The framework spelling of the same phase.
    mpisim::Runtime runtime(kRanks);
    runtime.run([&](mpisim::Comm& comm) {
      RankMetrics& metrics = framework[static_cast<std::size_t>(comm.rank())];
      gpusim::Device device;
      std::vector<std::vector<std::uint64_t>> outgoing(kRanks);
      for (int dest = 0; dest < kRanks; ++dest) {
        outgoing[static_cast<std::size_t>(dest)] = payload(comm.rank(), dest);
      }
      PhaseScope phase(metrics, kPhaseExchange);
      ExchangePlan plan(comm, &device, /*staged=*/true);
      auto received = plan.post(outgoing).wait();
      auto d_recv = plan.stage_in(received.data);
      device.free(d_recv);
      phase.commit_exchange(plan, overhead);
    });
  }

  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(framework[i].bytes_sent, reference[i].bytes_sent);
    EXPECT_EQ(framework[i].bytes_received, reference[i].bytes_received);
    EXPECT_EQ(framework[i].modeled.get(kPhaseExchange),
              reference[i].modeled.get(kPhaseExchange));
    EXPECT_EQ(framework[i].modeled_volume.get(kPhaseExchange),
              reference[i].modeled_volume.get(kPhaseExchange));
    EXPECT_EQ(framework[i].modeled_alltoallv_seconds,
              reference[i].modeled_alltoallv_seconds);
    EXPECT_EQ(framework[i].modeled_alltoallv_volume_seconds,
              reference[i].modeled_alltoallv_volume_seconds);
  }
}

io::ReadBatch make_batch(int reads, int bases_per_read) {
  io::ReadBatch batch;
  for (int i = 0; i < reads; ++i) {
    io::Read read;
    read.id = "r" + std::to_string(i);
    read.bases.assign(static_cast<std::size_t>(bases_per_read), 'A');
    batch.reads.push_back(std::move(read));
  }
  return batch;
}

/// Round planning is an allreduce-max: the rank with the most k-mers
/// dictates the round count, and every rank sees the same value.
TEST(RoundRunnerTest, RoundCountIsCollectiveMaximum) {
  constexpr int kRanks = 4;
  mpisim::Runtime runtime(kRanks);
  std::vector<std::uint64_t> rounds(kRanks);
  runtime.run([&](mpisim::Comm& comm) {
    PipelineConfig config;
    config.k = 17;
    config.max_kmers_per_round = 100;
    // Rank 3 holds 10x the data of everyone else.
    const io::ReadBatch reads =
        make_batch(comm.rank() == 3 ? 10 : 1, /*bases_per_read=*/116);
    const RoundRunner runner(comm, reads, config);
    rounds[static_cast<std::size_t>(comm.rank())] = runner.rounds();
  });
  for (int r = 0; r < kRanks; ++r) {
    // Rank 3 parses 10 * (116 - 17 + 1) = 1000 k-mers -> 10 rounds of 100;
    // the collective max binds everyone.
    EXPECT_EQ(rounds[static_cast<std::size_t>(r)], 10u) << "rank " << r;
  }
}

TEST(RoundRunnerTest, UnlimitedMemoryMeansOneRound) {
  mpisim::Runtime runtime(2);
  runtime.run([&](mpisim::Comm& comm) {
    PipelineConfig config;
    config.k = 17;
    config.max_kmers_per_round = 0;
    const io::ReadBatch reads = make_batch(50, 200);
    const RoundRunner runner(comm, reads, config);
    EXPECT_EQ(runner.rounds(), 1u);
  });
}

/// run() feeds every read through run_single exactly once across the
/// rounds, folds the per-round ledgers on top of `setup`, and derives the
/// table totals once at the end.
TEST(RoundRunnerTest, RunAccumulatesRoundsOntoSetup) {
  mpisim::Runtime runtime(1);
  runtime.run([&](mpisim::Comm& comm) {
    PipelineConfig config;
    config.k = 17;
    config.max_kmers_per_round = 150;
    const io::ReadBatch reads = make_batch(4, 166);  // 600 k-mers, 4 rounds
    const RoundRunner runner(comm, reads, config);
    ASSERT_EQ(runner.rounds(), 4u);

    RankMetrics setup;
    setup.modeled.add(kPhaseParse, 1.0);

    HostHashTable table;
    std::uint64_t calls = 0;
    std::uint64_t reads_seen = 0;
    const RankMetrics total = runner.run(
        table,
        [&](const io::ReadBatch& batch) {
          ++calls;
          reads_seen += batch.size();
          table.add(0x2A);  // same key every round
          RankMetrics round;
          round.reads = batch.size();
          round.modeled.add(kPhaseParse, 0.5);
          return round;
        },
        std::move(setup));
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(reads_seen, reads.size());
    EXPECT_EQ(total.reads, reads.size());
    // setup 1.0 + 4 rounds x 0.5.
    EXPECT_EQ(total.modeled.get(kPhaseParse), 3.0);
    EXPECT_EQ(total.unique_kmers, 1u);
    EXPECT_EQ(total.counted_kmers, 4u);
  });
}

}  // namespace
}  // namespace dedukt::core
