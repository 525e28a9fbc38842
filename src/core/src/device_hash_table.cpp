#include "dedukt/core/device_hash_table.hpp"

#include <atomic>
#include <bit>
#include <span>

#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

namespace {

/// One probe sequence: claim-or-increment with device atomics. The thread
/// that claims the slot adds `claim_add`; later hits add `hit_add` (both 1
/// for plain counting; the Bloom-filtered path claims with 2 to compensate
/// for the absorbed first occurrence). Safe under block-parallel
/// execution: the CAS claims a slot exactly once and counts accumulate
/// with atomic adds, so the final (key, count) content is independent of
/// interleaving even though the slot *layout* may differ between thread
/// counts. Throws if the table is full.
///
/// Returns the probe charge for traffic accounting, which must be
/// deterministic across pool sizes:
///  - A claiming insert charges the probes it actually walked. That walk
///    always spans home slot -> final slot, and for order-independent
///    linear probing the occupied-slot multiset and total displacement are
///    insertion-order invariant (the classic parking-function property),
///    so the per-launch claim charge is identical for any interleaving.
///  - A hit charges a flat single probe. Its true walk length is the
///    key's displacement in whatever layout this run produced — an
///    interleaving-dependent quantity — so charging it would make modeled
///    time vary with DEDUKT_SIM_THREADS. See docs/performance-model.md.
std::size_t insert_with_atomics(std::uint64_t* keys, std::uint32_t* counts,
                                std::size_t mask, std::uint64_t key,
                                std::uint32_t claim_add = 1,
                                std::uint32_t hit_add = 1) {
  DEDUKT_CHECK_MSG(key != kmer::kInvalidCode,
                   "all-ones key is the empty-slot sentinel");
  std::size_t slot = hash::hash_u64(key, DeviceHashTable::kProbeSeed) & mask;
  for (std::size_t probes = 1; probes <= mask + 1; ++probes) {
    std::atomic_ref<std::uint64_t> key_ref(keys[slot]);
    std::uint64_t expected = kmer::kInvalidCode;
    // atomicCAS(keys + slot, EMPTY, key): claims an empty slot, or tells us
    // who owns it.
    const bool claimed = key_ref.compare_exchange_strong(
        expected, key, std::memory_order_relaxed);
    if (claimed || expected == key) {
      std::atomic_ref<std::uint32_t> count_ref(counts[slot]);
      count_ref.fetch_add(claimed ? claim_add : hit_add,
                          std::memory_order_relaxed);  // atomicAdd
      return claimed ? probes : 1;
    }
    slot = (slot + 1) & mask;  // linear probing (§III-B3)
  }
  throw SimulationError("device hash table full");
}

/// The global table a kernel inserts into, captured by value into lambdas.
struct GlobalTable {
  std::uint64_t* keys;
  std::uint32_t* counts;
  std::size_t mask;
};

/// One per-occurrence global insert with its traffic charges — the legacy
/// (non-aggregating) inner loop, also used for shared-table overflow.
/// `bonus` is the Bloom-compensation increment a claiming insert adds on
/// top of the occurrence itself (1 on the filtered paths, 0 otherwise).
void insert_occurrence(gpusim::ThreadCtx& ctx, const GlobalTable& g,
                       std::uint64_t key, std::uint32_t bonus) {
  const std::size_t probes = insert_with_atomics(
      g.keys, g.counts, g.mask, key, /*claim_add=*/1 + bonus, /*hit_add=*/1);
  // Each probe reads a key slot; the terminal probe does CAS + add.
  ctx.count_gmem_read(probes * sizeof(std::uint64_t));
  ctx.count_atomic(2);
  ctx.count_ops(10 + probes * 4);
}

// --- two-level counting (block-local shared-memory aggregation) ---------
//
// Phase 0: every thread funnels its k-mer occurrences through a small
// open-addressing table in block shared memory (CAS-claim / add on shared
// slots); occurrences that cannot be placed within the probe bound fall
// through to the per-occurrence global insert above. Phase 1 (after the
// implicit block barrier): threads cooperatively scan the shared slots and
// flush each distinct key's block-local count with ONE accumulate-style
// global insert. Global atomics drop by the within-block duplication
// factor. Because a block always executes on one worker, the shared table
// layout — and therefore every shared-memory charge — is a pure function
// of the block's input, independent of DEDUKT_SIM_THREADS; the global
// flush charges follow the same parking-function claim rule as the legacy
// path. See docs/performance-model.md ("Shared memory").

/// Shared-table sizes: 12 bytes/slot (key + count). The per-k-mer kernels
/// see one key per thread, so a small table suffices; the supermer kernels
/// extract many k-mers per thread and get the largest table that fits the
/// 96 KB V100 budget.
constexpr std::size_t kSmemSlotsKmer = 1024;      // 12 KB
constexpr std::size_t kSmemSlotsSupermer = 4096;  // 48 KB

/// Bounded probing in the shared table: past this, the occurrence
/// overflows to the global path instead of evicting (keeps the shared
/// table lossless and the walk short).
constexpr std::size_t kSmemProbeLimit = 16;

/// The block's shared-memory aggregation table.
struct SmemTable {
  std::uint64_t* keys;
  std::uint32_t* counts;
  std::size_t slots;
};

/// Materialize (or re-fetch) the block's shared table. Every thread of
/// every phase issues the same two ctx.shared calls, per the
/// sequence-matched contract.
SmemTable smem_table(gpusim::ThreadCtx& ctx, std::size_t slots) {
  auto* keys = ctx.shared<std::uint64_t>(slots, kmer::kInvalidCode);
  auto* counts = ctx.shared<std::uint32_t>(slots);
  return SmemTable{keys, counts, slots};
}

/// Charge this thread's share of the cooperative shared-table init (each
/// thread clears slots/block_dim slots, 12 bytes apiece).
void charge_smem_init(gpusim::ThreadCtx& ctx, std::size_t slots) {
  const std::size_t per_thread =
      (slots + ctx.block_dim() - 1) / ctx.block_dim();
  ctx.count_smem_write(per_thread * 12);
}

/// Aggregate one occurrence into the shared table. Returns false when the
/// probe bound is hit (caller falls through to the global path). Within a
/// block threads run sequentially, so plain writes model the shared-memory
/// atomics; the charges still price them at the SM-local atomic rate.
bool smem_aggregate(gpusim::ThreadCtx& ctx, const SmemTable& t,
                    std::uint64_t key) {
  const std::size_t mask = t.slots - 1;
  std::size_t slot = hash::hash_u64(key, DeviceHashTable::kProbeSeed) & mask;
  for (std::size_t probes = 1; probes <= kSmemProbeLimit; ++probes) {
    ctx.count_smem_read(sizeof(std::uint64_t));
    if (t.keys[slot] == kmer::kInvalidCode) {
      t.keys[slot] = key;  // shared-memory atomicCAS claim
      t.counts[slot] = 1;
      ctx.count_smem_atomic(2);
      ctx.count_ops(4);
      return true;
    }
    if (t.keys[slot] == key) {
      t.counts[slot] += 1;  // shared-memory atomicAdd
      ctx.count_smem_atomic(1);
      ctx.count_ops(2);
      return true;
    }
    slot = (slot + 1) & mask;
  }
  return false;
}

/// Phase-1 flush: thread t scans slots t, t+block_dim, ... and commits
/// each occupied slot's (key, count) with one global insert. The claiming
/// insert adds the block count plus `bonus` (the Bloom compensation —
/// whichever flush or overflow insert claims globally pays it exactly
/// once); hits add the block count alone.
void flush_smem(gpusim::ThreadCtx& ctx, const SmemTable& t,
                const GlobalTable& g, std::uint32_t bonus) {
  for (std::size_t slot = ctx.thread_idx(); slot < t.slots;
       slot += ctx.block_dim()) {
    ctx.count_smem_read(12);
    if (t.keys[slot] == kmer::kInvalidCode) continue;
    const std::uint32_t block_count = t.counts[slot];
    const std::size_t probes = insert_with_atomics(
        g.keys, g.counts, g.mask, t.keys[slot],
        /*claim_add=*/block_count + bonus, /*hit_add=*/block_count);
    ctx.count_gmem_read(probes * sizeof(std::uint64_t));
    ctx.count_atomic(2);
    ctx.count_ops(10 + probes * 4);
  }
}

/// One occurrence on the aggregating path: shared table first, global
/// overflow second.
void count_occurrence(gpusim::ThreadCtx& ctx, const SmemTable& t,
                      const GlobalTable& g, std::uint64_t key,
                      std::uint32_t bonus) {
  if (!smem_aggregate(ctx, t, key)) insert_occurrence(ctx, g, key, bonus);
}

}  // namespace

gpusim::LaunchStats DeviceHashTable::accumulate_pairs(
    const gpusim::DeviceBuffer<std::uint64_t>& keys_in,
    const gpusim::DeviceBuffer<std::uint32_t>& key_counts, std::size_t n) {
  DEDUKT_REQUIRE(n <= keys_in.size());
  DEDUKT_REQUIRE(n <= key_counts.size());
  auto* keys = keys_.data();
  auto* counts = counts_.data();
  const std::size_t mask = mask_;
  const std::uint64_t* in_keys = keys_in.data();
  const std::uint32_t* in_counts = key_counts.data();

  const auto shape = device_->shape_for(n);
  return device_->launch("hash_accumulate_pairs",
                         shape.grid_dim, shape.block_dim,
                         [=](gpusim::ThreadCtx& ctx) {
    const std::uint64_t i = ctx.global_id();
    if (i >= n) return;
    ctx.count_gmem_read(sizeof(std::uint64_t) + sizeof(std::uint32_t));
    const std::size_t probes =
        insert_with_atomics(keys, counts, mask, in_keys[i],
                            /*claim_add=*/in_counts[i],
                            /*hit_add=*/in_counts[i]);
    ctx.count_gmem_read(probes * sizeof(std::uint64_t));
    ctx.count_atomic(2);
    ctx.count_ops(10 + probes * 4);
  });
}

DeviceHashTable::DeviceHashTable(gpusim::Device& device,
                                 std::size_t expected_keys, double headroom,
                                 bool smem_agg)
    : device_(&device), smem_agg_(smem_agg) {
  DEDUKT_REQUIRE(headroom >= 1.0);
  const auto want = static_cast<std::size_t>(
      static_cast<double>(std::max<std::size_t>(expected_keys, 8)) *
      headroom);
  const std::size_t capacity = std::bit_ceil(want);
  keys_ = device.alloc<std::uint64_t>(capacity, kmer::kInvalidCode);
  counts_ = device.alloc<std::uint32_t>(capacity, 0u);
  mask_ = capacity - 1;
}

gpusim::LaunchStats DeviceHashTable::count_kmers(
    const gpusim::DeviceBuffer<std::uint64_t>& kmers, std::size_t n) {
  DEDUKT_REQUIRE(n <= kmers.size());
  auto* keys = keys_.data();
  auto* counts = counts_.data();
  const std::size_t mask = mask_;
  const std::uint64_t* in = kmers.data();

  const auto shape = device_->shape_for(n);
  if (!smem_agg_) {
    return device_->launch("hash_count_kmers", shape.grid_dim,
                           shape.block_dim, [=](gpusim::ThreadCtx& ctx) {
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(std::uint64_t));  // load the k-mer
      insert_occurrence(ctx, GlobalTable{keys, counts, mask}, in[i],
                        /*bonus=*/0);
    });
  }
  return device_->launch("hash_count_kmers", shape.grid_dim, shape.block_dim,
                         /*phases=*/2, [=](gpusim::ThreadCtx& ctx) {
    const SmemTable agg = smem_table(ctx, kSmemSlotsKmer);
    const GlobalTable g{keys, counts, mask};
    if (ctx.phase() == 0) {
      charge_smem_init(ctx, agg.slots);
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(std::uint64_t));  // load the k-mer
      count_occurrence(ctx, agg, g, in[i], /*bonus=*/0);
    } else {
      flush_smem(ctx, agg, g, /*bonus=*/0);
    }
  });
}

gpusim::LaunchStats DeviceHashTable::count_supermers(
    const gpusim::DeviceBuffer<std::uint64_t>& supermers,
    const gpusim::DeviceBuffer<std::uint8_t>& lengths, std::size_t n,
    int k) {
  DEDUKT_REQUIRE(n <= supermers.size());
  DEDUKT_REQUIRE(n <= lengths.size());
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  auto* keys = keys_.data();
  auto* counts = counts_.data();
  const std::size_t mask = mask_;
  const std::uint64_t* smers = supermers.data();
  const std::uint8_t* lens = lengths.data();

  const auto shape = device_->shape_for(n);
  if (!smem_agg_) {
    return device_->launch("hash_count_supermers",
                           shape.grid_dim, shape.block_dim,
                           [=](gpusim::ThreadCtx& ctx) {
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(std::uint64_t) + sizeof(std::uint8_t));
      const kmer::PackedSupermer smer{smers[i], lens[i]};
      kmer::for_each_kmer_in_supermer(smer, k, [&](kmer::KmerCode code) {
        ctx.count_ops(6);  // shift+mask extraction (§IV-B)
        insert_occurrence(ctx, GlobalTable{keys, counts, mask}, code,
                          /*bonus=*/0);
      });
    });
  }
  return device_->launch("hash_count_supermers",
                         shape.grid_dim, shape.block_dim, /*phases=*/2,
                         [=](gpusim::ThreadCtx& ctx) {
    const SmemTable agg = smem_table(ctx, kSmemSlotsSupermer);
    const GlobalTable g{keys, counts, mask};
    if (ctx.phase() == 0) {
      charge_smem_init(ctx, agg.slots);
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(std::uint64_t) + sizeof(std::uint8_t));
      const kmer::PackedSupermer smer{smers[i], lens[i]};
      kmer::for_each_kmer_in_supermer(smer, k, [&](kmer::KmerCode code) {
        ctx.count_ops(6);  // shift+mask extraction (§IV-B)
        count_occurrence(ctx, agg, g, code, /*bonus=*/0);
      });
    } else {
      flush_smem(ctx, agg, g, /*bonus=*/0);
    }
  });
}

gpusim::LaunchStats DeviceHashTable::count_kmers_filtered(
    const gpusim::DeviceBuffer<std::uint64_t>& kmers, std::size_t n,
    DeviceBloomFilter& bloom) {
  DEDUKT_REQUIRE(n <= kmers.size());
  auto* keys = keys_.data();
  auto* counts = counts_.data();
  const std::size_t mask = mask_;
  const std::uint64_t* in = kmers.data();
  DeviceBloomFilter* filter = &bloom;

  const auto shape = device_->shape_for(n);
  if (!smem_agg_) {
    return device_->launch_ordered("hash_count_kmers_filtered",
                                   shape.grid_dim, shape.block_dim,
                           [=](gpusim::ThreadCtx& ctx) {
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(std::uint64_t));
      if (!filter->test_and_set(in[i], ctx)) return;  // 1st occ. absorbed
      insert_occurrence(ctx, GlobalTable{keys, counts, mask}, in[i],
                        /*bonus=*/1);
    });
  }
  return device_->launch_ordered("hash_count_kmers_filtered",
                                 shape.grid_dim, shape.block_dim, /*phases=*/2,
                         [=](gpusim::ThreadCtx& ctx) {
    const SmemTable agg = smem_table(ctx, kSmemSlotsKmer);
    const GlobalTable g{keys, counts, mask};
    if (ctx.phase() == 0) {
      charge_smem_init(ctx, agg.slots);
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(std::uint64_t));
      if (!filter->test_and_set(in[i], ctx)) return;  // 1st occ. absorbed
      count_occurrence(ctx, agg, g, in[i], /*bonus=*/1);
    } else {
      flush_smem(ctx, agg, g, /*bonus=*/1);
    }
  });
}

gpusim::LaunchStats DeviceHashTable::count_supermers_filtered(
    const gpusim::DeviceBuffer<std::uint64_t>& supermers,
    const gpusim::DeviceBuffer<std::uint8_t>& lengths, std::size_t n, int k,
    DeviceBloomFilter& bloom) {
  DEDUKT_REQUIRE(n <= supermers.size());
  DEDUKT_REQUIRE(n <= lengths.size());
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  auto* keys = keys_.data();
  auto* counts = counts_.data();
  const std::size_t mask = mask_;
  const std::uint64_t* smers = supermers.data();
  const std::uint8_t* lens = lengths.data();
  DeviceBloomFilter* filter = &bloom;

  const auto shape = device_->shape_for(n);
  if (!smem_agg_) {
    return device_->launch_ordered("hash_count_supermers_filtered",
                                   shape.grid_dim, shape.block_dim,
                           [=](gpusim::ThreadCtx& ctx) {
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(std::uint64_t) + sizeof(std::uint8_t));
      const kmer::PackedSupermer smer{smers[i], lens[i]};
      kmer::for_each_kmer_in_supermer(smer, k, [&](kmer::KmerCode code) {
        ctx.count_ops(6);
        if (!filter->test_and_set(code, ctx)) return;
        insert_occurrence(ctx, GlobalTable{keys, counts, mask}, code,
                          /*bonus=*/1);
      });
    });
  }
  return device_->launch_ordered("hash_count_supermers_filtered",
                                 shape.grid_dim, shape.block_dim, /*phases=*/2,
                         [=](gpusim::ThreadCtx& ctx) {
    const SmemTable agg = smem_table(ctx, kSmemSlotsSupermer);
    const GlobalTable g{keys, counts, mask};
    if (ctx.phase() == 0) {
      charge_smem_init(ctx, agg.slots);
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(std::uint64_t) + sizeof(std::uint8_t));
      const kmer::PackedSupermer smer{smers[i], lens[i]};
      kmer::for_each_kmer_in_supermer(smer, k, [&](kmer::KmerCode code) {
        ctx.count_ops(6);
        if (!filter->test_and_set(code, ctx)) return;
        count_occurrence(ctx, agg, g, code, /*bonus=*/1);
      });
    } else {
      flush_smem(ctx, agg, g, /*bonus=*/1);
    }
  });
}

gpusim::LaunchStats DeviceHashTable::count_wide_supermers(
    const gpusim::DeviceBuffer<kmer::WideKey>& supermers,
    const gpusim::DeviceBuffer<std::uint8_t>& lengths, std::size_t n,
    int k) {
  DEDUKT_REQUIRE(n <= supermers.size());
  DEDUKT_REQUIRE(n <= lengths.size());
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  auto* keys = keys_.data();
  auto* counts = counts_.data();
  const std::size_t mask = mask_;
  const kmer::WideKey* smers = supermers.data();
  const std::uint8_t* lens = lengths.data();

  const auto shape = device_->shape_for(n);
  if (!smem_agg_) {
    return device_->launch("hash_count_wide_supermers",
                           shape.grid_dim, shape.block_dim,
                           [=](gpusim::ThreadCtx& ctx) {
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(kmer::WideKey) + sizeof(std::uint8_t));
      const kmer::PackedWideSupermer smer{smers[i], lens[i]};
      kmer::for_each_kmer_in_wide_supermer(smer, k,
                                           [&](kmer::KmerCode code) {
        ctx.count_ops(8);  // two-word shift+mask extraction
        insert_occurrence(ctx, GlobalTable{keys, counts, mask}, code,
                          /*bonus=*/0);
      });
    });
  }
  return device_->launch("hash_count_wide_supermers",
                         shape.grid_dim, shape.block_dim, /*phases=*/2,
                         [=](gpusim::ThreadCtx& ctx) {
    const SmemTable agg = smem_table(ctx, kSmemSlotsSupermer);
    const GlobalTable g{keys, counts, mask};
    if (ctx.phase() == 0) {
      charge_smem_init(ctx, agg.slots);
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(kmer::WideKey) + sizeof(std::uint8_t));
      const kmer::PackedWideSupermer smer{smers[i], lens[i]};
      kmer::for_each_kmer_in_wide_supermer(smer, k,
                                           [&](kmer::KmerCode code) {
        ctx.count_ops(8);  // two-word shift+mask extraction
        count_occurrence(ctx, agg, g, code, /*bonus=*/0);
      });
    } else {
      flush_smem(ctx, agg, g, /*bonus=*/0);
    }
  });
}

gpusim::LaunchStats DeviceHashTable::count_wide_supermers_filtered(
    const gpusim::DeviceBuffer<kmer::WideKey>& supermers,
    const gpusim::DeviceBuffer<std::uint8_t>& lengths, std::size_t n, int k,
    DeviceBloomFilter& bloom) {
  DEDUKT_REQUIRE(n <= supermers.size());
  DEDUKT_REQUIRE(n <= lengths.size());
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  auto* keys = keys_.data();
  auto* counts = counts_.data();
  const std::size_t mask = mask_;
  const kmer::WideKey* smers = supermers.data();
  const std::uint8_t* lens = lengths.data();
  DeviceBloomFilter* filter = &bloom;

  const auto shape = device_->shape_for(n);
  if (!smem_agg_) {
    return device_->launch_ordered("hash_count_wide_supermers_filtered",
                                   shape.grid_dim, shape.block_dim,
                           [=](gpusim::ThreadCtx& ctx) {
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(kmer::WideKey) + sizeof(std::uint8_t));
      const kmer::PackedWideSupermer smer{smers[i], lens[i]};
      kmer::for_each_kmer_in_wide_supermer(smer, k,
                                           [&](kmer::KmerCode code) {
        ctx.count_ops(8);
        if (!filter->test_and_set(code, ctx)) return;
        insert_occurrence(ctx, GlobalTable{keys, counts, mask}, code,
                          /*bonus=*/1);
      });
    });
  }
  return device_->launch_ordered("hash_count_wide_supermers_filtered",
                                 shape.grid_dim, shape.block_dim, /*phases=*/2,
                         [=](gpusim::ThreadCtx& ctx) {
    const SmemTable agg = smem_table(ctx, kSmemSlotsSupermer);
    const GlobalTable g{keys, counts, mask};
    if (ctx.phase() == 0) {
      charge_smem_init(ctx, agg.slots);
      const std::uint64_t i = ctx.global_id();
      if (i >= n) return;
      ctx.count_gmem_read(sizeof(kmer::WideKey) + sizeof(std::uint8_t));
      const kmer::PackedWideSupermer smer{smers[i], lens[i]};
      kmer::for_each_kmer_in_wide_supermer(smer, k,
                                           [&](kmer::KmerCode code) {
        ctx.count_ops(8);
        if (!filter->test_and_set(code, ctx)) return;
        count_occurrence(ctx, agg, g, code, /*bonus=*/1);
      });
    } else {
      flush_smem(ctx, agg, g, /*bonus=*/1);
    }
  });
}

namespace {

/// Block-reduction over a device array: phase 0 writes one per-thread
/// partial into shared memory, phase 1 has thread 0 sum the block's
/// partials and commit them with a single global atomic add — the standard
/// CUDA reduction shape, priced accordingly. `load` maps an element index
/// to its contribution (charging its own global read).
template <typename Load>
void reduce_block(gpusim::ThreadCtx& ctx, std::size_t n,
                  std::uint64_t* result, Load&& load) {
  auto* partial = ctx.shared<std::uint64_t>(ctx.block_dim());
  if (ctx.phase() == 0) {
    ctx.count_smem_write(sizeof(std::uint64_t));
    std::uint64_t value = 0;
    const std::uint64_t i = ctx.global_id();
    if (i < n) value = load(ctx, static_cast<std::size_t>(i));
    partial[ctx.thread_idx()] = value;
    ctx.count_ops(2);
  } else {
    if (ctx.thread_idx() != 0) return;
    std::uint64_t sum = 0;
    for (std::uint32_t t = 0; t < ctx.block_dim(); ++t) sum += partial[t];
    ctx.count_smem_read(sizeof(std::uint64_t) * ctx.block_dim());
    ctx.count_ops(ctx.block_dim());
    std::atomic_ref<std::uint64_t>(result[0])
        .fetch_add(sum, std::memory_order_relaxed);
    ctx.count_atomic(1);
  }
}

}  // namespace

std::size_t DeviceHashTable::unique() {
  auto result = device_->alloc<std::uint64_t>(1);  // value-initialized to 0
  auto* out = result.data();
  const std::uint64_t* keys = keys_.data();
  const std::size_t cap = keys_.size();
  const auto shape = device_->shape_for(cap);
  device_->launch("hash_reduce_unique", shape.grid_dim, shape.block_dim,
                  /*phases=*/2, [=](gpusim::ThreadCtx& ctx) {
    reduce_block(ctx, cap, out,
                 [keys](gpusim::ThreadCtx& tc, std::size_t i) {
      tc.count_gmem_read(sizeof(std::uint64_t));
      return keys[i] != kmer::kInvalidCode ? std::uint64_t{1}
                                           : std::uint64_t{0};
    });
  });
  std::uint64_t host = 0;
  device_->copy_to_host(result, std::span<std::uint64_t>(&host, 1));
  device_->free(result);
  return static_cast<std::size_t>(host);
}

std::uint64_t DeviceHashTable::total() {
  auto result = device_->alloc<std::uint64_t>(1);
  auto* out = result.data();
  const std::uint32_t* counts = counts_.data();
  const std::size_t cap = counts_.size();
  const auto shape = device_->shape_for(cap);
  device_->launch("hash_reduce_total", shape.grid_dim, shape.block_dim,
                  /*phases=*/2, [=](gpusim::ThreadCtx& ctx) {
    reduce_block(ctx, cap, out,
                 [counts](gpusim::ThreadCtx& tc, std::size_t i) {
      tc.count_gmem_read(sizeof(std::uint32_t));
      return static_cast<std::uint64_t>(counts[i]);
    });
  });
  std::uint64_t host = 0;
  device_->copy_to_host(result, std::span<std::uint64_t>(&host, 1));
  device_->free(result);
  return host;
}

std::vector<std::pair<std::uint64_t, std::uint32_t>>
DeviceHashTable::to_host() {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  out.reserve(unique());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] != kmer::kInvalidCode) out.emplace_back(keys_[i], counts_[i]);
  }
  // Price the extraction as a D2H transfer of the occupied (key, count)
  // pairs — 12 bytes per entry.
  if (!out.empty()) {
    const std::size_t bytes = out.size() * 12;
    std::vector<std::uint8_t> scratch(bytes);
    auto tmp = device_->alloc<std::uint8_t>(bytes);
    device_->copy_to_host(tmp, std::span<std::uint8_t>(scratch));
    device_->free(tmp);
  }
  return out;
}

}  // namespace dedukt::core
