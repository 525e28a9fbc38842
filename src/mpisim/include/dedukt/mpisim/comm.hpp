// Comm — the per-rank communicator handle of the message-passing substrate.
//
// Semantics mirror the MPI routines the paper's pipeline uses
// (MPI_Alltoall/MPI_Alltoallv, plus barrier/allreduce/gather/bcast used by
// the driver): collectives are matched calls across all ranks of a Runtime,
// data is copied between per-rank address spaces, and receive buffers carry
// per-source counts exactly like MPI recvcounts.
//
// Every collective also feeds two ledgers:
//  * CommStats — exact off-rank byte counts per rank, and
//  * the NetworkModel — which converts the busiest rank's bytes into the
//    modeled time of the same exchange on the target machine (Summit by
//    default). This is how the benchmarks obtain cluster-scale exchange
//    times from a single-host simulation.
// When tracing is enabled (see dedukt/trace), every collective additionally
// records a "collective" span on the calling rank's track, pinned to the
// same modeled duration it adds to CommStats, with byte counts as span
// arguments. alltoall() delegates to alltoallv() and is deliberately not
// spanned itself, so each exchange appears exactly once.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <typeinfo>
#include <utility>
#include <vector>

#include "dedukt/mpisim/barrier.hpp"
#include "dedukt/mpisim/network_model.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::mpisim {

/// Reduction operators for allreduce/reduce.
enum class ReduceOp { kSum, kMin, kMax };

/// Exact communication accounting for one rank.
struct CommStats {
  std::uint64_t bytes_sent = 0;      ///< off-rank payload bytes sent
  std::uint64_t bytes_received = 0;  ///< off-rank payload bytes received
  /// Topology split of bytes_sent, filled by the hierarchical exchange
  /// path: payload bytes whose destination shares the sender's node
  /// (intra) vs crosses nodes (inter). Their sum equals the bytes_sent the
  /// flat path would charge for the same traffic; both stay zero on the
  /// flat path, which is untouched by the topology.
  std::uint64_t intra_node_bytes = 0;
  std::uint64_t inter_node_bytes = 0;
  std::uint64_t alltoallv_calls = 0;
  std::uint64_t collective_calls = 0;  ///< barriers, reductions, gathers...
  /// Modeled wall time of all communication on the target network. Identical
  /// across ranks for a bulk-synchronous program (it is built from per-round
  /// maxima).
  double modeled_seconds = 0.0;
  /// The volume-proportional (bandwidth) share of modeled_seconds. The
  /// remainder is per-message latency, which stays constant when a
  /// down-scaled run is projected to a full-size input.
  double modeled_volume_seconds = 0.0;
  /// The intra-node (NVLink gather/scatter) share of modeled_seconds,
  /// accrued only by hierarchical exchanges. Round overlap can hide the
  /// inter-node hop but not this staging, so the runner needs the split.
  double modeled_intra_seconds = 0.0;
  /// Volume-proportional part of modeled_intra_seconds.
  double modeled_intra_volume_seconds = 0.0;

  void merge(const CommStats& other) {
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    intra_node_bytes += other.intra_node_bytes;
    inter_node_bytes += other.inter_node_bytes;
    alltoallv_calls += other.alltoallv_calls;
    collective_calls += other.collective_calls;
    modeled_seconds += other.modeled_seconds;
    modeled_volume_seconds += other.modeled_volume_seconds;
    modeled_intra_seconds += other.modeled_intra_seconds;
    modeled_intra_volume_seconds += other.modeled_intra_volume_seconds;
  }
};

/// Result of an alltoallv: data concatenated in source-rank order plus the
/// per-source element counts (MPI recvbuf + recvcounts).
template <typename T>
struct AlltoallvResult {
  std::vector<T> data;
  std::vector<std::uint64_t> counts;  ///< counts[src] elements came from src
  /// Exclusive prefix sums of `counts`, filled once when the result is
  /// assembled so from() is O(1) instead of re-summing the prefix per call.
  std::vector<std::uint64_t> offsets;

  /// View of the elements received from `src`.
  [[nodiscard]] std::span<const T> from(int src) const {
    return std::span<const T>(data).subspan(
        offsets[static_cast<std::size_t>(src)],
        counts[static_cast<std::size_t>(src)]);
  }

  /// Rebuild `offsets` from `counts`; every construction site calls this
  /// exactly once after the counts are final.
  void finalize_offsets() {
    offsets.resize(counts.size());
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      offsets[i] = running;
      running += counts[i];
    }
  }
};

namespace detail {

/// One in-flight nonblocking collective, keyed by posting sequence number.
/// The poster copies its payload in at post time — so arbitrary wait orders
/// across ranks can never deadlock on a sender's buffer — and every rank
/// copies its slices out at wait()/test() completion.
struct AsyncOp {
  AsyncOp(int nranks, std::size_t op_tag)
      : tag(op_tag),
        payload(static_cast<std::size_t>(nranks),
                std::vector<std::vector<std::byte>>(
                    static_cast<std::size_t>(nranks))),
        out_bytes(static_cast<std::size_t>(nranks), 0) {}

  const std::size_t tag;  ///< op+type consistency tag (set by first poster)
  int posted = 0;         ///< ranks that have posted their payload
  int consumed = 0;       ///< ranks that have completed their request
  /// payload[src][dst]: the bytes rank src sent to rank dst.
  std::vector<std::vector<std::vector<std::byte>>> payload;
  std::vector<std::uint64_t> out_bytes;  ///< per-rank off-rank bytes sent
};

/// Matching state for nonblocking collectives. MPI semantics: the n-th
/// nonblocking collective posted on one rank matches the n-th posted on
/// every other rank, so ops are keyed by the per-rank posting counter —
/// no barrier involved, which is what lets a posting rank run ahead.
struct AsyncState {
  explicit AsyncState(int nranks)
      : next_seq(static_cast<std::size_t>(nranks), 0) {}

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint64_t> next_seq;  ///< per-rank posting counters
  std::map<std::uint64_t, std::shared_ptr<AsyncOp>> ops;
  bool aborted = false;
};

/// Shared blackboard all ranks use to exchange pointers and byte counts.
struct CollectiveBoard {
  explicit CollectiveBoard(int nranks)
      : barrier(nranks),
        ptrs(static_cast<std::size_t>(nranks), nullptr),
        bytes(static_cast<std::size_t>(nranks), 0),
        tags(static_cast<std::size_t>(nranks), 0),
        async(nranks) {}

  /// Wake every rank — whether parked in a barrier phase or blocked in an
  /// async wait() — with a SimulationError, so one rank's failure cannot
  /// deadlock the others.
  void abort() {
    {
      std::lock_guard<std::mutex> lock(async.mutex);
      async.aborted = true;
    }
    async.cv.notify_all();
    barrier.abort();
  }

  Barrier barrier;
  std::vector<const void*> ptrs;
  std::vector<std::uint64_t> bytes;
  std::vector<std::size_t> tags;  ///< op+type consistency tags
  AsyncState async;               ///< nonblocking-collective matching state
};

}  // namespace detail

template <typename T>
class Request;

class Comm {
 public:
  Comm(int rank, int nranks, detail::CollectiveBoard& board,
       const NetworkModel& network, CommStats& stats)
      : rank_(rank),
        nranks_(nranks),
        ranks_per_node_(nranks < 1 ? 1
                                   : std::clamp(network.ranks_per_node, 1,
                                                nranks)),
        board_(board),
        network_(network),
        stats_(stats) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return nranks_; }
  [[nodiscard]] CommStats& stats() { return stats_; }
  [[nodiscard]] const NetworkModel& network() const { return network_; }
  /// Round-max payload bytes of the most recent alltoallv-style charge
  /// (blocking or at a Request's completion). Lets a caller reprice that
  /// one exchange exactly — network().alltoallv_seconds(...) of it is a
  /// pure function of the traffic, free of the rounding a ledger-delta
  /// (sum-then-subtract) picks up from whatever was accumulated before.
  [[nodiscard]] std::uint64_t last_round_max_bytes() const {
    return last_round_max_bytes_;
  }

  // --- topology (derived from NetworkModel::ranks_per_node) ---
  //
  // Ranks are laid out node-major, like MPI ranks on a block-scheduled
  // cluster: node i owns ranks [i*ranks_per_node, (i+1)*ranks_per_node).
  // node_ranks() is the intra-node sub-communicator group; the first rank
  // of each node acts as its leader in the hierarchical exchange.

  /// Ranks sharing one node (clamped to [1, size()]).
  [[nodiscard]] int ranks_per_node() const { return ranks_per_node_; }

  /// Number of nodes this communicator spans (the last may be partial).
  [[nodiscard]] int nodes() const {
    return (nranks_ + ranks_per_node_ - 1) / ranks_per_node_;
  }

  /// Node that owns `rank`.
  [[nodiscard]] int node_of(int rank) const { return rank / ranks_per_node_; }

  /// First rank of `node` — its leader in the hierarchical exchange.
  [[nodiscard]] int node_leader(int node) const {
    return node * ranks_per_node_;
  }

  /// True when this rank is its node's leader.
  [[nodiscard]] bool is_node_leader() const {
    return rank_ == node_leader(node_of(rank_));
  }

  /// The intra-node sub-communicator group: all ranks of `node`, in rank
  /// order.
  [[nodiscard]] std::vector<int> node_ranks(int node) const {
    std::vector<int> out;
    const int first = node_leader(node);
    const int last = std::min(first + ranks_per_node_, nranks_);
    out.reserve(static_cast<std::size_t>(last - first));
    for (int r = first; r < last; ++r) out.push_back(r);
    return out;
  }

  /// Synchronize all ranks.
  void barrier() {
    trace::ScopedSpan span(trace::kCategoryCollective, "barrier");
    publish(nullptr, op_tag(0x1, typeid(void)));
    board_.barrier.arrive_and_wait();  // phase B (no data)
    board_.barrier.arrive_and_wait();  // phase C
    stats_.collective_calls += 1;
    const double modeled = network_.collective_latency_seconds(nranks_);
    stats_.modeled_seconds += modeled;
    span.set_modeled_seconds(modeled);
  }

  /// Personalized all-to-all with variable counts: send[dst] goes to rank
  /// dst. Equivalent to MPI_Alltoallv preceded by the count exchange
  /// (MPI_Alltoall) the paper's pipeline performs.
  template <typename T>
  [[nodiscard]] AlltoallvResult<T> alltoallv(
      const std::vector<std::vector<T>>& send) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "alltoallv payload must be trivially copyable");
    DEDUKT_REQUIRE_MSG(send.size() == static_cast<std::size_t>(nranks_),
                       "alltoallv needs one send buffer per rank");

    trace::ScopedSpan span(trace::kCategoryCollective, "alltoallv");
    publish(&send, op_tag(0x2, typeid(T)));

    std::uint64_t in_bytes = 0;
    AlltoallvResult<T> result = gather_slices<T>(in_bytes);
    const std::uint64_t out_bytes = off_rank_bytes(send);
    finish_with_bytes(std::max(in_bytes, out_bytes));

    charge_alltoallv(span, out_bytes, in_bytes, last_round_max_bytes_);
    return result;
  }

  /// Two-level topology-aware alltoallv. Payloads to same-node peers move
  /// directly over the intra-node link; off-node payloads are gathered
  /// onto the node leader, exchanged node-to-node over the NIC, and
  /// scattered by the receiving leader. The delivered result regroups the
  /// leader-staged slices back into source-rank order, so data, counts and
  /// offsets are element-identical to the flat alltoallv — only the byte
  /// ledgers (intra/inter split) and the modeled time (two-hop pricing,
  /// NetworkModel::hierarchical_seconds) differ. With a single modeled
  /// node the two-level exchange IS the flat exchange, and this delegates
  /// so the charge stays bit-identical.
  template <typename T>
  [[nodiscard]] AlltoallvResult<T> hierarchical_alltoallv(
      const std::vector<std::vector<T>>& send) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "alltoallv payload must be trivially copyable");
    DEDUKT_REQUIRE_MSG(send.size() == static_cast<std::size_t>(nranks_),
                       "alltoallv needs one send buffer per rank");
    if (nodes() <= 1) {
      AlltoallvResult<T> result = alltoallv(send);
      // One node: every off-rank byte stays on the intra-node link.
      stats_.intra_node_bytes += off_rank_bytes(send);
      return result;
    }

    trace::ScopedSpan span(trace::kCategoryCollective,
                           "hierarchical_alltoallv");
    publish(&send, op_tag(0x9, typeid(T)));

    // The leader staging is simulated over the shared board: each rank
    // reads its slices per source (the union of the leader-forwarded
    // slices, permuted back into deterministic source-rank order), while
    // the ledger below walks the full traffic matrix to derive the
    // per-hop loads every rank agrees on.
    std::uint64_t in_bytes = 0;
    AlltoallvResult<T> result = gather_slices<T>(in_bytes);

    // Every rank reads the whole send matrix's sizes off the board, so all
    // ranks derive identical hop maxima without extra synchronization.
    const HierLoads loads = hier_loads([&](int src, int dst) {
      return static_cast<std::uint64_t>(
          published_sends<T>(src)[static_cast<std::size_t>(dst)].size() *
          sizeof(T));
    });

    const std::uint64_t out_bytes = off_rank_bytes(send);
    finish_with_bytes(std::max(in_bytes, out_bytes));

    charge_hierarchical(span, out_bytes, in_bytes, loads);
    return result;
  }

  /// Nonblocking personalized all-to-all (MPI_Ialltoallv): posts the
  /// exchange and returns a Request immediately. Matching follows MPI
  /// semantics — the n-th ialltoallv posted on one rank matches the n-th
  /// posted on every other rank, independent of any blocking collectives
  /// in between. The payload is copied at post time (the caller's buffers
  /// are reusable as soon as this returns, and mismatched wait orders
  /// across ranks can never deadlock); delivery, byte ledgers and modeled
  /// exchange time are all charged at wait()/test() completion.
  /// `hierarchical` = true prices the completion as the two-level exchange
  /// (the nonblocking analogue of hierarchical_alltoallv; identical
  /// payload delivery, two-hop charge) — all ranks must agree on the flag.
  template <typename T>
  [[nodiscard]] Request<T> ialltoallv(const std::vector<std::vector<T>>& send,
                                      bool hierarchical = false);

  /// Fixed-count all-to-all: element i of `send` goes to rank i
  /// (MPI_Alltoall with one element per peer).
  template <typename T>
  [[nodiscard]] std::vector<T> alltoall(const std::vector<T>& send) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEDUKT_REQUIRE(send.size() == static_cast<std::size_t>(nranks_));
    std::vector<std::vector<T>> wrapped(static_cast<std::size_t>(nranks_));
    for (int dst = 0; dst < nranks_; ++dst) {
      wrapped[static_cast<std::size_t>(dst)] = {
          send[static_cast<std::size_t>(dst)]};
    }
    auto result = alltoallv<T>(wrapped);
    return std::move(result.data);
  }

  /// Reduce a value across all ranks; every rank receives the result.
  template <typename T>
  [[nodiscard]] T allreduce(const T& value, ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    trace::ScopedSpan span(trace::kCategoryCollective, "allreduce");
    publish(&value, op_tag(0x3, typeid(T)));
    T acc = *static_cast<const T*>(board_.ptrs[0]);
    for (int src = 1; src < nranks_; ++src) {
      const T& v = *static_cast<const T*>(board_.ptrs[src]);
      acc = apply(acc, v, op);
    }
    finish_with_bytes(sizeof(T));
    stats_.collective_calls += 1;
    stats_.bytes_sent += sizeof(T) * static_cast<std::uint64_t>(nranks_ - 1);
    stats_.bytes_received += sizeof(T) *
                             static_cast<std::uint64_t>(nranks_ - 1);
    const double modeled = network_.collective_latency_seconds(nranks_);
    stats_.modeled_seconds += modeled;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.arg_u64("bytes", sizeof(T) *
                                static_cast<std::uint64_t>(nranks_ - 1));
    }
    return acc;
  }

  /// Gather one value per rank; every rank receives the full array
  /// (MPI_Allgather).
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    trace::ScopedSpan span(trace::kCategoryCollective, "allgather");
    publish(&value, op_tag(0x4, typeid(T)));
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(nranks_));
    for (int src = 0; src < nranks_; ++src) {
      out.push_back(*static_cast<const T*>(board_.ptrs[src]));
    }
    finish_with_bytes(sizeof(T) * static_cast<std::uint64_t>(nranks_));
    stats_.collective_calls += 1;
    // Each rank ships its value to the nranks-1 peers and receives one
    // value from each of them (same traffic shape as allreduce).
    const std::uint64_t traffic =
        sizeof(T) * static_cast<std::uint64_t>(nranks_ - 1);
    stats_.bytes_sent += traffic;
    stats_.bytes_received += traffic;
    const double modeled = network_.collective_latency_seconds(nranks_);
    stats_.modeled_seconds += modeled;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.arg_u64("bytes", sizeof(T) * static_cast<std::uint64_t>(nranks_));
    }
    return out;
  }

  /// Gather variable-length vectors to `root`. Non-root ranks receive an
  /// empty result (MPI_Gatherv).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> gatherv(const std::vector<T>& send,
                                                    int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEDUKT_REQUIRE(root >= 0 && root < nranks_);
    trace::ScopedSpan span(trace::kCategoryCollective, "gatherv");
    publish(&send, op_tag(0x5, typeid(T)));
    std::vector<std::vector<T>> out;
    std::uint64_t in_bytes = 0;
    if (rank_ == root) {
      out.resize(static_cast<std::size_t>(nranks_));
      for (int src = 0; src < nranks_; ++src) {
        const auto& v =
            *static_cast<const std::vector<T>*>(board_.ptrs[src]);
        out[static_cast<std::size_t>(src)] = v;
        if (src != root) in_bytes += v.size() * sizeof(T);
      }
    }
    const std::uint64_t out_bytes =
        rank_ == root ? 0 : send.size() * sizeof(T);
    finish_with_bytes(std::max(in_bytes, out_bytes));
    stats_.collective_calls += 1;
    stats_.bytes_sent += out_bytes;
    stats_.bytes_received += in_bytes;
    const double modeled = network_.alltoallv_seconds(
        last_round_max_bytes_, nranks_);
    const double volume = network_.alltoallv_volume_seconds(
        last_round_max_bytes_, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", out_bytes);
      span.arg_u64("bytes_received", in_bytes);
      trace::counter("comm.bytes_sent", out_bytes);
      trace::counter("comm.bytes_received", in_bytes);
    }
    return out;
  }

  /// Broadcast a vector from `root` to all ranks (MPI_Bcast of a buffer
  /// preceded by its length). Non-root ranks may pass any vector; they
  /// receive the root's contents.
  template <typename T>
  [[nodiscard]] std::vector<T> bcast_vector(const std::vector<T>& value,
                                            int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEDUKT_REQUIRE(root >= 0 && root < nranks_);
    trace::ScopedSpan span(trace::kCategoryCollective, "bcast_vector");
    publish(&value, op_tag(0x7, typeid(T)));
    const auto& src =
        *static_cast<const std::vector<T>*>(board_.ptrs[root]);
    std::vector<T> result = src;
    const std::uint64_t bytes =
        rank_ == root ? 0 : result.size() * sizeof(T);
    // The root fans the payload out to the nranks-1 other ranks; every
    // other rank receives one copy.
    const std::uint64_t sent =
        rank_ == root ? result.size() * sizeof(T) *
                            static_cast<std::uint64_t>(nranks_ - 1)
                      : 0;
    finish_with_bytes(bytes);
    stats_.collective_calls += 1;
    stats_.bytes_sent += sent;
    if (rank_ != root) stats_.bytes_received += bytes;
    const double modeled =
        network_.collective_latency_seconds(nranks_) +
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    const double volume =
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", sent);
      span.arg_u64("bytes_received", bytes);
      if (rank_ == root) trace::counter("comm.bytes_sent", sent);
      if (rank_ != root) trace::counter("comm.bytes_received", bytes);
    }
    return result;
  }

  /// Element-wise reduction of equal-length vectors; every rank receives
  /// the reduced vector (MPI_Allreduce over a buffer). The sketch backend
  /// merges per-rank count-min cell arrays through this with kSum.
  template <typename T>
  [[nodiscard]] std::vector<T> allreduce_vector(const std::vector<T>& value,
                                                ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    trace::ScopedSpan span(trace::kCategoryCollective, "allreduce_vector");
    publish(&value, op_tag(0xB, typeid(T)));
    const auto published = [&](int src) -> const std::vector<T>& {
      return *static_cast<const std::vector<T>*>(
          board_.ptrs[static_cast<std::size_t>(src)]);
    };
    // Every rank checks every length against rank 0's before anyone copies.
    // All ranks see the same board, so on a mismatch they all pass one more
    // barrier — no rank is still reading a peer's vector — and throw
    // together; a rank unwinding alone would free the vector it published.
    const std::size_t expected = published(0).size();
    for (int src = 1; src < nranks_; ++src) {
      const std::size_t got = published(src).size();
      if (got != expected) {
        board_.barrier.arrive_and_wait();
        DEDUKT_REQUIRE_MSG(got == expected,
                           "allreduce_vector length mismatch: rank "
                               << src << " sent " << got << " elements, "
                               << "rank 0 sent " << expected);
      }
    }
    std::vector<T> acc = published(0);
    for (int src = 1; src < nranks_; ++src) {
      const std::vector<T>& v = published(src);
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = apply(acc[i], v[i], op);
      }
    }
    // Ring-allreduce traffic shape: reduce-scatter + allgather move
    // 2 * bytes * (P-1)/P through each rank's link, both directions.
    const std::uint64_t bytes = value.size() * sizeof(T);
    const std::uint64_t wire =
        nranks_ > 1 ? 2 * bytes * static_cast<std::uint64_t>(nranks_ - 1) /
                          static_cast<std::uint64_t>(nranks_)
                    : 0;
    finish_with_bytes(wire);
    stats_.collective_calls += 1;
    stats_.bytes_sent += wire;
    stats_.bytes_received += wire;
    const double modeled =
        network_.collective_latency_seconds(nranks_) +
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    const double volume =
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", wire);
      span.arg_u64("bytes_received", wire);
      trace::counter("comm.bytes_sent", wire);
      trace::counter("comm.bytes_received", wire);
    }
    return acc;
  }

  /// Broadcast `value` from `root` to all ranks.
  template <typename T>
  [[nodiscard]] T bcast(const T& value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEDUKT_REQUIRE(root >= 0 && root < nranks_);
    trace::ScopedSpan span(trace::kCategoryCollective, "bcast");
    publish(&value, op_tag(0x6, typeid(T)));
    const T result = *static_cast<const T*>(board_.ptrs[root]);
    finish_with_bytes(sizeof(T));
    stats_.collective_calls += 1;
    const double modeled = network_.collective_latency_seconds(nranks_);
    stats_.modeled_seconds += modeled;
    span.set_modeled_seconds(modeled);
    return result;
  }

 private:
  /// Phase A: publish this rank's buffer pointer and the op/type tag, then
  /// wait for all ranks. After this returns, board_.ptrs is consistent and
  /// the tags are validated.
  void publish(const void* ptr, std::size_t tag) {
    board_.ptrs[static_cast<std::size_t>(rank_)] = ptr;
    board_.tags[static_cast<std::size_t>(rank_)] = tag;
    board_.barrier.arrive_and_wait();
    for (int r = 0; r < nranks_; ++r) {
      if (board_.tags[static_cast<std::size_t>(r)] != tag) {
        board_.abort();
        throw SimulationError(
            "mismatched collective: ranks called different operations or "
            "element types");
      }
    }
  }

  /// Phases B+C: record this rank's traffic, synchronize so that all byte
  /// counts are visible, compute the round maximum (for the network model),
  /// and synchronize again so buffers can be reused.
  void finish_with_bytes(std::uint64_t my_max_bytes) {
    board_.bytes[static_cast<std::size_t>(rank_)] = my_max_bytes;
    board_.barrier.arrive_and_wait();
    std::uint64_t round_max = 0;
    for (int r = 0; r < nranks_; ++r) {
      round_max = std::max(round_max,
                           board_.bytes[static_cast<std::size_t>(r)]);
    }
    last_round_max_bytes_ = round_max;
    board_.barrier.arrive_and_wait();
  }

  static std::size_t op_tag(std::size_t op, const std::type_info& type) {
    return op * 0x9e3779b97f4a7c15ULL ^ type.hash_code();
  }

  /// The send matrix rank `src` published for the current alltoallv.
  template <typename T>
  [[nodiscard]] const std::vector<std::vector<T>>& published_sends(
      int src) const {
    return *static_cast<const std::vector<std::vector<T>>*>(
        board_.ptrs[static_cast<std::size_t>(src)]);
  }

  /// The receive side of the flat and hierarchical alltoallv: this rank's
  /// slice of every published send matrix, in source-rank order. Adds the
  /// off-rank bytes received to `in_bytes`.
  template <typename T>
  [[nodiscard]] AlltoallvResult<T> gather_slices(
      std::uint64_t& in_bytes) const {
    AlltoallvResult<T> result;
    result.counts.resize(static_cast<std::size_t>(nranks_));
    std::size_t total = 0;
    for (int src = 0; src < nranks_; ++src) {
      total += published_sends<T>(src)[static_cast<std::size_t>(rank_)].size();
    }
    result.data.reserve(total);
    for (int src = 0; src < nranks_; ++src) {
      const auto& slice =
          published_sends<T>(src)[static_cast<std::size_t>(rank_)];
      result.counts[static_cast<std::size_t>(src)] = slice.size();
      result.data.insert(result.data.end(), slice.begin(), slice.end());
      if (src != rank_) in_bytes += slice.size() * sizeof(T);
    }
    result.finalize_offsets();
    return result;
  }

  /// Payload bytes of `send` addressed to other ranks.
  template <typename T>
  [[nodiscard]] std::uint64_t off_rank_bytes(
      const std::vector<std::vector<T>>& send) const {
    std::uint64_t bytes = 0;
    for (int dst = 0; dst < nranks_; ++dst) {
      if (dst != rank_) {
        bytes += send[static_cast<std::size_t>(dst)].size() * sizeof(T);
      }
    }
    return bytes;
  }

  /// Ledger and span charging shared by the blocking alltoallv and the
  /// completion point of an ialltoallv — both modes must account the
  /// routine identically so CommStats and trace counters cannot diverge
  /// between lockstep and overlapped execution.
  void charge_alltoallv(trace::ScopedSpan& span, std::uint64_t out_bytes,
                        std::uint64_t in_bytes, std::uint64_t round_max) {
    last_round_max_bytes_ = round_max;
    stats_.alltoallv_calls += 1;
    stats_.bytes_sent += out_bytes;
    stats_.bytes_received += in_bytes;
    const double modeled = network_.alltoallv_seconds(round_max, nranks_);
    const double volume =
        network_.alltoallv_volume_seconds(round_max, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", out_bytes);
      span.arg_u64("bytes_received", in_bytes);
      span.arg_u64("round_max_bytes", round_max);
      trace::counter("comm.bytes_sent", out_bytes);
      trace::counter("comm.bytes_received", in_bytes);
    }
  }

  /// Per-hop byte loads of one hierarchical exchange, derived from the
  /// full traffic matrix — deterministic and identical on every rank.
  struct HierLoads {
    std::uint64_t intra_out = 0;  ///< this rank's same-node payload bytes
    std::uint64_t inter_out = 0;  ///< this rank's node-crossing payload bytes
    /// Busiest intra-node link endpoint: direct same-node traffic plus the
    /// gather/scatter staging through the node leaders.
    std::uint64_t intra_max_bytes = 0;
    /// Busiest node's NIC traffic: max over nodes of aggregated off-node
    /// bytes sent or received.
    std::uint64_t inter_node_max = 0;
  };

  /// Walk the traffic matrix (`bytes(src, dst)` = payload bytes src sends
  /// dst) and derive the hierarchical hop loads. O(P^2), like the round
  /// maximum the nonblocking completion already computes.
  template <typename BytesFn>
  [[nodiscard]] HierLoads hier_loads(BytesFn&& bytes) const {
    HierLoads loads;
    std::vector<std::uint64_t> link(static_cast<std::size_t>(nranks_), 0);
    std::vector<std::uint64_t> node_out(static_cast<std::size_t>(nodes()), 0);
    std::vector<std::uint64_t> node_in(static_cast<std::size_t>(nodes()), 0);
    for (int src = 0; src < nranks_; ++src) {
      const int src_node = node_of(src);
      const int src_leader = node_leader(src_node);
      for (int dst = 0; dst < nranks_; ++dst) {
        if (dst == src) continue;
        const std::uint64_t b = bytes(src, dst);
        if (b == 0) continue;
        const int dst_node = node_of(dst);
        if (dst_node == src_node) {
          // Direct intra-node delivery, never staged through a leader.
          link[static_cast<std::size_t>(src)] += b;
          link[static_cast<std::size_t>(dst)] += b;
          if (src == rank_) loads.intra_out += b;
          continue;
        }
        node_out[static_cast<std::size_t>(src_node)] += b;
        node_in[static_cast<std::size_t>(dst_node)] += b;
        if (src == rank_) loads.inter_out += b;
        // Gather leg: src ships the payload to its leader (free when src
        // IS the leader).
        if (src != src_leader) {
          link[static_cast<std::size_t>(src)] += b;
          link[static_cast<std::size_t>(src_leader)] += b;
        }
        // Scatter leg: the receiving leader forwards to dst.
        const int dst_leader = node_leader(dst_node);
        if (dst != dst_leader) {
          link[static_cast<std::size_t>(dst_leader)] += b;
          link[static_cast<std::size_t>(dst)] += b;
        }
      }
    }
    for (const std::uint64_t v : link) {
      loads.intra_max_bytes = std::max(loads.intra_max_bytes, v);
    }
    for (std::size_t n = 0; n < node_out.size(); ++n) {
      loads.inter_node_max = std::max(
          loads.inter_node_max, std::max(node_out[n], node_in[n]));
    }
    return loads;
  }

  /// Ledger and span charging of the hierarchical exchange, shared by the
  /// blocking path and the completion of a hierarchical ialltoallv (the
  /// two-level analogue of charge_alltoallv). Besides the two-hop modeled
  /// time it records the intra/inter byte split — as span args and
  /// "comm.intra_node_bytes"/"comm.inter_node_bytes" counters, which only
  /// exist on this path so flat-path trace output is unchanged byte for
  /// byte.
  void charge_hierarchical(trace::ScopedSpan& span, std::uint64_t out_bytes,
                           std::uint64_t in_bytes, const HierLoads& loads) {
    stats_.alltoallv_calls += 1;
    stats_.bytes_sent += out_bytes;
    stats_.bytes_received += in_bytes;
    stats_.intra_node_bytes += loads.intra_out;
    stats_.inter_node_bytes += loads.inter_out;
    const double modeled = network_.hierarchical_seconds(
        loads.intra_max_bytes, loads.inter_node_max, nranks_);
    const double volume = network_.hierarchical_volume_seconds(
        loads.intra_max_bytes, loads.inter_node_max, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    stats_.modeled_intra_seconds +=
        network_.hierarchical_intra_seconds(loads.intra_max_bytes, nranks_);
    stats_.modeled_intra_volume_seconds +=
        network_.hierarchical_intra_volume_seconds(loads.intra_max_bytes);
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", out_bytes);
      span.arg_u64("bytes_received", in_bytes);
      span.arg_u64("intra_node_bytes", loads.intra_out);
      span.arg_u64("inter_node_bytes", loads.inter_out);
      span.arg_u64("intra_max_bytes", loads.intra_max_bytes);
      span.arg_u64("inter_node_max_bytes", loads.inter_node_max);
      trace::counter("comm.bytes_sent", out_bytes);
      trace::counter("comm.bytes_received", in_bytes);
      trace::counter("comm.intra_node_bytes", loads.intra_out);
      trace::counter("comm.inter_node_bytes", loads.inter_out);
    }
  }

  template <typename T>
  static T apply(const T& a, const T& b, ReduceOp op) {
    switch (op) {
      case ReduceOp::kSum: return a + b;
      case ReduceOp::kMin: return b < a ? b : a;
      case ReduceOp::kMax: return a < b ? b : a;
    }
    throw SimulationError("unknown ReduceOp");
  }

  template <typename T>
  friend class Request;

  const int rank_;
  const int nranks_;
  const int ranks_per_node_;
  detail::CollectiveBoard& board_;
  const NetworkModel& network_;
  CommStats& stats_;
  std::uint64_t last_round_max_bytes_ = 0;
};

/// Handle to an in-flight ialltoallv (the simulator's MPI_Request). Move-
/// only. A request that was armed by Comm::ialltoallv must be completed by
/// wait() — or a successful test() — before it is destroyed; destroying a
/// live request raises a PreconditionError, mirroring MPI's rule that every
/// request must be completed.
template <typename T>
class Request {
 public:
  Request() = default;

  Request(Request&& other) noexcept
      : comm_(other.comm_),
        seq_(other.seq_),
        out_bytes_(other.out_bytes_),
        hierarchical_(other.hierarchical_),
        done_(other.done_),
        result_(std::move(other.result_)) {
    other.comm_ = nullptr;
    other.done_ = false;
    other.result_.reset();
  }

  Request& operator=(Request&& other) noexcept(false) {
    if (this != &other) {
      require_completed("overwritten");
      comm_ = other.comm_;
      seq_ = other.seq_;
      out_bytes_ = other.out_bytes_;
      hierarchical_ = other.hierarchical_;
      done_ = other.done_;
      result_ = std::move(other.result_);
      other.comm_ = nullptr;
      other.done_ = false;
      other.result_.reset();
    }
    return *this;
  }

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  ~Request() noexcept(false) {
    // Dropping an in-flight request is a caller bug — but never throw
    // while another exception is already unwinding the stack.
    if (std::uncaught_exceptions() > uncaught_on_arm_) return;
    require_completed("destroyed");
  }

  /// A request that completed when it was built: what MPI returns for a
  /// blocking exchange written as post + wait. `result` is what the
  /// blocking call delivered and charged; wait() moves it out without
  /// charging again or copying the payload.
  [[nodiscard]] static Request completed(Comm& comm,
                                         AlltoallvResult<T> result) {
    Request request;
    request.comm_ = &comm;
    request.done_ = true;
    request.result_ = std::move(result);
    return request;
  }

  /// True while the request still owns an exchange (armed and the result
  /// not yet retrieved by wait()).
  [[nodiscard]] bool valid() const { return comm_ != nullptr; }

  /// Nonblocking completion probe (MPI_Test): false until every rank has
  /// posted the matching op. The first call that returns true delivers the
  /// payload, charges the byte/time ledgers and records the wait span; a
  /// later wait() then returns the cached result without blocking or
  /// charging again.
  [[nodiscard]] bool test() {
    DEDUKT_REQUIRE_MSG(comm_ != nullptr, "test() on an empty request");
    if (done_) return true;
    return complete(/*block=*/false);
  }

  /// Block until the exchange completes and return the delivered result
  /// (MPI_Wait). Ledgers are charged here unless an earlier test() already
  /// completed the request.
  [[nodiscard]] AlltoallvResult<T> wait() {
    DEDUKT_REQUIRE_MSG(comm_ != nullptr, "wait() on an empty request");
    if (!done_) {
      const bool completed = complete(/*block=*/true);
      DEDUKT_CHECK(completed);
    }
    AlltoallvResult<T> out = std::move(*result_);
    result_.reset();
    comm_ = nullptr;
    return out;
  }

 private:
  friend class Comm;

  void require_completed(const char* how) {
    DEDUKT_REQUIRE_MSG(
        comm_ == nullptr || done_,
        "nonblocking request " << how << " without wait()/test() completion");
  }

  /// Shared completion path of wait() and test(). Returns false only when
  /// block is false and peers have not all posted yet (and records no span
  /// in that case, so failed polls leave no trace).
  bool complete(bool block) {
    detail::AsyncState& async = comm_->board_.async;
    const auto n = static_cast<std::size_t>(comm_->nranks_);
    const auto me = static_cast<std::size_t>(comm_->rank_);
    std::shared_ptr<detail::AsyncOp> op;
    {
      std::unique_lock<std::mutex> lock(async.mutex);
      op = async.ops.at(seq_);
      if (block) {
        async.cv.wait(lock, [&] {
          return op->posted == comm_->nranks_ || async.aborted;
        });
      }
      if (async.aborted) {
        throw SimulationError(
            "nonblocking collective aborted: another rank failed");
      }
      if (op->posted < comm_->nranks_) return false;
    }

    // Every rank has posted, so the op's payload matrix is immutable from
    // here on (each poster's writes happened-before its counter increment
    // under the mutex); copy out without holding the lock.
    trace::ScopedSpan span(trace::kCategoryCollectiveAsync,
                           "ialltoallv.wait");
    AlltoallvResult<T> result;
    result.counts.resize(n);
    std::uint64_t in_bytes = 0;
    std::size_t total = 0;
    for (std::size_t src = 0; src < n; ++src) {
      total += op->payload[src][me].size() / sizeof(T);
    }
    result.data.resize(total);
    std::size_t cursor = 0;
    for (std::size_t src = 0; src < n; ++src) {
      const std::vector<std::byte>& slice = op->payload[src][me];
      const std::size_t count = slice.size() / sizeof(T);
      result.counts[src] = count;
      if (count > 0) {
        std::memcpy(result.data.data() + cursor, slice.data(), slice.size());
      }
      cursor += count;
      if (src != me) in_bytes += slice.size();
    }
    result.finalize_offsets();

    // The same bulk-synchronous round maximum the blocking alltoallv
    // derives through its byte barrier, computed here from the op's full
    // traffic matrix — every rank arrives at the identical value.
    std::uint64_t round_max = 0;
    for (std::size_t q = 0; q < n; ++q) {
      std::uint64_t in_q = 0;
      for (std::size_t src = 0; src < n; ++src) {
        if (src != q) in_q += op->payload[src][q].size();
      }
      round_max =
          std::max(round_max, std::max(op->out_bytes[q], in_q));
    }

    // The hierarchical hop loads come from the same immutable traffic
    // matrix, so the nonblocking completion charges exactly what the
    // blocking hierarchical_alltoallv would for identical payloads.
    std::optional<Comm::HierLoads> hier;
    if (hierarchical_ && comm_->nodes() > 1) {
      hier = comm_->hier_loads([&](int src, int dst) {
        return static_cast<std::uint64_t>(
            op->payload[static_cast<std::size_t>(src)]
                       [static_cast<std::size_t>(dst)]
                           .size());
      });
    }

    {
      std::lock_guard<std::mutex> lock(async.mutex);
      op->consumed += 1;
      if (op->consumed == comm_->nranks_) async.ops.erase(seq_);
    }

    if (hier.has_value()) {
      comm_->charge_hierarchical(span, out_bytes_, in_bytes, *hier);
    } else {
      comm_->charge_alltoallv(span, out_bytes_, in_bytes, round_max);
      // Degenerate single-node topology of a hierarchical post: the flat
      // charge applies, and every off-rank byte stays intra-node.
      if (hierarchical_) comm_->stats_.intra_node_bytes += out_bytes_;
    }
    result_ = std::move(result);
    done_ = true;
    return true;
  }

  Comm* comm_ = nullptr;  ///< non-null while armed or holding a result
  std::uint64_t seq_ = 0;
  std::uint64_t out_bytes_ = 0;
  bool hierarchical_ = false;  ///< price completion as the two-level exchange
  bool done_ = false;  ///< completion (and charging) already happened
  std::optional<AlltoallvResult<T>> result_;
  int uncaught_on_arm_ = std::uncaught_exceptions();
};

template <typename T>
Request<T> Comm::ialltoallv(const std::vector<std::vector<T>>& send,
                            bool hierarchical) {
  static_assert(std::is_trivially_copyable_v<T>,
                "ialltoallv payload must be trivially copyable");
  DEDUKT_REQUIRE_MSG(send.size() == static_cast<std::size_t>(nranks_),
                     "ialltoallv needs one send buffer per rank");
  trace::ScopedSpan span(trace::kCategoryCollectiveAsync, "ialltoallv.post");
  // Posting is free on the modeled clock; the routine cost lands on the
  // wait span at completion.
  span.set_modeled_seconds(0.0);

  // Flat and hierarchical posts must not match each other: they charge
  // different models, so a split-brain flag is a program error.
  const std::size_t tag = op_tag(hierarchical ? 0xA : 0x8, typeid(T));
  detail::AsyncState& async = board_.async;
  std::shared_ptr<detail::AsyncOp> op;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(async.mutex);
    if (async.aborted) {
      throw SimulationError(
          "nonblocking collective aborted: another rank failed");
    }
    seq = async.next_seq[static_cast<std::size_t>(rank_)]++;
    auto it = async.ops.find(seq);
    if (it == async.ops.end()) {
      it = async.ops
               .emplace(seq, std::make_shared<detail::AsyncOp>(nranks_, tag))
               .first;
    }
    op = it->second;
  }
  if (op->tag != tag) {
    board_.abort();
    throw SimulationError(
        "mismatched nonblocking collective: ranks posted different element "
        "types at the same position in the posting order");
  }

  // Copy the payload into the op outside the lock: this rank is the only
  // writer of its payload row, and readers only look after observing the
  // posted count under the mutex.
  for (int dst = 0; dst < nranks_; ++dst) {
    const auto& buf = send[static_cast<std::size_t>(dst)];
    std::vector<std::byte>& slot =
        op->payload[static_cast<std::size_t>(rank_)]
                   [static_cast<std::size_t>(dst)];
    slot.resize(buf.size() * sizeof(T));
    if (!buf.empty()) {
      std::memcpy(slot.data(), buf.data(), slot.size());
    }
  }
  const std::uint64_t out_bytes = off_rank_bytes(send);
  op->out_bytes[static_cast<std::size_t>(rank_)] = out_bytes;

  {
    std::lock_guard<std::mutex> lock(async.mutex);
    op->posted += 1;
  }
  async.cv.notify_all();

  if (span.active()) span.arg_u64("bytes_sent", out_bytes);

  Request<T> request;
  request.comm_ = this;
  request.seq_ = seq;
  request.out_bytes_ = out_bytes;
  request.hierarchical_ = hierarchical;
  return request;
}

/// Snapshot/delta of a rank's communication ledger around one scope:
/// construct at the start, read the deltas at the end. This is the one
/// canonical way to attribute communication traffic and modeled time to a
/// pipeline phase (see core::PhaseScope / core::ExchangePlan).
class CommCapture {
 public:
  explicit CommCapture(Comm& comm) : comm_(comm), start_(comm.stats()) {}

  [[nodiscard]] std::uint64_t bytes_sent() const {
    return comm_.stats().bytes_sent - start_.bytes_sent;
  }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return comm_.stats().bytes_received - start_.bytes_received;
  }
  [[nodiscard]] double modeled_seconds() const {
    return comm_.stats().modeled_seconds - start_.modeled_seconds;
  }
  [[nodiscard]] double modeled_volume_seconds() const {
    return comm_.stats().modeled_volume_seconds -
           start_.modeled_volume_seconds;
  }
  [[nodiscard]] std::uint64_t intra_node_bytes() const {
    return comm_.stats().intra_node_bytes - start_.intra_node_bytes;
  }
  [[nodiscard]] std::uint64_t inter_node_bytes() const {
    return comm_.stats().inter_node_bytes - start_.inter_node_bytes;
  }
  [[nodiscard]] double modeled_intra_seconds() const {
    return comm_.stats().modeled_intra_seconds - start_.modeled_intra_seconds;
  }
  [[nodiscard]] double modeled_intra_volume_seconds() const {
    return comm_.stats().modeled_intra_volume_seconds -
           start_.modeled_intra_volume_seconds;
  }

 private:
  Comm& comm_;
  CommStats start_;
};

}  // namespace dedukt::mpisim
