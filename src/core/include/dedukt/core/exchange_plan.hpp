// ExchangePlan — the one implementation of the exchange stage.
//
// Every pipeline's exchange phase does some subset of the same five steps:
//   1. stage the packed outgoing buffer off the device (priced D2H when
//      ExchangeMode::kStaged, a free memcpy under GPUDirect),
//   2. slice it into per-destination buffers from the parse stage's
//      counts/offsets,
//   3. post the Alltoallv — blocking in lockstep rounds, an ialltoallv when
//      rounds overlap — and wait for it,
//   4. stage the received payload back onto the device (priced H2D when
//      staged), and
//   5. charge the phase: exact byte counts, the Alltoallv-routine time
//      alone (Fig. 8's metric), and the full exchange charge
//      (routine + staging copies + constant overhead).
// Construct one at the top of the exchange phase (it snapshots the
// communication and device ledgers), call the steps the pipeline needs —
// multi-buffer exchanges like the supermer pipeline's words+lengths simply
// call them twice — and finish with PhaseScope::commit_exchange.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dedukt/core/phase_scope.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/mpisim/comm.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

/// Exclusive prefix sum of per-destination counts; returns the total.
inline std::uint64_t exclusive_prefix(const std::vector<std::uint32_t>& counts,
                                      std::vector<std::uint64_t>& offsets) {
  offsets.resize(counts.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    offsets[i] = running;
    running += counts[i];
  }
  return running;
}

class ExchangePlan {
 public:
  /// `device` may be null for host-only pipelines (no staging steps, zero
  /// staging charge). `staged` selects priced host staging vs GPUDirect.
  /// `hierarchical` routes step 3 through the two-level topology-aware
  /// exchange (Comm::hierarchical_alltoallv) instead of the flat one.
  /// `overlapped` posts step 3 as a nonblocking ialltoallv; otherwise post()
  /// runs the blocking collective (the lockstep schedule).
  ExchangePlan(mpisim::Comm& comm, gpusim::Device* device, bool staged,
               bool hierarchical = false, bool overlapped = false)
      : comm_(comm),
        device_(device),
        staged_(staged),
        hierarchical_(hierarchical),
        overlapped_(overlapped),
        comm_capture_(comm),
        device_start_(device != nullptr ? device->timeline()
                                        : gpusim::DeviceTimeline{}) {}

  ExchangePlan(const ExchangePlan&) = delete;
  ExchangePlan& operator=(const ExchangePlan&) = delete;

  /// Step 1: move `n` packed elements off the device and release the device
  /// buffer. Priced as a D2H transfer when staged; GPUDirect hands the
  /// wire the device buffer for free.
  template <typename T>
  [[nodiscard]] std::vector<T> stage_out(gpusim::DeviceBuffer<T>& buffer,
                                         std::uint64_t n) {
    DEDUKT_CHECK_MSG(device_ != nullptr, "stage_out needs a device");
    std::vector<T> host(n);
    if (staged_) {
      device_->copy_to_host(buffer, std::span<T>(host));
    } else {
      std::copy(buffer.data(), buffer.data() + n, host.begin());
    }
    device_->free(buffer);
    return host;
  }

  /// Steps 2+3: slice a staged buffer by the parse stage's per-destination
  /// counts/offsets and post the Alltoallv. The sliced buffers need not
  /// outlive this call.
  template <typename T>
  [[nodiscard]] mpisim::Request<T> post(
      const std::vector<T>& staged_flat,
      const std::vector<std::uint32_t>& counts,
      const std::vector<std::uint64_t>& offsets) {
    const auto parts = static_cast<std::uint32_t>(comm_.size());
    DEDUKT_CHECK(counts.size() == parts && offsets.size() == parts);
    std::vector<std::vector<T>> outgoing(parts);
    for (std::uint32_t dest = 0; dest < parts; ++dest) {
      outgoing[dest].assign(
          staged_flat.begin() + static_cast<std::ptrdiff_t>(offsets[dest]),
          staged_flat.begin() + static_cast<std::ptrdiff_t>(offsets[dest]) +
              counts[dest]);
    }
    return post(outgoing);
  }

  /// Step 3 for payloads bucketed per destination (the CPU pipelines,
  /// source-side consolidation, out-of-core bins). In lockstep the blocking
  /// collective runs and charges here, and the returned request already
  /// holds its result; overlapped, the payload is copied at post time and
  /// delivery and charges happen at Request::wait().
  template <typename T>
  [[nodiscard]] mpisim::Request<T> post(
      const std::vector<std::vector<T>>& outgoing) {
    if (overlapped_) return comm_.ialltoallv(outgoing, hierarchical_);
    return mpisim::Request<T>::completed(
        comm_, hierarchical_ ? comm_.hierarchical_alltoallv(outgoing)
                             : comm_.alltoallv(outgoing));
  }

  /// Step 4: move a received payload onto the device (at least one slot so
  /// kernels can take a pointer). Priced as an H2D transfer when staged.
  template <typename T>
  [[nodiscard]] gpusim::DeviceBuffer<T> stage_in(const std::vector<T>& data) {
    DEDUKT_CHECK_MSG(device_ != nullptr, "stage_in needs a device");
    auto buffer = device_->alloc<T>(std::max<std::size_t>(data.size(), 1));
    if (staged_) {
      device_->copy_to_device<T>(data, buffer);
    } else {
      std::copy(data.begin(), data.end(), buffer.data());
    }
    return buffer;
  }

  // --- step 5: the charges, read by PhaseScope::commit_exchange ---

  /// Exact off-rank payload bytes this plan's collectives sent/received.
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return comm_capture_.bytes_sent();
  }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return comm_capture_.bytes_received();
  }

  /// Topology split of bytes_sent() under the hierarchical exchange: bytes
  /// whose destination shares the sender's node vs bytes that cross the
  /// NIC. Their sum equals bytes_sent(); both zero on the flat path.
  [[nodiscard]] std::uint64_t intra_node_bytes() const {
    return comm_capture_.intra_node_bytes();
  }
  [[nodiscard]] std::uint64_t inter_node_bytes() const {
    return comm_capture_.inter_node_bytes();
  }

  /// The intra-node (NVLink) share of alltoallv_seconds() — zero on the
  /// flat path. RoundRunner overlaps only the inter-node remainder.
  [[nodiscard]] double hier_intra_seconds() const {
    return comm_capture_.modeled_intra_seconds();
  }
  [[nodiscard]] double hier_intra_volume_seconds() const {
    return comm_capture_.modeled_intra_volume_seconds();
  }

  /// Modeled time of the communication routines alone — no staging copies,
  /// no phase overhead (what the paper's Fig. 8 measures).
  [[nodiscard]] double alltoallv_seconds() const {
    return comm_capture_.modeled_seconds();
  }
  [[nodiscard]] double alltoallv_volume_seconds() const {
    return comm_capture_.modeled_volume_seconds();
  }

  /// Modeled time the staging copies added on the host link (zero under
  /// GPUDirect and for host-only pipelines).
  [[nodiscard]] double staging_seconds() const {
    return staged_ && device_ != nullptr
               ? device_->timeline().total_seconds() -
                     device_start_.total_seconds()
               : 0.0;
  }
  [[nodiscard]] double staging_volume_seconds() const {
    return staged_ && device_ != nullptr
               ? device_->timeline().volume_seconds -
                     device_start_.volume_seconds
               : 0.0;
  }

  /// The full exchange-phase charge: routine + staging + constant overhead.
  [[nodiscard]] double charge_seconds(double overhead_seconds) const {
    return comm_capture_.modeled_seconds() + staging_seconds() +
           overhead_seconds;
  }
  [[nodiscard]] double charge_volume_seconds() const {
    return comm_capture_.modeled_volume_seconds() + staging_volume_seconds();
  }

 private:
  mpisim::Comm& comm_;
  gpusim::Device* device_;
  const bool staged_;
  const bool hierarchical_;
  const bool overlapped_;
  mpisim::CommCapture comm_capture_;
  /// The device timeline at construction (zero without a device); staging
  /// charges are deltas from it, like gpusim::DeviceCapture's.
  const gpusim::DeviceTimeline device_start_;
};

inline void PhaseScope::commit_exchange(const ExchangePlan& plan,
                                        double overhead_seconds) {
  metrics_.bytes_sent = plan.bytes_sent();
  metrics_.bytes_received = plan.bytes_received();
  metrics_.intra_node_bytes = plan.intra_node_bytes();
  metrics_.inter_node_bytes = plan.inter_node_bytes();
  metrics_.modeled_alltoallv_seconds = plan.alltoallv_seconds();
  metrics_.modeled_alltoallv_volume_seconds = plan.alltoallv_volume_seconds();
  set_charge(plan.charge_seconds(overhead_seconds),
             plan.charge_volume_seconds());
}

}  // namespace dedukt::core
