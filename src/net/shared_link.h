// Capacity-aware shared uplink: processor-sharing over a bandwidth trace.
//
// A serving replica has one uplink whose instantaneous capacity C(t) comes
// from a BandwidthTrace; every in-flight chunk download gets an equal share
// C(t)/n (optionally capped by the client's own access-link trace, with no
// redistribution of a capped flow's unused share — the classic simplification
// of max-min fairness). This replaces the per-session private link of
// run_session when many clients contend for one replica (serve/fleet).
//
// The model is event-driven and exact: advance() walks the piecewise-constant
// trace segment by segment, so total bits drained over any saturated interval
// equal the integral of C(t) (see serve_test fair-share conservation). With a
// single uncapped flow the arithmetic mirrors BandwidthTrace::transfer_time
// step for step, which is what makes a 1-client fleet reproduce run_session.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/net/trace.h"

namespace volut {

class SharedLink {
 public:
  explicit SharedLink(BandwidthTrace trace) : trace_(std::move(trace)) {}

  const BandwidthTrace& trace() const { return trace_; }
  std::size_t active_flows() const { return flows_.size(); }

  /// Total bits drained across all flows so far (conservation accounting;
  /// includes bits delivered to later-aborted flows).
  double bits_drained() const { return bits_drained_; }
  /// Flows started and fully completed so far, and the bytes of the latter.
  std::uint64_t flows_started() const { return next_id_ - 1; }
  std::uint64_t flows_completed() const { return flows_completed_; }
  double bytes_completed() const { return bytes_completed_; }

  /// Capacity multiplier applied on top of the trace: 1 nominal, 0 during a
  /// blackout, anything between for a brownout. Fault boundaries re-rate
  /// every active flow from the moment the caller flips this — the caller
  /// must have advance()d up to that moment first. Throws
  /// std::invalid_argument on NaN or negative scales.
  void set_rate_scale(double scale);
  double rate_scale() const { return rate_scale_; }

  /// Flows killed via abort_flow and the bytes they had already received
  /// (those bytes stay in bits_drained() but never reach bytes_completed()).
  std::uint64_t flows_aborted() const { return flows_aborted_; }
  double bytes_aborted() const { return bytes_aborted_; }
  /// Bits already delivered to the active flows. bits_drained() equals
  /// 8 * (bytes_completed() + bytes_aborted()) plus this, up to rounding.
  double active_bits_delivered() const {
    double bits = 0.0;
    for (const Flow& f : flows_) bits += f.total_bytes * 8.0 - f.remaining_bits;
    return bits;
  }

  /// Bandwidth (Mbps) a new flow admitted at `now` would start with — the
  /// equal share after joining. This is what the ABR gets to observe.
  double share_mbps(double now) const {
    return rate_scale_ * trace_.bandwidth_at(now) / double(flows_.size() + 1);
  }

  /// Starts a `bytes`-sized download whose transfer begins at `now` (the
  /// caller accounts for RTT / server-side encode latency before that).
  /// `cap` (optional, unowned, must outlive the flow) rate-limits this flow
  /// to the client's own access link. Returns the flow id.
  std::uint64_t start_flow(double bytes, const BandwidthTrace* cap = nullptr);

  /// Earliest absolute completion time among active flows assuming no
  /// arrivals before it, or +inf when idle. Exact: advance(now, t) with the
  /// returned t completes that flow.
  double next_completion_time(double now) const;

  struct Completion {
    std::uint64_t id = 0;
    double time = 0.0;
  };

  /// Drains every active flow from `now` to `until` at its instantaneous
  /// rate, removing flows as they finish. Completions are reported in
  /// (time, id) order; simultaneous completions resolve by lowest id, so the
  /// schedule is deterministic. Flows with zero remaining bytes complete
  /// immediately at max(now, 0) regardless of link capacity (even
  /// advance(now, now) delivers them).
  std::vector<Completion> advance(double now, double until);

  /// Kills an active flow (replica crash: the partial download is garbage to
  /// the client). Returns the bytes the flow had already received — the
  /// discarded transfer the caller accounts as waste. Throws
  /// std::invalid_argument if no active flow has this id.
  double abort_flow(std::uint64_t id);

 private:
  struct Flow {
    std::uint64_t id = 0;
    double total_bytes = 0.0;
    double remaining_bits = 0.0;
    const BandwidthTrace* cap = nullptr;  // unowned
  };

  /// Per-flow drain rate (bits/s) at time `t` with `n` active flows.
  double flow_rate_bps(const Flow& flow, double t, std::size_t n) const;
  /// Next piecewise-constant boundary after `t` across the uplink trace and
  /// every active flow's cap trace.
  double next_boundary(double t) const;

  BandwidthTrace trace_;
  std::vector<Flow> flows_;
  std::uint64_t next_id_ = 1;
  double rate_scale_ = 1.0;
  double bits_drained_ = 0.0;
  double bytes_completed_ = 0.0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_aborted_ = 0;
  double bytes_aborted_ = 0.0;
};

}  // namespace volut
