#include "src/serve/faults.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/core/rng.h"

namespace volut {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-replica stream ids: stream = replica * kStreamsPerReplica + class.
/// Keyed this way, adding a fault class never re-draws an existing one.
constexpr std::uint64_t kStreamsPerReplica = 8;
constexpr std::uint64_t kCrashStream = 0;
constexpr std::uint64_t kBlackoutStream = 1;
constexpr std::uint64_t kBrownoutStream = 2;
constexpr std::uint64_t kDegradeStream = 3;
/// Domain separator for the per-attempt encode-failure draws.
constexpr std::uint64_t kEncodeFaultDomain = 0xE7C0DEFA17ull;

double unit_draw(CounterRng& rng) {
  // 53-bit mantissa uniform in [0, 1) — double precision, unlike the float
  // uniform(), so exponential gaps keep sub-millisecond resolution.
  return double(rng.next_u64() >> 11) * 0x1.0p-53;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("FaultSchedule: " + what);
}

void check_rate(double v, const char* name) {
  require(std::isfinite(v) && v >= 0.0,
          std::string(name) + " must be finite and >= 0");
}

/// Draws Poisson-arrival windows of jittered duration over [0, horizon].
std::vector<std::pair<double, double>> draw_windows(
    std::uint64_t seed, std::uint64_t stream, double rate_per_minute,
    double mean_seconds, double horizon) {
  std::vector<std::pair<double, double>> out;
  if (rate_per_minute <= 0.0 || mean_seconds <= 0.0 || horizon <= 0.0) {
    return out;
  }
  CounterRng rng(seed, stream);
  const double mean_gap = 60.0 / rate_per_minute;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-unit_draw(rng)) * mean_gap;  // exponential inter-arrival
    if (t >= horizon) break;
    // Duration jitter in [0.75, 1.25) of the mean keeps windows recognizably
    // sized while decorrelating overlaps.
    const double seconds = mean_seconds * (0.75 + 0.5 * unit_draw(rng));
    out.emplace_back(t, seconds);
    t += seconds;  // windows of one class on one replica never self-overlap
  }
  return out;
}

}  // namespace

bool FaultScheduleConfig::empty() const {
  return crash_rate_per_minute <= 0.0 && blackout_rate_per_minute <= 0.0 &&
         brownout_rate_per_minute <= 0.0 && degrade_rate_per_minute <= 0.0 &&
         encode_failure_rate <= 0.0 && crashes.empty() && blackouts.empty() &&
         brownouts.empty() && degradations.empty();
}

bool FaultSchedule::in_any(const std::vector<Window>& windows, double t) {
  // Windows are sorted by start; the first window starting after t cannot
  // contain it, so only earlier ones can. Scan back while they might still
  // cover t (overlaps make a single predecessor check insufficient).
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](double value, const Window& w) { return value < w.start; });
  while (it != windows.begin()) {
    --it;
    if (t < it->end) return true;
  }
  return false;
}

FaultSchedule::FaultSchedule(const FaultScheduleConfig& config,
                             std::size_t n_replicas) {
  check_rate(config.horizon_seconds, "horizon_seconds");
  check_rate(config.crash_rate_per_minute, "crash_rate_per_minute");
  check_rate(config.crash_restart_seconds, "crash_restart_seconds");
  check_rate(config.blackout_rate_per_minute, "blackout_rate_per_minute");
  check_rate(config.blackout_seconds, "blackout_seconds");
  check_rate(config.brownout_rate_per_minute, "brownout_rate_per_minute");
  check_rate(config.brownout_seconds, "brownout_seconds");
  check_rate(config.degrade_rate_per_minute, "degrade_rate_per_minute");
  check_rate(config.degrade_seconds, "degrade_seconds");
  require(std::isfinite(config.brownout_scale) &&
              config.brownout_scale >= 0.0 && config.brownout_scale <= 1.0,
          "brownout_scale must be in [0, 1]");
  require(std::isfinite(config.encode_failure_rate) &&
              config.encode_failure_rate >= 0.0 &&
              config.encode_failure_rate <= 1.0,
          "encode_failure_rate must be in [0, 1]");

  seed_ = config.seed;
  encode_failure_rate_ = config.encode_failure_rate;
  replicas_.resize(n_replicas);

  const auto add_window = [&](std::vector<Window> ReplicaWindows::* list,
                              std::size_t replica, double start,
                              double seconds, double scale) {
    require(std::isfinite(start) && start >= 0.0 && std::isfinite(seconds) &&
                seconds >= 0.0,
            "window start/seconds must be finite and >= 0");
    require(replica < n_replicas, "window replica out of range");
    if (seconds <= 0.0) return;
    (replicas_[replica].*list).push_back({start, start + seconds, scale});
    transitions_.push_back(start);
    transitions_.push_back(start + seconds);
    empty_ = false;
  };

  for (const FaultWindow& w : config.crashes) {
    add_window(&ReplicaWindows::crashes, w.replica, w.start, w.seconds, 0.0);
  }
  for (const FaultWindow& w : config.degradations) {
    add_window(&ReplicaWindows::degradations, w.replica, w.start, w.seconds,
               0.0);
  }
  for (const FaultWindow& w : config.blackouts) {
    add_window(&ReplicaWindows::uplink, w.replica, w.start, w.seconds, 0.0);
  }
  for (const FaultWindow& w : config.brownouts) {
    add_window(&ReplicaWindows::uplink, w.replica, w.start, w.seconds,
               config.brownout_scale);
  }

  // Random windows: one CounterRng stream per (replica, fault class).
  const struct {
    std::uint64_t stream;
    double rate_per_minute, seconds, scale;
    std::vector<Window> ReplicaWindows::* list;
  } drawn[] = {
      {kCrashStream, config.crash_rate_per_minute,
       config.crash_restart_seconds, 0.0, &ReplicaWindows::crashes},
      {kBlackoutStream, config.blackout_rate_per_minute,
       config.blackout_seconds, 0.0, &ReplicaWindows::uplink},
      {kBrownoutStream, config.brownout_rate_per_minute,
       config.brownout_seconds, config.brownout_scale, &ReplicaWindows::uplink},
      {kDegradeStream, config.degrade_rate_per_minute, config.degrade_seconds,
       0.0, &ReplicaWindows::degradations},
  };
  for (std::size_t r = 0; r < n_replicas; ++r) {
    for (const auto& d : drawn) {
      for (const auto& [start, seconds] : draw_windows(
               config.seed, std::uint64_t(r) * kStreamsPerReplica + d.stream,
               d.rate_per_minute, d.seconds, config.horizon_seconds)) {
        add_window(d.list, r, start, seconds, d.scale);
      }
    }
  }

  if (encode_failure_rate_ > 0.0) empty_ = false;

  for (ReplicaWindows& rw : replicas_) {
    const auto by_start = [](const Window& a, const Window& b) {
      return a.start < b.start || (a.start == b.start && a.end < b.end);
    };
    std::sort(rw.crashes.begin(), rw.crashes.end(), by_start);
    std::sort(rw.degradations.begin(), rw.degradations.end(), by_start);
    std::sort(rw.uplink.begin(), rw.uplink.end(), by_start);
  }
  std::sort(transitions_.begin(), transitions_.end());
  transitions_.erase(
      std::unique(transitions_.begin(), transitions_.end()),
      transitions_.end());
}

bool FaultSchedule::replica_down(std::size_t r, double t) const {
  return r < replicas_.size() && in_any(replicas_[r].crashes, t);
}

bool FaultSchedule::replica_degraded(std::size_t r, double t) const {
  return r < replicas_.size() && in_any(replicas_[r].degradations, t);
}

double FaultSchedule::uplink_scale(std::size_t r, double t) const {
  if (r >= replicas_.size()) return 1.0;
  double scale = 1.0;
  const std::vector<Window>& windows = replicas_[r].uplink;
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](double value, const Window& w) { return value < w.start; });
  while (it != windows.begin()) {
    --it;
    if (t < it->end) scale = std::min(scale, it->scale);
  }
  return scale;
}

bool FaultSchedule::encode_attempt_fails(std::uint64_t seq,
                                         std::uint32_t attempt) const {
  if (encode_failure_rate_ <= 0.0) return false;
  if (encode_failure_rate_ >= 1.0) return true;
  // One draw per (seq, attempt): CounterRng's counter indexes the attempt,
  // so the verdict is a pure function no matter when (or how often) asked.
  CounterRng rng(seed_ ^ kEncodeFaultDomain, /*stream=*/seq,
                 /*counter=*/attempt);
  return unit_draw(rng) < encode_failure_rate_;
}

double FaultSchedule::next_transition_after(double t) const {
  auto it = std::upper_bound(transitions_.begin(), transitions_.end(), t);
  return it == transitions_.end() ? kInf : *it;
}

}  // namespace volut
