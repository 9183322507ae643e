// The VoLUT benchmark program: three workloads, end-to-end metrics untraced,
// per-layer metrics in a separate traced run. perfbench/README.md gives the
// workload rationale and the layer -> end-to-end metric map; run.py builds
// this binary and forwards the flags.
//
//   volut_perfbench --workload sr_stream|fleet_large|fleet_faults|all
//                   --seed N --seconds S --trace 0|1 [--tiny]
//                   [--json PATH] [--trace-out PATH] [--metrics-out PATH]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Every layer is measured from outside: this program times calls
// into public functions and reads the counters the layers already export
// (SrResult::timing, FleetResult, MetricsRegistry). The exit status is
// nonzero on any correctness violation.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/abr/mpc.h"
#include "src/codec/codec.h"
#include "src/core/rng.h"
#include "src/metrics/chamfer.h"
#include "src/metrics/stats.h"
#include "src/net/shared_link.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/thread_pool.h"
#include "src/platform/timer.h"
#include "src/serve/fleet.h"
#include "src/spatial/knn.h"
#include "src/spatial/knn_simd.h"
#include "src/spatial/octree.h"
#include "src/sr/lut_builder.h"
#include "src/sr/pipeline.h"
#include "src/stream/server.h"
#include "src/stream/session.h"

#ifndef VOLUT_PERFBENCH_BUILD_TYPE
#define VOLUT_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace volut;

// ---------------------------------------------------------------------------
// Metric tables (must match BENCHMARK.json) and the per-workload report
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports all of these. The timed unit is one SR frame on
/// sr_stream and one whole run_fleet call on the fleet workloads; an
/// operation is a frame or a session.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"latency_ms_p50", "ms"},
    {"latency_ms_p95", "ms"},   {"throughput_per_s", "1/s"},
    {"mb_per_op", "MB"},        {"peak_rss_mb", "MB"},
};

/// The traced run reports all of these; a layer a workload does not
/// exercise reports zero work.
constexpr MetricSpec kPerLayer[] = {
    {"codec.decode_ms", "ms"},
    {"spatial.octree_build_ms", "ms"},
    {"spatial.knn_ms", "ms"},
    {"spatial.points_scanned_per_query", "count"},
    {"spatial.knn_evals_per_s", "1/s"},
    {"sr.knn_ms", "ms"},
    {"sr.midpoint_ms", "ms"},
    {"sr.colorize_ms", "ms"},
    {"sr.refine_ms", "ms"},
    {"sr.unaccounted_ms", "ms"},
    {"sr.refine_chamfer_gain", "chamfer"},
    {"platform.pool_speedup", "x"},
    {"platform.fork_us", "us"},
    {"serve.ns_per_event", "ns"},
    {"serve.events", "count"},
    {"net.next_completion_us", "us"},
    {"abr.continuous_decide_us", "us"},
    {"abr.discrete_decide_us", "us"},
    {"stream.chunk_step_us", "us"},
    {"serve.cache_hit_rate", "fraction"},
    {"serve.cache_evictions", "count"},
    {"serve.encode_coalesced_joins", "count"},
    {"serve.encode_retries", "count"},
    {"serve.failovers", "count"},
    {"serve.downloads_aborted", "count"},
    {"data.sample_frame_ms", "ms"},
    {"metrics.chamfer_ms", "ms"},
    {"nn.train_s", "s"},
    {"lut.distill_s", "s"},
    {"obs.trace_overhead", "x"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Tiny inputs for the self-check (perfbench/selfcheck.py); its numbers
  /// are not comparable with full-size runs.
  bool tiny = false;
  std::string trace_out;
  std::string metrics_out;
};

struct Value {
  double value = 0.0;
  std::size_t samples = 0;
};

/// One printed metric: name, value, unit and sample count.
struct Row {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

template <std::size_t N>
const char* unit_of(const MetricSpec (&table)[N], const std::string& name) {
  for (const MetricSpec& m : table) {
    if (name == m.name) return m.unit;
  }
  throw std::logic_error("metric " + name + " is not in the metric table");
}

/// One workload's outcome. `extra` holds the workload-specific figures (QoE,
/// chamfer, ...) that are printed and recorded in the --json file but are not
/// on the result line.
struct Report {
  std::string workload;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, Value> end_to_end;
  std::map<std::string, Value> per_layer;
  std::vector<Row> extra;
  std::vector<std::string> notes;

  bool correct() const { return violations.empty(); }

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void e2e(const std::string& name, double v, std::size_t n) {
    unit_of(kEndToEnd, name);
    end_to_end[name] = {v, n};
  }
  void layer(const std::string& name, double v, std::size_t n = 1) {
    unit_of(kPerLayer, name);
    per_layer[name] = {v, n};
  }
};

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

/// Adds the highest percentile of `times` that has at least ten samples
/// beyond it as the figure `<base>_p<q>`, and notes how many samples lie
/// beyond p95: with fewer than ten, p95 is close to the sample maximum.
void add_supported_tail(Report& rep, const std::string& base,
                        const std::vector<double>& times) {
  const std::size_t n = times.size();
  const auto beyond = [&](double v) {
    return std::size_t(std::count_if(times.begin(), times.end(),
                                     [v](double t) { return t > v; }));
  };
  const std::size_t past95 = n ? beyond(percentile(times, 95.0)) : 0;
  rep.notes.push_back(base + "_p95: " + std::to_string(past95) + " of " +
                      std::to_string(n) + " samples beyond it" +
                      (past95 < 10 ? " (fewer than 10: close to the maximum)"
                                   : ""));
  if (n <= 10) return;
  const double q = std::floor(1000.0 * double(n - 10) / double(n)) / 10.0;
  char name[32];
  std::snprintf(name, sizeof(name), "_p%.1f", q);
  const double v = percentile(times, q);
  rep.extra.push_back({base + name, v, "ms", n});
  rep.notes.push_back(base + name + ": the highest percentile with at least "
                      "10 samples beyond it (" + std::to_string(beyond(v)) +
                      " of " + std::to_string(n) + ")");
}

double seconds_of(const Timer& t) { return t.elapsed_ms() / 1000.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t bench_workers() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 8);
}

std::uint64_t fingerprint_cloud(const PointCloud& cloud) {
  const std::uint64_t h = bench::fnv1a(cloud.positions().data(),
                                       cloud.size() * sizeof(Vec3f));
  return bench::fnv1a(cloud.colors().data(),
                      cloud.size() * sizeof(cloud.colors()[0]), h);
}

bool all_finite(const PointCloud& cloud) {
  for (const Vec3f& p : cloud.positions()) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      return false;
    }
  }
  return true;
}

/// Set-up repetitions of the workloads whose set-up trains the LUT.
constexpr int kSetupReps = 5;

/// Runs `make` `reps` times and returns the last result plus the median
/// wall time: set-up is a metric, so it gets a median too.
template <typename Make>
auto timed_setup(int reps, const Make& make, double& setup_s) {
  std::vector<double> times;
  for (int i = 1; i < reps; ++i) {
    Timer timer;
    (void)make();
    times.push_back(seconds_of(timer));
  }
  Timer timer;
  auto out = make();
  times.push_back(seconds_of(timer));
  setup_s = median(times);
  return out;
}

/// Stores that keep probed results observable to the optimizer.
volatile double g_sink = 0.0;

/// Median microseconds per call of `fn`, over `batches` batches of `per`
/// calls each.
double median_call_us(int batches, int per, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int b = 0; b < batches; ++b) {
    Timer timer;
    for (int i = 0; i < per; ++i) fn();
    us.push_back(timer.elapsed_us() / per);
  }
  return median(us);
}

/// platform.fork_us: one parallel_chunks call with an empty body, one chunk
/// per worker.
double fork_us(ThreadPool& pool) {
  const std::size_t n = pool.worker_count();
  return median_call_us(11, 200, [&] {
    pool.parallel_chunks(n, 1, [](std::size_t, std::size_t, std::size_t) {});
  });
}

/// The trained refinement LUT, the deployment's one-off asset.
bench::TrainedAssets make_lut(bool tiny, ThreadPool* pool) {
  return bench::train_assets(tiny ? 0.01 : 0.05, /*bins=*/32,
                             /*receptive_field=*/4, pool);
}

/// nn.train_s and lut.distill_s. bench::train_assets trains the net and
/// distils the LUT in one call, so it is timed once more and the trained
/// net distilled once more on its own; training is the difference.
void add_setup_layers(Report& rep, bool tiny, ThreadPool* pool) {
  Timer total;
  const bench::TrainedAssets assets = make_lut(tiny, pool);
  const double total_s = seconds_of(total);
  Timer timer;
  const RefinementLut again =
      distill_lut(*assets.net, assets.lut->spec(), pool);
  const double distill_s = seconds_of(timer);
  rep.check(again.spec() == assets.lut->spec(),
            "lut: the re-distilled table has another spec");
  rep.layer("nn.train_s", std::max(0.0, total_s - distill_s));
  rep.layer("lut.distill_s", distill_s);
}

// ---------------------------------------------------------------------------
// SR probe: spatial / sr / metrics layers on (low, ratio, truth) inputs
// ---------------------------------------------------------------------------

struct SrInput {
  PointCloud low;
  double ratio = 1.0;
  PointCloud gt;
};

struct SrProbe {
  SrTiming timing;  // medians over the inputs
  /// upsample() wall time minus the SrTiming stages, median.
  double unaccounted_ms = 0.0;
};

/// Times the spatial index and the SR stages on `inputs`, reads the spatial
/// counters around the kNN calls, and scores interpolation-only against
/// full-pipeline chamfer.
SrProbe probe_sr(Report& rep, const std::vector<SrInput>& inputs,
                 const std::shared_ptr<const RefinementLut>& lut,
                 ThreadPool* pool) {
  InterpolationConfig interp;
  interp.dilation = 2;
  const SrPipeline pipeline(lut, interp, pool);
  const std::size_t dk = lut->spec().receptive_field * 2;
  const MetricsRegistry& reg = MetricsRegistry::global();

  std::vector<double> build_ms, knn_ms, chamfer_ms, gains;
  std::vector<double> t_knn, t_mid, t_col, t_ref, gap;
  double scanned = 0.0, queries = 0.0;
  TwoLayerOctree octree;
  NeighborBuffer buf;
  for (const SrInput& in : inputs) {
    Timer build;
    octree.build(in.low.positions(), pool);
    build_ms.push_back(build.elapsed_ms());
    const double q0 = double(reg.counter_value("spatial/knn_queries"));
    const double s0 = double(reg.counter_value("spatial/points_scanned"));
    Timer knn;
    octree.batch_knn(dk, buf, pool, /*exact=*/false);
    knn_ms.push_back(knn.elapsed_ms());
    queries += double(reg.counter_value("spatial/knn_queries")) - q0;
    scanned += double(reg.counter_value("spatial/points_scanned")) - s0;

    Timer upsample;
    const SrResult full = pipeline.upsample(in.low, in.ratio);
    gap.push_back(upsample.elapsed_ms() - full.timing.total_ms());
    const SrResult plain = pipeline.upsample(in.low, in.ratio, false);
    t_knn.push_back(full.timing.knn_ms);
    t_mid.push_back(full.timing.interpolate_ms);
    t_col.push_back(full.timing.colorize_ms);
    t_ref.push_back(full.timing.refine_ms);
    Timer chamfer;
    const double c_full = chamfer_distance(full.cloud, in.gt, pool);
    chamfer_ms.push_back(chamfer.elapsed_ms());
    gains.push_back(chamfer_distance(plain.cloud, in.gt, pool) - c_full);
  }
  const std::size_t n = inputs.size();
  const double knn_s = mean(knn_ms) * double(n) / 1000.0;
  rep.layer("spatial.octree_build_ms", median(build_ms), n);
  rep.layer("spatial.knn_ms", median(knn_ms), n);
  rep.layer("spatial.points_scanned_per_query",
            queries > 0 ? scanned / queries : 0.0, n);
  rep.layer("spatial.knn_evals_per_s", knn_s > 0 ? scanned / knn_s : 0.0, n);
  rep.layer("sr.refine_chamfer_gain", mean(gains), n);
  rep.layer("metrics.chamfer_ms", median(chamfer_ms), n);
  return {{median(t_knn), median(t_mid), median(t_col), median(t_ref)},
          median(gap)};
}

void add_stage_layers(Report& rep, const SrTiming& t, std::size_t n) {
  rep.layer("sr.knn_ms", t.knn_ms, n);
  rep.layer("sr.midpoint_ms", t.interpolate_ms, n);
  rep.layer("sr.colorize_ms", t.colorize_ms, n);
  rep.layer("sr.refine_ms", t.refine_ms, n);
}

// ---------------------------------------------------------------------------
// sr_stream: one viewer, decode + SR upsample per frame, closed loop
// ---------------------------------------------------------------------------

struct StreamFrame {
  EncodedFrame encoded;
  double density = 1.0;
  std::size_t expected_points = 0;
};

struct StreamInputs {
  bench::TrainedAssets assets;
  std::vector<StreamFrame> frames;
  /// Full-density truth of frames 0..3 (one per video): the fixed subset
  /// that quality and the worker-count check are scored on.
  std::vector<PointCloud> truth;
};

/// Frames of the four paper videos at full scale (100K points). Densities
/// are a seeded permutation of a fixed stratified grid over [0.2, 0.8] (the
/// range continuous MPC picks), so every seed streams the same density mix
/// in another order over other frames.
StreamInputs make_stream_inputs(const Options& opt, ThreadPool* pool) {
  StreamInputs in;
  in.assets = make_lut(opt.tiny, pool);
  const std::size_t n_frames = 16;
  std::vector<double> grid(n_frames);
  for (std::size_t j = 0; j < n_frames; ++j) {
    grid[j] = 0.2 + 0.6 * (double(j) + 0.5) / double(n_frames);
  }
  CounterRng rng(opt.seed, /*stream=*/1);
  for (std::size_t j = n_frames; j > 1; --j) {
    std::swap(grid[j - 1], grid[rng.next(j)]);
  }
  Rng sampler(rng.next_u64());
  const std::vector<VideoSpec> specs = VideoSpec::all(opt.tiny ? 0.02 : 1.0);
  for (std::size_t i = 0; i < n_frames; ++i) {
    const SyntheticVideo video(specs[i % specs.size()]);
    const PointCloud full = video.frame(rng.next(video.spec().frame_count));
    const PointCloud low = full.random_downsample_exact(
        std::size_t(std::llround(grid[i] * double(full.size()))), sampler);
    const double ratio = 1.0 / grid[i];
    in.frames.push_back(
        {encode_frame(low), grid[i],
         low.size() + std::size_t(std::llround(double(low.size()) *
                                               (ratio - 1.0)))});
    if (i < specs.size()) in.truth.push_back(full);
  }
  return in;
}

struct FrameSample {
  double total_ms = 0.0;
  double decode_ms = 0.0;
  SrTiming timing;
};

/// Closed loop over the frame list for `seconds`; one operation per frame.
/// Output checks and fingerprints run after the frame's clock stops.
std::vector<FrameSample> stream_loop(
    const StreamInputs& in, const SrPipeline& pipeline, double seconds,
    Report& rep, std::map<std::size_t, std::uint64_t>& fingerprints) {
  std::vector<FrameSample> samples;
  Timer wall;
  for (std::size_t i = 0; seconds_of(wall) < seconds; ++i) {
    const std::size_t f = i % in.frames.size();
    const StreamFrame& frame = in.frames[f];
    ++rep.attempted;
    try {
      FrameSample s;
      Timer timer;
      const PointCloud low = decode_frame(frame.encoded);
      s.decode_ms = timer.elapsed_ms();
      const SrResult sr = pipeline.upsample(low, 1.0 / frame.density);
      s.total_ms = timer.elapsed_ms();
      s.timing = sr.timing;
      if (sr.cloud.size() != frame.expected_points || !all_finite(sr.cloud)) {
        ++rep.failed;
        rep.check(false, "sr_stream: frame " + std::to_string(f) + " has " +
                             std::to_string(sr.cloud.size()) +
                             " points (expected " +
                             std::to_string(frame.expected_points) +
                             ") or non-finite output");
        continue;
      }
      if (f < in.truth.size() && fingerprints.count(f) == 0) {
        fingerprints[f] = fingerprint_cloud(sr.cloud);
      }
      samples.push_back(s);
    } catch (const std::exception& e) {
      ++rep.failed;
      rep.check(false, std::string("sr_stream: exception: ") + e.what());
    }
  }
  return samples;
}

std::vector<double> frame_times(const std::vector<FrameSample>& samples) {
  std::vector<double> t;
  for (const FrameSample& s : samples) t.push_back(s.total_ms);
  return t;
}

Report run_sr_stream(const Options& opt, ThreadPool& pool) {
  Report rep;
  rep.workload = "sr_stream";
  double setup_s = 0.0;
  const StreamInputs in = timed_setup(
      kSetupReps, [&] { return make_stream_inputs(opt, &pool); }, setup_s);
  InterpolationConfig interp;
  interp.dilation = 2;
  const SrPipeline pipeline(in.assets.lut, interp, &pool);

  // Warm-up: one pass grows the pipeline's scratch buffers.
  for (const StreamFrame& f : in.frames) {
    pipeline.upsample(decode_frame(f.encoded), 1.0 / f.density);
  }

  std::map<std::size_t, std::uint64_t> fingerprints;
  std::vector<FrameSample> samples;
  if (!opt.traced) {
    samples = stream_loop(in, pipeline, opt.seconds, rep, fingerprints);
  } else {
    // Untraced half, then the traced half: the ratio of their medians is
    // the tracing overhead.
    const std::vector<FrameSample> ref =
        stream_loop(in, pipeline, opt.seconds / 2, rep, fingerprints);
    TraceCollector::global().start();
    samples = stream_loop(in, pipeline, opt.seconds / 2, rep, fingerprints);
    TraceCollector::global().stop();
    rep.layer("obs.trace_overhead",
              median(frame_times(samples)) / median(frame_times(ref)),
              samples.size());
  }
  const std::vector<double> times = frame_times(samples);
  const std::size_t n = times.size();
  rep.check(n > 0, "sr_stream: no frame completed");
  double total_ms = 0.0, bytes = 0.0;
  for (double t : times) total_ms += t;
  for (const StreamFrame& f : in.frames) bytes += double(f.encoded.byte_size());

  const double p50 = median(times);
  rep.e2e("setup_s", setup_s, kSetupReps);
  rep.e2e("latency_ms_p50", p50, n);
  rep.e2e("latency_ms_p95", n ? percentile(times, 95.0) : 0.0, n);
  rep.e2e("throughput_per_s", total_ms > 0 ? 1000.0 * double(n) / total_ms
                                           : 0.0, n);
  rep.e2e("mb_per_op", bytes / double(in.frames.size()) / 1e6,
          in.frames.size());
  rep.e2e("peak_rss_mb", peak_rss_mb(), 1);

  // --- correctness and quality, outside the timed region -------------------
  // The quality subset upsampled on a 1-worker pool must be bit-identical to
  // the timed pool's output, in this call and in the timed loop.
  ThreadPool serial(1);
  const SrPipeline serial_pipeline(in.assets.lut, interp, &serial);
  std::vector<double> serial_ms, pooled_ms, chamfers;
  std::vector<SrInput> probe_inputs;
  for (std::size_t f = 0; f < in.truth.size(); ++f) {
    const PointCloud low = decode_frame(in.frames[f].encoded);
    const double ratio = 1.0 / in.frames[f].density;
    Timer ts;
    const SrResult one = serial_pipeline.upsample(low, ratio);
    serial_ms.push_back(ts.elapsed_ms());
    Timer tp;
    const SrResult many = pipeline.upsample(low, ratio);
    pooled_ms.push_back(tp.elapsed_ms());
    const std::uint64_t fp = fingerprint_cloud(one.cloud);
    const std::string frame = " (frame " + std::to_string(f) + ")";
    rep.check(fp == fingerprint_cloud(many.cloud),
              "sr_stream: output differs between 1 and " +
                  std::to_string(pool.worker_count()) + " workers" + frame);
    rep.check(fingerprints.count(f) == 0 || fingerprints.at(f) == fp,
              "sr_stream: timed-loop output differs from the 1-worker "
              "output" + frame);
    rep.check(one.cloud.size() == in.frames[f].expected_points,
              "sr_stream: output size does not match the ratio" + frame);
    chamfers.push_back(chamfer_distance(many.cloud, in.truth[f], &pool));
    probe_inputs.push_back({low, ratio, in.truth[f]});
  }
  const double sr_chamfer = mean(chamfers);
  rep.check(std::isfinite(sr_chamfer) && sr_chamfer > 0.0,
            "sr_stream: chamfer is not a positive finite number");
  rep.extra = {
      {"frame_ms_p50", p50, "ms", n},
      {"frame_ms_p95", rep.end_to_end["latency_ms_p95"].value, "ms", n},
      {"frames_per_s", rep.end_to_end["throughput_per_s"].value, "1/s", n},
      {"sr_chamfer", sr_chamfer, "chamfer", chamfers.size()},
  };
  add_supported_tail(rep, "frame_ms", times);

  if (opt.traced) {
    std::vector<double> decode, unaccounted, k, m, c, r;
    for (const FrameSample& s : samples) {
      decode.push_back(s.decode_ms);
      unaccounted.push_back(s.total_ms - s.decode_ms - s.timing.total_ms());
      k.push_back(s.timing.knn_ms);
      m.push_back(s.timing.interpolate_ms);
      c.push_back(s.timing.colorize_ms);
      r.push_back(s.timing.refine_ms);
    }
    rep.layer("codec.decode_ms", median(decode), n);
    add_stage_layers(rep, {median(k), median(m), median(c), median(r)}, n);
    const double gap = median(unaccounted);
    rep.layer("sr.unaccounted_ms", gap, n);
    if (gap > 0.05 * p50) {
      rep.notes.push_back("FLAG: sr.unaccounted_ms is above 5% of the frame "
                          "time");
    }
    probe_sr(rep, probe_inputs, in.assets.lut, &pool);
    rep.layer("platform.pool_speedup", median(serial_ms) / median(pooled_ms),
              serial_ms.size());
    rep.layer("platform.fork_us", fork_us(pool));
    add_setup_layers(rep, opt.tiny, &pool);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Fleet workloads
// ---------------------------------------------------------------------------

struct FleetInputs {
  bench::TrainedAssets assets;  // empty for fleet_large
  FleetConfig config;
};

/// The shared fleet shape: a make_mixed_fleet mix arriving every 0.25 s on
/// two LTE replica uplinks, each provisioned at 1.2x its share of the
/// steady-state full-density demand: contended (stalls near 2% on
/// fleet_large) but not saturated. The seed varies the uplink traces and the
/// session seeds only, so every seed offers the same load.
FleetConfig make_fleet(std::size_t sessions, std::size_t chunks,
                       CounterRng& rng) {
  const double spacing = 0.25;
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(sessions, spacing, chunks);
  for (FleetClientConfig& c : fleet.clients) c.session.seed = rng.next_u64();

  const VideoServer server(fleet.clients.front().session.video);
  const double full_mbps = server.chunk_bytes(1.0, 1.0) * 8.0 / 1e6;
  const double concurrent =
      std::min(double(sessions), double(chunks) / spacing);
  const double mbps = full_mbps * concurrent / 2.0 * 1.2;
  for (std::size_t r = 0; r < 2; ++r) {
    fleet.replica_uplinks.push_back(
        BandwidthTrace::lte(mbps, mbps * 0.2, 600.0, rng.next_u64()));
  }
  fleet.rtt_seconds = 0.020;
  fleet.encode_seconds_full = 0.040;
  return fleet;
}

/// 1024 sessions, where the per-event sweeps already dominate: at 2048 one
/// run takes seconds, too few runs fit a window for a steady median.
FleetInputs make_fleet_large(const Options& opt) {
  FleetInputs in;
  CounterRng rng(opt.seed, /*stream=*/2);
  in.config = make_fleet(opt.tiny ? 64 : 1024, opt.tiny ? 6 : 20, rng);
  in.config.cache_budget_bytes = std::size_t(1) << 30;
  return in;
}

/// Fault windows every `period` seconds per replica, offset per replica so
/// the two never fail together, each start jittered by up to +-`jitter` s.
/// A fixed count of faults with seeded timing keeps every seed's fault load
/// the same (Poisson counts over a ~100 s timeline would not).
std::vector<FaultWindow> periodic_windows(double first, double period,
                                          double seconds, double jitter,
                                          double until, CounterRng& rng) {
  std::vector<FaultWindow> out;
  for (std::size_t r = 0; r < 2; ++r) {
    for (double t = first + period * 0.5 * double(r); t < until; t += period) {
      const double u = double(rng.next(1u << 20)) / double(1u << 20);
      out.push_back({r, t + jitter * (2.0 * u - 1.0), seconds});
    }
  }
  return out;
}

FleetInputs make_fleet_faults(const Options& opt, ThreadPool* pool) {
  FleetInputs in;
  in.assets = make_lut(opt.tiny, pool);
  CounterRng rng(opt.seed, /*stream=*/3);
  in.config = make_fleet(opt.tiny ? 32 : 256, opt.tiny ? 6 : 20, rng);
  FleetConfig& f = in.config;
  f.cache_budget_bytes = std::size_t(4) << 20;
  f.max_wait_seconds = 10.0;
  f.measure_sr_stride = 4;
  f.sr_lut = in.assets.lut;
  const double until = opt.tiny ? 20.0 : 100.0;
  f.faults.crashes = periodic_windows(15.0, 30.0, 3.0, 3.0, until, rng);
  f.faults.blackouts = periodic_windows(5.0, 15.0, 1.5, 2.0, until, rng);
  f.faults.seed = rng.next_u64();
  f.faults.encode_failure_rate = 0.05;
  // Enough attempts that a 5% per-attempt failure never exhausts a key
  // (0.05^6 per encode): failures exercise retry, not session loss.
  f.recovery.encode_max_attempts = 6;
  return in;
}

std::uint64_t fingerprint_fleet(const FleetResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) { h = bench::fnv1a(&v, sizeof(v), h); };
  for (const SessionResult& s : r.sessions) {
    mix(s.qoe);
    mix(s.total_bytes);
    mix(s.stall_seconds);
  }
  for (const FleetSrSample& s : r.sr_samples) mix(s.chamfer);
  for (const double v :
       {double(r.timeline_events), double(r.cache.hits),
        double(r.cache.evictions), double(r.failovers),
        double(r.downloads_aborted), double(r.encode_queue.retries)}) {
    mix(v);
  }
  return h;
}

/// Repeats run_fleet for `seconds` (at least once) and returns each run's
/// wall time. Each run is checked and compared with `reference`, the untimed
/// warm-up run: the timeline is deterministic, so the event count and the
/// fingerprint must repeat exactly. Results are not kept, so memory stays
/// flat however many runs fit.
std::vector<double> fleet_loop(const FleetConfig& config, ThreadPool* pool,
                               double seconds, const FleetResult& reference,
                               Report& rep) {
  std::vector<double> wall_ms;
  const std::string& name = rep.workload;
  Timer wall;
  while (wall_ms.empty() || seconds_of(wall) < seconds) {
    Timer timer;
    const FleetResult r = run_fleet(config, pool);
    wall_ms.push_back(timer.elapsed_ms());
    const std::size_t lost =
        r.rejected + r.failed_sessions + r.unfinished_sessions;
    rep.attempted += config.clients.size();
    rep.failed += lost;
    rep.check(r.completed, name + ": the timeline did not complete");
    rep.check(lost == 0, name + ": " + std::to_string(lost) +
                             " sessions rejected, failed or unfinished");
    rep.check(r.timeline_events == reference.timeline_events,
              name + ": timeline_events differ between repetitions");
    rep.check(fingerprint_fleet(r) == fingerprint_fleet(reference),
              name + ": the fingerprint differs between repetitions");
  }
  return wall_ms;
}

/// Per-layer probes of abr / stream / net / data on the fleet's own inputs.
void add_component_layers(Report& rep, const FleetConfig& config,
                          const FleetResult& r) {
  const SessionConfig& session = config.clients.front().session;
  const double full_bytes = SessionEngine(session).full_chunk_bytes();

  // abr: decide() over contexts spanning throughput and buffer states.
  std::vector<AbrContext> contexts(32);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    AbrContext& ctx = contexts[i];
    ctx.throughput_mbps = 5.0 + 3.0 * double(i);
    ctx.buffer_seconds = 0.5 * double(i % 8);
    ctx.prev_density_ratio = 0.2 + 0.025 * double(i);
    ctx.full_chunk_bytes = full_bytes;
    ctx.sr_seconds_per_chunk_full = session.volut_sr_seconds_per_chunk;
  }
  ContinuousMpcAbr continuous(session.qoe);
  DiscreteMpcAbr discrete(session.qoe);
  std::size_t next = 0;
  rep.layer("abr.continuous_decide_us", median_call_us(9, 64, [&] {
              g_sink = continuous.decide(contexts[next++ % 32]).density_ratio;
            }));
  rep.layer("abr.discrete_decide_us", median_call_us(9, 256, [&] {
              g_sink = discrete.decide(contexts[next++ % 32]).density_ratio;
            }));

  // stream: plan_chunk + complete_chunk over whole sessions of each system
  // kind in the mix (make_mixed_fleet cycles kinds, so the first four
  // clients cover all of them), on a steady 40 Mbps private link.
  std::vector<double> step_us;
  std::size_t steps = 0;
  for (int i = 0; i < 9; ++i) {
    double us = 0.0;
    steps = 0;
    for (std::size_t c = 0;
         c < std::min<std::size_t>(4, config.clients.size()); ++c) {
      SessionEngine engine(config.clients[c].session);
      double now = 0.0;
      Timer timer;
      while (!engine.done()) {
        const ChunkPlan plan = engine.plan_chunk(now, 40.0);
        now = engine.complete_chunk(plan, now, now + plan.bytes * 8.0 / 40e6);
        ++steps;
      }
      us += timer.elapsed_us();
    }
    step_us.push_back(us / double(std::max<std::size_t>(1, steps)));
  }
  rep.layer("stream.chunk_step_us", median(step_us), steps);

  // net: next_completion_time with the run's peak concurrent flows active.
  std::size_t peak = 1;
  for (const ReplicaStats& s : r.replicas) {
    peak = std::max(peak, s.peak_concurrent_flows);
  }
  SharedLink link(config.replica_uplinks.front());
  for (std::size_t i = 0; i < peak; ++i) {
    link.start_flow(full_bytes * (0.2 + 0.6 * double(i % 7) / 7.0));
  }
  double now = 0.0;
  rep.layer("net.next_completion_us", median_call_us(9, 32, [&] {
              g_sink = link.next_completion_time(now);
              now = std::fmod(now + 0.37, 60.0);
            }),
            peak);

  // data: the server-side sample frame the measured-SR path decodes.
  std::vector<double> frame_ms;
  VideoServer server(session.video);
  for (std::size_t chunk = 0; chunk < 8; ++chunk) {
    Timer timer;
    g_sink = double(server.encode_sample_frame(chunk, 0.5, 1.0).size());
    frame_ms.push_back(timer.elapsed_ms());
  }
  rep.layer("data.sample_frame_ms", median(frame_ms), frame_ms.size());
}

void add_serve_layers(Report& rep, const FleetResult& r, double wall_ms) {
  const double events = double(r.timeline_events);
  rep.layer("serve.ns_per_event", events > 0 ? wall_ms * 1e6 / events : 0.0);
  rep.layer("serve.events", events);
  rep.layer("serve.cache_hit_rate", r.cache.hit_rate());
  rep.layer("serve.cache_evictions", double(r.cache.evictions));
  rep.layer("serve.encode_coalesced_joins",
            double(r.encode_queue.coalesced_joins));
  rep.layer("serve.encode_retries", double(r.encode_queue.retries));
  rep.layer("serve.failovers", double(r.failovers));
  rep.layer("serve.downloads_aborted", double(r.downloads_aborted));
}

Report run_fleet_workload(const Options& opt, ThreadPool& pool, bool faults) {
  Report rep;
  rep.workload = faults ? "fleet_faults" : "fleet_large";
  // fleet_large's set-up is only config building (a fraction of a
  // millisecond), so it takes more repetitions for a steady median.
  const int setup_reps = faults ? kSetupReps : 21;
  double setup_s = 0.0;
  const FleetInputs in = timed_setup(
      setup_reps,
      [&] {
        return faults ? make_fleet_faults(opt, &pool) : make_fleet_large(opt);
      },
      setup_s);

  // Warm-up run: first-touch costs stay out of the timed runs, and its
  // result is the reference every timed repetition must reproduce.
  const FleetResult r = run_fleet(in.config, &pool);
  std::vector<double> wall;
  if (!opt.traced) {
    wall = fleet_loop(in.config, &pool, opt.seconds, r, rep);
  } else {
    const std::vector<double> ref =
        fleet_loop(in.config, &pool, opt.seconds / 2, r, rep);
    TraceCollector::global().start();
    wall = fleet_loop(in.config, &pool, opt.seconds / 2, r, rep);
    TraceCollector::global().stop();
    rep.layer("obs.trace_overhead", median(wall) / median(ref), wall.size());
  }
  double total_ms = 0.0;
  for (double ms : wall) total_ms += ms;
  const double events = double(r.timeline_events) * double(wall.size());
  const double p50 = median(wall);
  const double mb_per_session =
      r.total_bytes / 1e6 / double(std::max<std::size_t>(1, r.admitted));

  rep.e2e("setup_s", setup_s, std::size_t(setup_reps));
  rep.e2e("latency_ms_p50", p50, wall.size());
  rep.e2e("latency_ms_p95", percentile(wall, 95.0), wall.size());
  rep.e2e("throughput_per_s", events / (total_ms / 1000.0), wall.size());
  rep.e2e("mb_per_op", mb_per_session, r.admitted);
  rep.e2e("peak_rss_mb", peak_rss_mb(), 1);

  // Worker-count independence: the same fleet on a 1-worker pool.
  double serial_ms = 0.0;
  if (faults || opt.traced) {
    ThreadPool serial(1);
    Timer timer;
    const FleetResult one = run_fleet(in.config, &serial);
    serial_ms = timer.elapsed_ms();
    rep.check(fingerprint_fleet(one) == fingerprint_fleet(r),
              rep.workload + ": the fleet differs between 1 and " +
                  std::to_string(pool.worker_count()) + " workers");
  }

  std::vector<double> qoe, chamfers;
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    if (r.replica_of[i] != SIZE_MAX) {
      qoe.push_back(r.sessions[i].normalized_qoe());
    }
  }
  for (const FleetSrSample& s : r.sr_samples) chamfers.push_back(s.chamfer);
  rep.check(!faults || !chamfers.empty(),
            rep.workload + ": no measured SR samples");
  rep.extra = {
      {"fleet_run_s", p50 / 1000.0, "s", wall.size()},
      {"events_per_s", events / (total_ms / 1000.0), "1/s", wall.size()},
      {"qoe_mean", mean(qoe), "qoe", qoe.size()},
      {"qoe_p10", qoe.empty() ? 0.0 : percentile(qoe, 10.0), "qoe",
       qoe.size()},
      {"stall_rate", r.stall_rate, "fraction", qoe.size()},
      {"mb_per_session", mb_per_session, "MB", r.admitted},
      {"sr_chamfer", mean(chamfers), "chamfer", chamfers.size()},
  };
  add_supported_tail(rep, "latency_ms", wall);

  if (opt.traced) {
    add_serve_layers(rep, r, p50);
    add_component_layers(rep, in.config, r);
    rep.layer("platform.pool_speedup", serial_ms / p50);
    rep.layer("platform.fork_us", fork_us(pool));
    if (faults) {
      // The SR layers on the fleet's own sample frames; the measured-SR
      // path runs one serial pipeline per sample, and so does the probe.
      // Samples the ABR fetched at full density upsample nothing; probe
      // up to eight of the others, spread over the run.
      std::vector<const FleetSrSample*> upsampled;
      for (const FleetSrSample& sample : r.sr_samples) {
        if (sample.density_ratio < 1.0) upsampled.push_back(&sample);
      }
      std::vector<SrInput> inputs;
      const std::size_t stride =
          std::max<std::size_t>(1, upsampled.size() / 8);
      for (std::size_t s = 0; s < upsampled.size(); s += stride) {
        const FleetSrSample& sample = *upsampled[s];
        const SessionConfig& session = in.config.clients[sample.client].session;
        VideoServer server(session.video);
        inputs.push_back(
            {server.encode_sample_frame(sample.chunk, sample.density_ratio,
                                        session.chunk_seconds),
             1.0 / sample.density_ratio,
             server.ground_truth_frame(sample.chunk, session.chunk_seconds)});
      }
      const SrProbe probe = probe_sr(rep, inputs, in.assets.lut, nullptr);
      add_stage_layers(rep, probe.timing, inputs.size());
      rep.layer("sr.unaccounted_ms", probe.unaccounted_ms, inputs.size());
      add_setup_layers(rep, opt.tiny, &pool);
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// (name, value, unit, samples) rows of one table, in table order; layers a
/// workload did not set read as zero work.
template <std::size_t N>
std::vector<Row> rows(const MetricSpec (&table)[N],
                        const std::map<std::string, Value>& values) {
  std::vector<Row> out;
  for (const MetricSpec& m : table) {
    const auto it = values.find(m.name);
    const Value v = it == values.end() ? Value{} : it->second;
    out.push_back({m.name, v.value, m.unit, v.samples});
  }
  return out;
}

std::vector<Row> result_rows(const Report& rep, bool traced) {
  if (traced) return rows(kPerLayer, rep.per_layer);
  for (const MetricSpec& m : kEndToEnd) {
    if (rep.end_to_end.count(m.name) == 0) {
      throw std::logic_error(rep.workload + " did not measure " + m.name);
    }
  }
  return rows(kEndToEnd, rep.end_to_end);
}

void print_rows(const char* title, const std::vector<Row>& rows) {
  std::printf("  %s\n", title);
  for (const Row& m : rows) {
    std::printf("    %-34s %16.6g %-9s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void print_report(const Report& rep, bool traced) {
  bench::print_header("workload " + rep.workload +
                      (traced ? " (traced)" : ""));
  print_rows(traced ? "per-layer metrics" : "end-to-end metrics",
             result_rows(rep, traced));
  print_rows("workload figures", rep.extra);
  std::printf("  operations attempted %zu, failed %zu\n", rep.attempted,
              rep.failed);
  for (const std::string& note : rep.notes) std::printf("  %s\n", note.c_str());
  for (const std::string& v : rep.violations) {
    std::printf("  CORRECTNESS VIOLATION: %s\n", v.c_str());
  }
}

void print_meta(const Options& opt, std::size_t workers) {
  std::printf(
      "{\"meta\": {\"nproc\": %u, \"workers\": %zu, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"simd_detected\": \"%s\", "
      "\"simd_active\": \"%s\", \"volut_obs\": %d, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      std::thread::hardware_concurrency(), workers,
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      VOLUT_PERFBENCH_BUILD_TYPE, simd_level_name(simd_detected_level()),
      simd_level_name(simd_active_level()), int(VOLUT_OBS_ENABLED),
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, int(opt.traced));
}

/// Parses the flags left after JsonReporter took --json; false on a usage
/// error.
bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt.traced = v == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (arg == "--metrics-out") {
      opt.metrics_out = argv[++i];
    } else {
      return false;
    }
  }
  return (opt.workload == "sr_stream" || opt.workload == "fleet_large" ||
          opt.workload == "fleet_faults" || opt.workload == "all") &&
         opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter record =
      bench::JsonReporter::from_args(argc, argv, "volut_perfbench");
  Options opt;
  bool ok = false;
  try {
    ok = parse_args(argc, argv, opt);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: volut_perfbench --workload "
                 "sr_stream|fleet_large|fleet_faults|all --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--json PATH] "
                 "[--trace-out PATH] [--metrics-out PATH]\n");
    return 2;
  }

  const std::size_t workers = bench_workers();
  ThreadPool pool(workers);
  const std::vector<std::string> names =
      opt.workload == "all"
          ? std::vector<std::string>{"sr_stream", "fleet_large",
                                     "fleet_faults"}
          : std::vector<std::string>{opt.workload};

  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::string metrics;
  try {
    for (const std::string& name : names) {
      Options o = opt;
      o.workload = name;
      const Report rep = name == "sr_stream"
                             ? run_sr_stream(o, pool)
                             : run_fleet_workload(o, pool,
                                                  name == "fleet_faults");
      print_report(rep, opt.traced);
      correct = correct && rep.correct();
      attempted += rep.attempted;
      failed += rep.failed;
      // A multi-workload line prefixes each metric with its workload.
      const std::string prefix = names.size() > 1 ? name + "/" : "";
      for (const Row& m : result_rows(rep, opt.traced)) {
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + prefix +
                   m.name + "\": {\"value\": " + json_number(m.value) +
                   ", \"unit\": \"" + m.unit + "\"}";
        record.add(name + "/" + m.name, m.value, m.unit);
      }
      for (const Row& m : rep.extra) {
        record.add(name + "/" + m.name, m.value, m.unit);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volut_perfbench: %s\n", e.what());
    return 1;
  }

  record.add("meta/host_cores", double(std::thread::hardware_concurrency()),
             "count");
  record.add("meta/workers", double(workers), "count");
  record.add("meta/simd_detected", double(int(simd_detected_level())),
             "level");
  record.add("meta/simd_active", double(int(simd_active_level())), "level");
  record.add("meta/volut_obs", double(VOLUT_OBS_ENABLED), "bool");
  if (!record.write()) return 1;
  if (!opt.trace_out.empty() &&
      !TraceCollector::global().write_json(opt.trace_out)) {
    return 1;
  }
  if (!opt.metrics_out.empty() &&
      !MetricsRegistry::global().write_json(opt.metrics_out)) {
    return 1;
  }

  print_meta(opt, workers);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
