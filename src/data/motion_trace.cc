#include "src/data/motion_trace.h"

#include <cmath>
#include <numbers>

#include "src/core/rng.h"

namespace volut {

MotionTrace MotionTrace::generate(const MotionTraceSpec& spec, int user) {
  constexpr float kPi = std::numbers::pi_v<float>;
  CounterRng rng(spec.seed, /*stream=*/std::uint64_t(user));
  const float phase0 = rng.uniform(0.0f, 2.0f * kPi);
  const float radius = spec.orbit_radius * rng.uniform(0.85f, 1.15f);
  const float speed_scale = rng.uniform(0.8f, 1.25f);

  std::vector<Pose> poses;
  poses.reserve(spec.frames);
  // Smoothed jitter state (first-order low-pass over white noise) keeps the
  // trace continuous like a real head-tracked viewer.
  Vec3f jitter{};
  float yaw_jitter = 0.0f, pitch_jitter = 0.0f;
  for (std::size_t f = 0; f < spec.frames; ++f) {
    const float t = float(f) / float(std::max<std::size_t>(1, spec.frames));
    const float angle =
        phase0 + spec.orbit_turns * speed_scale * 2.0f * kPi * t;
    jitter = jitter * 0.95f + Vec3f{rng.gaussian(spec.position_jitter),
                                    rng.gaussian(spec.position_jitter * 0.3f),
                                    rng.gaussian(spec.position_jitter)} *
                                  0.05f;
    yaw_jitter = yaw_jitter * 0.95f + rng.gaussian(spec.angle_jitter) * 0.05f;
    pitch_jitter =
        pitch_jitter * 0.95f + rng.gaussian(spec.angle_jitter) * 0.05f;

    Pose pose;
    pose.position = Vec3f{radius * std::sin(angle), spec.eye_height,
                          radius * std::cos(angle)} +
                    jitter;
    // Look at the content center (origin at eye height ~1m).
    const Vec3f target{0.0f, 1.0f, 0.0f};
    const Vec3f dir = (target - pose.position).normalized();
    pose.yaw = std::atan2(dir.x, -dir.z) + yaw_jitter;
    pose.pitch = std::asin(-dir.y) + pitch_jitter;
    pose.roll = 0.0f;
    poses.push_back(pose);
  }
  return MotionTrace(std::move(poses), spec.fps);
}

}  // namespace volut
