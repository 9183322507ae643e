#include "src/data/synthetic_video.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "src/core/rng.h"

namespace volut {

namespace {

constexpr float kPi = std::numbers::pi_v<float>;

// ---------------------------------------------------------------------------
// Surface sampling primitives. Each emits `n` points of a parametric surface
// into `out`, colored by a deterministic texture function of (u, v).
// ---------------------------------------------------------------------------

using TextureFn = Color (*)(float u, float v);

Color stripe_texture(float u, float v) {
  const bool band = std::fmod(v * 8.0f, 1.0f) < 0.5f;
  const auto base = band ? Color{200, 40, 60} : Color{240, 220, 200};
  const float shade = 0.8f + 0.2f * std::sin(u * 2.0f * kPi * 3.0f);
  return Color{to_channel(float(base.r) * shade),
               to_channel(float(base.g) * shade),
               to_channel(float(base.b) * shade)};
}

Color metal_texture(float u, float v) {
  const float g = 120.0f + 80.0f * std::sin(u * 11.0f + v * 7.0f);
  return Color{to_channel(g * 0.9f), to_channel(g * 0.8f), to_channel(g * 0.5f)};
}

Color skin_texture(float u, float v) {
  const float s = 0.9f + 0.1f * std::sin(u * 9.0f) * std::cos(v * 5.0f);
  return Color{to_channel(224.0f * s), to_channel(172.0f * s),
               to_channel(140.0f * s)};
}

Color wall_texture(float u, float v) {
  const bool grid = std::fmod(u * 10.0f, 1.0f) < 0.06f ||
                    std::fmod(v * 10.0f, 1.0f) < 0.06f;
  const std::uint8_t g = grid ? 90 : 190;
  return Color{g, g, std::uint8_t(g + 20)};
}

/// Cylinder of given radius/height centered at `base` along +Y, with a
/// per-height radius modifier for skirts/cones.
void sample_cylinder(PointCloud& out, std::size_t n, Rng& rng,
                     const Vec3f& base, float radius, float height,
                     TextureFn tex, float flare = 0.0f,
                     float sway_phase = 0.0f, float sway_amp = 0.0f) {
  for (std::size_t i = 0; i < n; ++i) {
    const float u = rng.uniform();  // angle parameter
    const float v = rng.uniform();  // height parameter
    const float theta = u * 2.0f * kPi;
    const float r = radius * (1.0f + flare * v);
    const float sway = sway_amp * std::sin(sway_phase + theta);
    out.push_back(
        Vec3f{base.x + r * std::cos(theta) + sway * v, base.y + v * height,
              base.z + r * std::sin(theta)},
        tex(u, v));
  }
}

/// Sphere (or vertically squashed ellipsoid) centered at `c`.
void sample_sphere(PointCloud& out, std::size_t n, Rng& rng, const Vec3f& c,
                   float radius, TextureFn tex, float squash = 1.0f) {
  for (std::size_t i = 0; i < n; ++i) {
    const float u = rng.uniform();
    const float v = rng.uniform();
    const float theta = u * 2.0f * kPi;
    const float phi = std::acos(1.0f - 2.0f * v);
    out.push_back(Vec3f{c.x + radius * std::sin(phi) * std::cos(theta),
                        c.y + radius * squash * std::cos(phi),
                        c.z + radius * std::sin(phi) * std::sin(theta)},
                  tex(u, v));
  }
}

/// Axis-aligned rectangular patch spanned by (origin, edge_u, edge_v).
void sample_patch(PointCloud& out, std::size_t n, Rng& rng,
                  const Vec3f& origin, const Vec3f& edge_u,
                  const Vec3f& edge_v, TextureFn tex) {
  for (std::size_t i = 0; i < n; ++i) {
    const float u = rng.uniform();
    const float v = rng.uniform();
    out.push_back(origin + edge_u * u + edge_v * v, tex(u, v));
  }
}

/// Capsule-ish limb: cylinder from `a` to `b` with the given radius.
void sample_limb(PointCloud& out, std::size_t n, Rng& rng, const Vec3f& a,
                 const Vec3f& b, float radius, TextureFn tex) {
  const Vec3f axis = b - a;
  const Vec3f axis_n = axis.normalized();
  // Build an orthonormal frame around the limb axis.
  const Vec3f ref = std::abs(axis_n.y) < 0.9f ? Vec3f{0, 1, 0} : Vec3f{1, 0, 0};
  const Vec3f e1 = axis_n.cross(ref).normalized();
  const Vec3f e2 = axis_n.cross(e1);
  for (std::size_t i = 0; i < n; ++i) {
    const float u = rng.uniform();
    const float v = rng.uniform();
    const float theta = u * 2.0f * kPi;
    out.push_back(a + axis * v + (e1 * std::cos(theta) + e2 * std::sin(theta)) * radius,
                  tex(u, v));
  }
}

// ---------------------------------------------------------------------------
// Per-video scene builders. `phase` in [0, 1) is the loop-normalized time.
// ---------------------------------------------------------------------------

PointCloud build_dress(std::size_t n, float phase, Rng& rng) {
  PointCloud out;
  out.reserve(n);
  const float sway = std::sin(phase * 2.0f * kPi);
  // Legs (20%), torso (25%), skirt (35%), head (10%), arms (10%).
  const auto part = [n](double f) { return std::size_t(double(n) * f); };
  sample_limb(out, part(0.10), rng, {-0.12f, 0.0f, 0.0f},
              {-0.12f + 0.03f * sway, 0.75f, 0.0f}, 0.07f, skin_texture);
  sample_limb(out, part(0.10), rng, {0.12f, 0.0f, 0.0f},
              {0.12f + 0.03f * sway, 0.75f, 0.0f}, 0.07f, skin_texture);
  sample_cylinder(out, part(0.25), rng, {0.0f, 0.75f, 0.0f}, 0.16f, 0.55f,
                  stripe_texture);
  sample_cylinder(out, part(0.35), rng, {0.0f, 0.35f, 0.0f}, 0.17f, 0.45f,
                  stripe_texture, /*flare=*/1.3f,
                  /*sway_phase=*/phase * 2.0f * kPi, /*sway_amp=*/0.08f);
  sample_sphere(out, part(0.10), rng, {0.0f, 1.45f, 0.0f}, 0.11f,
                skin_texture);
  sample_limb(out, part(0.05), rng, {-0.18f, 1.25f, 0.0f},
              {-0.30f, 0.85f + 0.1f * sway, 0.08f}, 0.045f, skin_texture);
  sample_limb(out, part(0.05), rng, {0.18f, 1.25f, 0.0f},
              {0.30f, 0.85f - 0.1f * sway, 0.08f}, 0.045f, skin_texture);
  return out;
}

PointCloud build_loot(std::size_t n, float phase, Rng& rng) {
  PointCloud out;
  out.reserve(n);
  const float bob = 0.03f * std::sin(phase * 2.0f * kPi);
  const auto part = [n](double f) { return std::size_t(double(n) * f); };
  // Crouched figure: compact torso, bent legs, head forward.
  sample_sphere(out, part(0.40), rng, {0.0f, 0.55f + bob, 0.0f}, 0.28f,
                metal_texture, /*squash=*/0.8f);
  sample_limb(out, part(0.15), rng, {-0.15f, 0.0f, 0.1f},
              {-0.2f, 0.45f + bob, -0.05f}, 0.08f, metal_texture);
  sample_limb(out, part(0.15), rng, {0.15f, 0.0f, 0.1f},
              {0.2f, 0.45f + bob, -0.05f}, 0.08f, metal_texture);
  sample_sphere(out, part(0.12), rng, {0.0f, 0.95f + bob, 0.12f}, 0.11f,
                skin_texture);
  sample_limb(out, part(0.09), rng, {-0.26f, 0.6f + bob, 0.0f},
              {-0.1f, 0.3f, 0.25f}, 0.05f, skin_texture);
  sample_limb(out, part(0.09), rng, {0.26f, 0.6f + bob, 0.0f},
              {0.1f, 0.3f, 0.25f}, 0.05f, skin_texture);
  return out;
}

PointCloud build_haggle(std::size_t n, float phase, Rng& rng) {
  PointCloud out;
  out.reserve(n);
  const float gesture = std::sin(phase * 2.0f * kPi * 2.0f);
  const auto part = [n](double f) { return std::size_t(double(n) * f); };
  // Two figures ~1m apart, facing each other along X, arms gesturing.
  for (int who = 0; who < 2; ++who) {
    const float side = who == 0 ? -0.55f : 0.55f;
    const float toward = who == 0 ? 1.0f : -1.0f;
    const float g = who == 0 ? gesture : -gesture;
    sample_cylinder(out, part(0.17), rng, {side, 0.0f, 0.0f}, 0.15f, 1.3f,
                    who == 0 ? stripe_texture : metal_texture);
    sample_sphere(out, part(0.06), rng, {side, 1.45f, 0.0f}, 0.11f,
                  skin_texture);
    sample_limb(out, part(0.055), rng, {side, 1.2f, 0.12f},
                {side + toward * (0.3f + 0.1f * g), 1.0f + 0.15f * g, 0.15f},
                0.045f, skin_texture);
    sample_limb(out, part(0.055), rng, {side, 1.2f, -0.12f},
                {side + toward * 0.25f, 0.95f, -0.15f}, 0.045f, skin_texture);
    sample_limb(out, part(0.08), rng, {side - 0.08f, 0.0f, 0.0f},
                {side - 0.08f, 0.7f, 0.0f}, 0.06f, skin_texture);
    sample_limb(out, part(0.08), rng, {side + 0.08f, 0.0f, 0.0f},
                {side + 0.08f, 0.7f, 0.0f}, 0.06f, skin_texture);
  }
  return out;
}

PointCloud build_lab(std::size_t n, float phase, Rng& rng) {
  PointCloud out;
  out.reserve(n);
  const auto part = [n](double f) { return std::size_t(double(n) * f); };
  // Room shell: floor + two walls + desk, and an orbiting gadget.
  sample_patch(out, part(0.30), rng, {-1.5f, 0.0f, -1.5f}, {3.0f, 0, 0},
               {0, 0, 3.0f}, wall_texture);
  sample_patch(out, part(0.20), rng, {-1.5f, 0.0f, -1.5f}, {3.0f, 0, 0},
               {0, 2.2f, 0}, wall_texture);
  sample_patch(out, part(0.20), rng, {-1.5f, 0.0f, -1.5f}, {0, 0, 3.0f},
               {0, 2.2f, 0}, wall_texture);
  sample_patch(out, part(0.15), rng, {-0.6f, 0.8f, -0.9f}, {1.2f, 0, 0},
               {0, 0, 0.6f}, metal_texture);
  const float orbit = phase * 2.0f * kPi;
  sample_sphere(out, part(0.15), rng,
                {0.8f * std::cos(orbit), 1.2f + 0.2f * std::sin(2.0f * orbit),
                 0.8f * std::sin(orbit)},
                0.15f, stripe_texture);
  return out;
}

}  // namespace

VideoId video_id_from_name(const std::string& name) {
  if (name == "dress") return VideoId::kDress;
  if (name == "loot") return VideoId::kLoot;
  if (name == "haggle") return VideoId::kHaggle;
  if (name == "lab") return VideoId::kLab;
  throw std::invalid_argument("unknown video name: " + name);
}

std::string video_name(VideoId id) {
  switch (id) {
    case VideoId::kDress: return "dress";
    case VideoId::kLoot: return "loot";
    case VideoId::kHaggle: return "haggle";
    case VideoId::kLab: return "lab";
  }
  return "unknown";
}

namespace {
std::size_t scaled(std::size_t v, double scale, std::size_t lo) {
  return std::max<std::size_t>(lo, std::size_t(double(v) * scale));
}
}  // namespace

VideoSpec VideoSpec::dress(double scale) {
  return VideoSpec{VideoId::kDress, scaled(300, scale, 10),
                   scaled(100'000, scale, 500), 30.0, /*loops=*/10, 1001};
}
VideoSpec VideoSpec::loot(double scale) {
  return VideoSpec{VideoId::kLoot, scaled(300, scale, 10),
                   scaled(100'000, scale, 500), 30.0, /*loops=*/10, 1002};
}
VideoSpec VideoSpec::haggle(double scale) {
  return VideoSpec{VideoId::kHaggle, scaled(7800, scale, 10),
                   scaled(100'000, scale, 500), 30.0, /*loops=*/1, 1003};
}
VideoSpec VideoSpec::lab(double scale) {
  return VideoSpec{VideoId::kLab, scaled(3622, scale, 10),
                   scaled(100'000, scale, 500), 30.0, /*loops=*/1, 1004};
}

VideoSpec VideoSpec::by_id(VideoId id, double scale) {
  switch (id) {
    case VideoId::kDress: return dress(scale);
    case VideoId::kLoot: return loot(scale);
    case VideoId::kHaggle: return haggle(scale);
    case VideoId::kLab: return lab(scale);
  }
  return dress(scale);
}

std::vector<VideoSpec> VideoSpec::all(double scale) {
  return {dress(scale), loot(scale), haggle(scale), lab(scale)};
}

PointCloud SyntheticVideo::frame(std::size_t t) const {
  return frame_at_density(t, spec_.points_per_frame);
}

PointCloud SyntheticVideo::frame_at_density(std::size_t t,
                                            std::size_t points) const {
  const std::size_t base_frame = t % spec_.frame_count;
  const float phase =
      float(base_frame) / float(std::max<std::size_t>(1, spec_.frame_count));
  CounterRng rng(spec_.seed, /*stream=*/base_frame);
  switch (spec_.id) {
    case VideoId::kDress: return build_dress(points, phase, rng);
    case VideoId::kLoot: return build_loot(points, phase, rng);
    case VideoId::kHaggle: return build_haggle(points, phase, rng);
    case VideoId::kLab: return build_lab(points, phase, rng);
  }
  return PointCloud{};
}

}  // namespace volut
