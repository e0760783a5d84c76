#include "apps/ray.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gpu/simt.h"
#include "runtime/parallel.h"

namespace ihw::apps {
namespace {

using gpu::rcp;
using gpu::rsqrt;
using std::sqrt;  // plain-float instantiation; SimFloat resolves via ADL

template <typename Real>
struct Vec3 {
  Real x{}, y{}, z{};

  friend Vec3 operator+(Vec3 a, Vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
  friend Vec3 operator-(Vec3 a, Vec3 b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
  friend Vec3 operator*(Vec3 a, Real s) { return {a.x * s, a.y * s, a.z * s}; }
  friend Vec3 operator*(Real s, Vec3 a) { return a * s; }
  friend Vec3 operator*(Vec3 a, Vec3 b) { return {a.x * b.x, a.y * b.y, a.z * b.z}; }
};

template <typename Real>
Real dot(Vec3<Real> a, Vec3<Real> b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

template <typename Real>
Vec3<Real> normalize(Vec3<Real> v) {
  // GPU-style normalization: rsqrt of the squared length (SFU work).
  const Real inv = rsqrt(dot(v, v));
  return v * inv;
}

template <typename Real>
struct Sphere {
  Vec3<Real> center;
  Real radius;
  Vec3<Real> color;
  Real reflect;      // 0..1 reflective mix
  Real radius2;      // radius^2, precomputed host-side
  Real inv_radius;   // 1/radius, precomputed host-side
};

template <typename Real>
struct Scene {
  std::vector<Sphere<Real>> spheres;
  Vec3<Real> light;      // point light position
  Vec3<Real> sky;        // background color
};

template <typename Real>
Scene<Real> make_scene() {
  Scene<Real> s;
  auto v = [](double x, double y, double z) {
    return Vec3<Real>{Real(static_cast<float>(x)), Real(static_cast<float>(y)),
                      Real(static_cast<float>(z))};
  };
  auto sphere = [&v](double cx, double cy, double cz, double r,
                     Vec3<Real> color, double refl) {
    return Sphere<Real>{{Real(static_cast<float>(cx)), Real(static_cast<float>(cy)),
                         Real(static_cast<float>(cz))},
                        Real(static_cast<float>(r)),
                        color,
                        Real(static_cast<float>(refl)),
                        Real(static_cast<float>(r * r)),
                        Real(static_cast<float>(1.0 / r))};
  };
  s.spheres = {
      sphere(0.0, 0.6, -5.0, 1.4, v(0.95, 0.25, 0.2), 0.45),
      sphere(-2.3, 0.1, -6.5, 1.0, v(0.2, 0.55, 0.95), 0.55),
      sphere(2.2, -0.1, -4.2, 0.8, v(0.25, 0.9, 0.35), 0.35),
      sphere(0.9, -0.55, -3.0, 0.45, v(0.95, 0.85, 0.25), 0.25),
      sphere(-1.1, -0.4, -3.6, 0.55, v(0.8, 0.4, 0.85), 0.4),
  };
  s.light = v(-4.0, 6.0, -1.0);
  s.sky = v(0.35, 0.55, 0.85);
  return s;
}

constexpr float kPlaneY = -1.0f;

// Intersection result: t < 0 means miss.
template <typename Real>
Real intersect_sphere(const Sphere<Real>& sp, Vec3<Real> o, Vec3<Real> d) {
  // Scene data streams from memory: center + radius^2 per test, plus the
  // loop/branch overhead of the traversal.
  gpu::count_mem(4, 0);
  gpu::count_int_ops(3);
  const Vec3<Real> oc = o - sp.center;
  const Real b = dot(oc, d);
  const Real disc = b * b - (dot(oc, oc) - sp.radius2);
  if (disc < Real(0.0f)) return Real(-1.0f);
  const Real t = -b - sqrt(disc);
  return t;
}

template <typename Real>
bool in_shadow(const Scene<Real>& sc, Vec3<Real> p, Vec3<Real> lp) {
  const Vec3<Real> to_l = lp - p;
  const Real dist2 = dot(to_l, to_l);
  const Vec3<Real> dir = to_l * rsqrt(dist2);
  for (const auto& sp : sc.spheres) {
    const Real t = intersect_sphere(sp, p, dir);
    if (t > Real(1e-3f) && t * t < dist2) return true;
  }
  return false;
}

template <typename Real>
Vec3<Real> trace(const Scene<Real>& sc, Vec3<Real> o, Vec3<Real> d, int depth,
                 const RayParams& rp) {
  // Nearest sphere hit.
  Real best_t = Real(1e30f);
  const Sphere<Real>* hit = nullptr;
  for (const auto& sp : sc.spheres) {
    const Real t = intersect_sphere(sp, o, d);
    if (t > Real(1e-3f) && t < best_t) {
      best_t = t;
      hit = &sp;
    }
  }

  // Ground plane y = kPlaneY with a checker texture.
  bool plane_hit = false;
  if (d.y < Real(-1e-4f)) {
    const Real tp = (Real(kPlaneY) - o.y) * rcp(d.y);
    if (tp > Real(1e-3f) && tp < best_t) {
      best_t = tp;
      hit = nullptr;
      plane_hit = true;
    }
  }

  if (!hit && !plane_hit) return sc.sky;

  const Vec3<Real> p = o + d * best_t;
  Vec3<Real> n, base;
  Real reflect;
  if (plane_hit) {
    n = {Real(0.0f), Real(1.0f), Real(0.0f)};
    const int cx = static_cast<int>(std::floor(static_cast<float>(p.x) * 0.35f));
    const int cz = static_cast<int>(std::floor(static_cast<float>(p.z) * 0.35f));
    // Parity of cx + cz, summed in unsigned: a huge plane coordinate
    // saturates the int conversion and the signed sum would overflow.
    const bool dark =
        ((static_cast<unsigned>(cx) + static_cast<unsigned>(cz)) & 1u) != 0;
    base = dark ? Vec3<Real>{Real(0.25f), Real(0.25f), Real(0.28f)}
                : Vec3<Real>{Real(0.85f), Real(0.85f), Real(0.8f)};
    reflect = Real(0.18f);
  } else {
    n = (p - hit->center) * hit->inv_radius;
    base = hit->color;
    reflect = hit->reflect;
  }

  // Diffuse lighting with shadows.
  const Vec3<Real> to_l = normalize(sc.light - p);
  Real diff = dot(n, to_l);
  if (diff < Real(0.0f)) diff = Real(0.0f);
  if (rp.shadows && diff > Real(0.0f) && in_shadow(sc, p, sc.light))
    diff = Real(0.0f);
  const Real ambient(0.15f);
  Vec3<Real> color = base * (ambient + diff * Real(0.85f));

  // Specular reflection bounce.
  if (depth + 1 < rp.max_depth && reflect > Real(0.0f)) {
    const Vec3<Real> r = d - n * (Real(2.0f) * dot(d, n));
    const Vec3<Real> rc = trace(sc, p, normalize(r), depth + 1, rp);
    color = color * (Real(1.0f) - reflect) + rc * reflect;
  }
  return color;
}

}  // namespace

template <typename Real>
common::RgbImage render_ray(const RayParams& p) {
  const Scene<Real> scene = make_scene<Real>();
  common::RgbImage img(p.width, p.height);

  const gpu::Dim3 block(16, 16);
  const gpu::Dim3 grid(static_cast<unsigned>((p.width + 15) / 16),
                       static_cast<unsigned>((p.height + 15) / 16));
  const float aspect =
      static_cast<float>(p.width) / static_cast<float>(p.height);

  runtime::parallel_launch(grid, block, [&](const gpu::ThreadCtx& tc) {
    const std::size_t x = tc.global_x();
    const std::size_t y = tc.global_y();
    if (x >= p.width || y >= p.height) return;
    const float sx = (2.0f * (static_cast<float>(x) + 0.5f) /
                          static_cast<float>(p.width) - 1.0f) * aspect;
    const float sy = 1.0f - 2.0f * (static_cast<float>(y) + 0.5f) /
                                static_cast<float>(p.height);
    const Vec3<Real> origin{Real(0.0f), Real(0.2f), Real(0.0f)};
    const Vec3<Real> dir =
        normalize(Vec3<Real>{Real(sx), Real(sy), Real(-1.6f)});
    const Vec3<Real> c = trace(scene, origin, dir, 0, p);

    auto to8 = [](Real v) {
      const float f = static_cast<float>(v);
      return static_cast<std::uint8_t>(std::clamp(f, 0.0f, 1.0f) * 255.0f);
    };
    auto* px = img.at(x, y);
    gpu::count_mem(0, 3);
    gpu::count_int_ops(8);  // pixel addressing + packing
    px[0] = to8(c.x);
    px[1] = to8(c.y);
    px[2] = to8(c.z);
  });
  return img;
}

template common::RgbImage render_ray<float>(const RayParams&);
template common::RgbImage render_ray<gpu::SimFloat>(const RayParams&);

}  // namespace ihw::apps
