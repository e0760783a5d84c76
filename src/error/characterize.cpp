#include "error/characterize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "ihw/batch.h"
#include "ihw/ihw.h"
#include "qmc/sobol.h"
#include "runtime/parallel.h"

namespace ihw::error {
namespace {

// Scatter a [0,1) quasi-MC coordinate into a floating point operand: a
// significand uniform in [1,2) and a small exponent offset. The imprecise
// datapaths are exact in the exponent, so a modest spread exercises every
// alignment case (the adder cares about exponent *differences*).
template <typename T>
T scatter(double u, double v, int exp_spread) {
  const double mant = 1.0 + u;
  const int e = static_cast<int>(std::floor(v * (2 * exp_spread + 1))) - exp_spread;
  return static_cast<T>(std::ldexp(mant, e));
}

/// The exact-reference operation a unit kind is measured against. Distinct
/// unit kinds can share one reference: all four multiplier datapaths are
/// exact-Mul, which is what lets the shared-stream grid driver below compute
/// one reference span for a whole multiplier design space.
enum class ExactOp { Add, Sub, Mul, Div, Rcp, Rsqrt, Sqrt, Log2, Exp2, Fma };

ExactOp exact_op(UnitKind kind) {
  switch (kind) {
    case UnitKind::FpAdd: return ExactOp::Add;
    case UnitKind::FpSub: return ExactOp::Sub;
    case UnitKind::FpDiv: return ExactOp::Div;
    case UnitKind::Rcp: return ExactOp::Rcp;
    case UnitKind::Rsqrt: return ExactOp::Rsqrt;
    case UnitKind::Sqrt: return ExactOp::Sqrt;
    case UnitKind::Log2: return ExactOp::Log2;
    case UnitKind::Exp2: return ExactOp::Exp2;
    case UnitKind::Fma: return ExactOp::Fma;
    case UnitKind::FpMul:
    case UnitKind::AcfpLog:
    case UnitKind::AcfpFull:
    case UnitKind::BitTrunc: return ExactOp::Mul;
  }
  return ExactOp::Mul;
}

/// Exact-reference span: a plain vectorizable double loop, bitwise the same
/// arithmetic as the per-sample scalar oracle in tests/test_error.cpp.
template <typename T>
void exact_unit_batch(ExactOp op, std::size_t m, const T* a, const T* b,
                      const T* c, double* exact) {
  switch (op) {
    case ExactOp::Add:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) + static_cast<double>(b[i]);
      break;
    case ExactOp::Sub:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      break;
    case ExactOp::Mul:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) * static_cast<double>(b[i]);
      break;
    case ExactOp::Div:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) / static_cast<double>(b[i]);
      break;
    case ExactOp::Rcp:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = 1.0 / static_cast<double>(a[i]);
      break;
    case ExactOp::Rsqrt:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = 1.0 / std::sqrt(static_cast<double>(a[i]));
      break;
    case ExactOp::Sqrt:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = std::sqrt(static_cast<double>(a[i]));
      break;
    case ExactOp::Log2:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = std::log2(static_cast<double>(a[i]));
      break;
    case ExactOp::Exp2:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = std::exp2(static_cast<double>(a[i]));
      break;
    case ExactOp::Fma:
      for (std::size_t i = 0; i < m; ++i)
        exact[i] = static_cast<double>(a[i]) * static_cast<double>(b[i]) +
                   static_cast<double>(c[i]);
      break;
  }
}

/// Approximate-unit span through the batched kernels of ihw/batch.h
/// (bit-identical per element to the scalar unit calls of that oracle).
template <typename T>
void approx_unit_batch(UnitKind kind, int param, std::size_t m, const T* a,
                       const T* b, const T* c, T* approx) {
  switch (kind) {
    case UnitKind::FpAdd:
      batch::ifp_add_n(a, b, approx, m, param ? param : kDefaultAddTh);
      break;
    case UnitKind::FpSub:
      batch::ifp_sub_n(a, b, approx, m, param ? param : kDefaultAddTh);
      break;
    case UnitKind::FpMul:
      batch::ifp_mul_n(a, b, approx, m);
      break;
    case UnitKind::FpDiv:
      batch::ifp_div_n(a, b, approx, m);
      break;
    case UnitKind::Rcp:
      batch::ircp_n(a, approx, m);
      break;
    case UnitKind::Rsqrt:
      batch::irsqrt_n(a, approx, m);
      break;
    case UnitKind::Sqrt:
      batch::isqrt_n(a, approx, m);
      break;
    case UnitKind::Log2:
      batch::ilog2_n(a, approx, m);
      break;
    case UnitKind::Exp2:
      batch::iexp2_n(a, approx, m);
      break;
    case UnitKind::Fma:
      batch::ifp_fma_n(a, b, c, approx, m, kDefaultAddTh);
      break;
    case UnitKind::AcfpLog:
      batch::acfp_mul_n(a, b, approx, m, AcfpPath::Log, param);
      break;
    case UnitKind::AcfpFull:
      batch::acfp_mul_n(a, b, approx, m, AcfpPath::Full, param);
      break;
    case UnitKind::BitTrunc:
      batch::trunc_mul_n(a, b, approx, m, param);
      break;
  }
}

// Chunk granularity of the parallel sweep. Fixed (never derived from the
// thread count) so the per-sample stream folded into ErrorStats/ErrorPmf is
// identical for every --threads value, including the serial path; results
// do not depend on its value at all (see run_many). It bounds the buffered
// sum terms: 16 bytes per sample and request per chunk in flight.
constexpr std::uint64_t kCharChunk = 1 << 14;

std::string make_label(UnitKind kind, int param) {
  // Built piecewise: chained operator+ trips the GCC 12 -Wrestrict false
  // positive (see the matching note in common/args.cpp).
  std::string label = to_string(kind);
  if (param != 0) {
    label += '(';
    label += std::to_string(param);
    label += ')';
  }
  return label;
}

// Operand-generation recipe of a unit kind; requests with equal recipes can
// borrow one quasi-MC stream. The adder needs exponent spread to hit every
// d-vs-TH case; multipliers and SFUs are characterized over [1,2)x[1,2) as in
// Ch. 4.2 (their error is exponent-invariant). Unary kinds ignore operand b.
struct GenRecipe {
  int spread;
  int dims;
  bool exp2_segment;

  bool operator==(const GenRecipe&) const = default;
};

GenRecipe gen_recipe(UnitKind kind) {
  const int spread =
      (kind == UnitKind::FpAdd || kind == UnitKind::FpSub) ? 12 : 0;
  return {spread, kind == UnitKind::Fma ? 6 : 4, kind == UnitKind::Exp2};
}

/// One request's share of a chunk: the counts, maxima and PMF of its
/// samples (order-independent, so reduced in the producer) and the terms of
/// the two floating-point sums, which the consumer folds in sample order.
struct MemberChunk {
  ErrorStats counts;  // sums untouched (+0.0)
  ErrorPmf pmf;
  std::vector<double> abs_err, rel;
};

/// The characterization driver (DESIGN.md §11): one pass per generation
/// recipe, with the quasi-MC operand stream generated once per chunk and the
/// exact reference evaluated once per distinct ExactOp, then borrowed by
/// every request in the group. Chunks fan out over the parallel runtime
/// (each worker seeks its own Sobol stream to the chunk offset in O(log n))
/// and each producer also does all per-sample error arithmetic
/// (ErrorStats::sample, the PMF bucket) and reduces the order-independent
/// accumulator state. The ordered consumer, on this thread in ascending
/// chunk order, merges those counts and folds only the sum_abs/sum_rel
/// chains in ascending sample order -- the same operands in the same order
/// as a serial ErrorStats::observe loop, so every CharResult is
/// bit-identical at any thread count or chunk size and to a one-request
/// call for the same unit.
template <typename T>
std::vector<CharResult> run_many(const std::vector<CharRequest>& reqs,
                                 std::uint64_t samples) {
  std::vector<CharResult> out;
  out.reserve(reqs.size());
  for (const auto& r : reqs)
    out.push_back(CharResult{make_label(r.kind, r.param), {}, ErrorPmf{}});

  // Group requests by generation recipe, preserving first-appearance order.
  struct Group {
    GenRecipe recipe;
    std::vector<std::size_t> members;  // indexes into reqs/out
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const GenRecipe rec = gen_recipe(reqs[i].kind);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const Group& g) { return g.recipe == rec; });
    if (it == groups.end()) {
      groups.push_back({rec, {i}});
    } else {
      it->members.push_back(i);
    }
  }

  for (const auto& g : groups) {
    // Distinct exact-reference ops within the group, first-appearance order.
    std::vector<ExactOp> exact_ops;
    std::vector<std::size_t> op_of_member(g.members.size());
    for (std::size_t j = 0; j < g.members.size(); ++j) {
      const ExactOp op = exact_op(reqs[g.members[j]].kind);
      auto it = std::find(exact_ops.begin(), exact_ops.end(), op);
      if (it == exact_ops.end()) {
        op_of_member[j] = exact_ops.size();
        exact_ops.push_back(op);
      } else {
        op_of_member[j] = static_cast<std::size_t>(it - exact_ops.begin());
      }
    }

    const bool ternary = g.recipe.dims == 6;
    // Chunk buffers cycle through a free list, so after the first wave no
    // producer allocates: fresh 256 KiB of sum terms per request and chunk
    // cost more in page faults than the error arithmetic that fills them.
    std::mutex spare_mu;
    std::vector<std::vector<MemberChunk>> spare;
    runtime::ordered_chunks<std::vector<MemberChunk>>(
        samples, kCharChunk,
        [&](std::uint64_t begin, std::uint64_t end) {
          const std::size_t m = static_cast<std::size_t>(end - begin);
          qmc::Sobol sobol(g.recipe.dims);
          sobol.seek(begin);
          // SoA producer: scalar Sobol + operand scatter, done once for the
          // whole group, then one span-level evaluation per exact op and per
          // request. The scratch spans are thread-local so each worker
          // touches the same pages every chunk.
          static thread_local common::AlignedVector<T> a, b, c, approx;
          static thread_local std::vector<std::vector<double>> exact;
          a.resize(m);
          b.resize(m);
          c.resize(ternary ? m : 0);
          approx.resize(m);
          double p[6];
          for (std::size_t i = 0; i < m; ++i) {
            sobol.next(p);
            if (g.recipe.exp2_segment) {
              a[i] = static_cast<T>(p[0] * 8.0 - 4.0);  // fraction segment
            } else {
              a[i] = scatter<T>(p[0], p[1], g.recipe.spread);
              b[i] = scatter<T>(p[2], p[3], g.recipe.spread);
              if (ternary) c[i] = scatter<T>(p[4], p[5], g.recipe.spread);
            }
          }
          exact.resize(exact_ops.size());
          for (std::size_t k = 0; k < exact_ops.size(); ++k) {
            exact[k].resize(m);
            exact_unit_batch<T>(exact_ops[k], m, a.data(), b.data(), c.data(),
                                exact[k].data());
          }
          std::vector<MemberChunk> chunk;
          {
            const std::lock_guard<std::mutex> lock(spare_mu);
            if (!spare.empty()) {
              chunk = std::move(spare.back());
              spare.pop_back();
            }
          }
          chunk.resize(g.members.size());
          for (std::size_t j = 0; j < g.members.size(); ++j) {
            const CharRequest& r = reqs[g.members[j]];
            approx_unit_batch<T>(r.kind, r.param, m, a.data(), b.data(),
                                 c.data(), approx.data());
            const double* ex = exact[op_of_member[j]].data();
            MemberChunk& mc = chunk[j];
            mc.abs_err.resize(m);
            mc.rel.resize(m);
            // Local accumulators stay in registers through the loop.
            ErrorStats counts;
            ErrorPmf pmf;
            for (std::size_t i = 0; i < m; ++i) {
              const double e = ex[i];
              const ErrorStats::Sample s =
                  ErrorStats::sample(e, static_cast<double>(approx[i]));
              counts.count(s);
              mc.abs_err[i] = s.abs_err;
              mc.rel[i] = s.rel;
              // Every finite non-zero exact is a PMF sample; its relative
              // error is s.rel, or NaN (no bucket) when approx is NaN.
              if (e != 0.0 && std::isfinite(e))
                pmf.observe_rel_error(
                    s.has_rel ? s.rel
                              : std::numeric_limits<double>::quiet_NaN());
            }
            mc.counts = counts;
            mc.pmf = std::move(pmf);
          }
          return chunk;
        },
        [&](std::vector<MemberChunk>&& chunk) {
          for (std::size_t j = 0; j < g.members.size(); ++j) {
            CharResult& res = out[g.members[j]];
            const MemberChunk& mc = chunk[j];
            res.stats.merge_counts(mc.counts);
            res.pmf.merge(mc.pmf);
            res.stats.add_sums(mc.abs_err.data(), mc.rel.data(),
                               mc.abs_err.size());
          }
          const std::lock_guard<std::mutex> lock(spare_mu);
          spare.push_back(std::move(chunk));
        });
  }
  return out;
}

}  // namespace

std::string to_string(UnitKind k) {
  switch (k) {
    case UnitKind::FpAdd: return "ifpadd";
    case UnitKind::FpSub: return "ifpsub";
    case UnitKind::FpMul: return "ifpmul";
    case UnitKind::FpDiv: return "ifpdiv";
    case UnitKind::Rcp: return "ircp";
    case UnitKind::Rsqrt: return "irsqrt";
    case UnitKind::Sqrt: return "isqrt";
    case UnitKind::Log2: return "ilog2";
    case UnitKind::Exp2: return "iexp2";
    case UnitKind::Fma: return "ifma";
    case UnitKind::AcfpLog: return "log_path";
    case UnitKind::AcfpFull: return "full_path";
    case UnitKind::BitTrunc: return "bit_trunc";
  }
  return "?";
}

CharResult characterize32(UnitKind kind, int param, std::uint64_t samples) {
  return run_many<float>({{kind, param}}, samples)[0];
}

std::vector<CharResult> characterize32_many(const std::vector<CharRequest>& reqs,
                                            std::uint64_t samples) {
  return run_many<float>(reqs, samples);
}

std::vector<CharResult> characterize64_many(const std::vector<CharRequest>& reqs,
                                            std::uint64_t samples) {
  return run_many<double>(reqs, samples);
}

}  // namespace ihw::error
