#include "quality/tuner.h"

#include <cstddef>
#include <utility>

namespace ihw::quality {
namespace {

// One back-off action; returns false if the knob was already off.
using Knob = bool (*)(ihw::IhwConfig&);

bool off_rsqrt(ihw::IhwConfig& c) {
  if (!c.rsqrt_enabled) return false;
  c.rsqrt_enabled = false;
  return true;
}
bool off_sqrt(ihw::IhwConfig& c) {
  if (!c.sqrt_enabled) return false;
  c.sqrt_enabled = false;
  return true;
}
bool off_mul(ihw::IhwConfig& c) {
  if (c.mul_mode == ihw::MulMode::Precise) return false;
  // First soften (simple -> full path), then fully back off.
  if (c.mul_mode == ihw::MulMode::ImpreciseSimple ||
      c.mul_mode == ihw::MulMode::MitchellLog) {
    c.mul_mode = ihw::MulMode::MitchellFull;
    c.mul_trunc = 0;
    return true;
  }
  c.mul_mode = ihw::MulMode::Precise;
  return true;
}
bool off_log2(ihw::IhwConfig& c) {
  if (!c.log2_enabled) return false;
  c.log2_enabled = false;
  return true;
}
bool off_div(ihw::IhwConfig& c) {
  if (!c.div_enabled) return false;
  c.div_enabled = false;
  return true;
}
bool off_rcp(ihw::IhwConfig& c) {
  if (!c.rcp_enabled) return false;
  c.rcp_enabled = false;
  return true;
}
bool off_fma(ihw::IhwConfig& c) {
  if (!c.fma_enabled) return false;
  c.fma_enabled = false;
  return true;
}
bool off_add(ihw::IhwConfig& c) {
  if (!c.add_enabled) return false;
  // TH back-off first (less truncation), then disable.
  if (c.add_th < 16) {
    c.add_th = 16;
    return true;
  }
  c.add_enabled = false;
  return true;
}

constexpr Knob kBackoffOrder[] = {off_rsqrt, off_sqrt, off_mul, off_mul,
                                  off_log2,  off_div,  off_rcp, off_fma,
                                  off_add,   off_add};

// Appends c unless an equal configuration is already on the ladder. The
// knobs are monotone (they only disable or soften), but this is the
// invariant the tuner promises -- no configuration is ever evaluated twice
// -- so enforce it structurally instead of by knob-order reasoning.
void push_unique(std::vector<ihw::IhwConfig>& cands, const ihw::IhwConfig& c) {
  for (const auto& have : cands)
    if (have == c) return;
  cands.push_back(c);
}

}  // namespace

std::vector<ihw::IhwConfig> backoff_candidates(
    const ihw::IhwConfig& most_aggressive) {
  std::vector<ihw::IhwConfig> cands{most_aggressive};
  ihw::IhwConfig cfg = most_aggressive;
  for (const Knob knob : kBackoffOrder)
    if (knob(cfg)) push_unique(cands, cfg);
  // The loop's last resort: if backing everything off still
  // leaves an imprecise unit enabled, fall back to fully precise hardware.
  if (cfg.any_enabled()) push_unique(cands, ihw::IhwConfig::precise());
  return cands;
}

TuneResult tune(const QualityEval& eval, double quality_constraint,
                const ihw::IhwConfig& most_aggressive) {
  TuneResult res;
  for (const ihw::IhwConfig& c : backoff_candidates(most_aggressive)) {
    TuneStep step;
    step.config = c;
    step.quality = eval(c);
    step.met_constraint = step.quality >= quality_constraint;
    res.history.push_back(std::move(step));
    if (res.history.back().met_constraint) break;
  }
  const TuneStep& fin = res.history.back();
  res.config = fin.config;
  res.quality = fin.quality;
  res.satisfied = fin.met_constraint;
  return res;
}

}  // namespace ihw::quality
