#include "src/tune/saturation.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace xpl::tune {

SaturationSearch::SaturationSearch(sweep::SweepPoint base,
                                   SaturationConfig cfg)
    : base_(std::move(base)), cfg_(cfg) {
  require(cfg_.lo > 0 && cfg_.lo < cfg_.hi && cfg_.hi <= 1.0,
          "SaturationSearch: bracket must satisfy 0 < lo < hi <= 1");
  require(cfg_.rel_tol > 0 && cfg_.rel_tol < 1,
          "SaturationSearch: rel_tol must be in (0, 1)");
  require(cfg_.latency_blowup > 1,
          "SaturationSearch: latency_blowup must be > 1");
}

bool SaturationSearch::saturated(double avg_latency, double lat_lo,
                                 double latency_blowup) {
  return avg_latency > latency_blowup * lat_lo;
}

sweep::SweepPoint SaturationSearch::point_at(double rate) const {
  sweep::SweepPoint p = base_;
  p.traffic.injection_rate = rate;
  return p;
}

std::vector<sweep::SweepPoint> SaturationSearch::propose(
    const std::vector<sweep::SweepResult>& so_far) {
  if (done_) return {};

  // Consume the answer to the outstanding probe, if any.
  if (!so_far.empty() && evals_ > 0) {
    const sweep::SweepResult& last = so_far.back();
    if (!last.ok) {
      error_ = "probe at rate " + std::to_string(probe_) +
               " failed: " + last.error;
      done_ = true;
      return {};
    }
    const double lat = last.avg_latency_cycles;
    switch (phase_) {
      case Phase::kCalibrate:
        if (lat <= 0.0) {
          error_ = "calibration at rate " + std::to_string(cfg_.lo) +
                   " measured no transaction latency";
          done_ = true;
          return {};
        }
        lat_lo_ = lat;
        lo_ = cfg_.lo;
        phase_ = Phase::kExpand;
        break;
      case Phase::kExpand:
        if (saturated(lat, lat_lo_, cfg_.latency_blowup)) {
          hi_ = probe_;  // bracket closed: [lo_, hi_]
          phase_ = Phase::kBisect;
        } else {
          lo_ = probe_;
          if (probe_ >= cfg_.hi) {
            done_ = true;  // never saturates inside the bracket
            return {};
          }
        }
        break;
      case Phase::kBisect:
        if (saturated(lat, lat_lo_, cfg_.latency_blowup)) {
          hi_ = probe_;
        } else {
          lo_ = probe_;
        }
        break;
    }
  }

  // Emit the next probe.
  switch (phase_) {
    case Phase::kCalibrate:
      probe_ = cfg_.lo;
      break;
    case Phase::kExpand:
      probe_ = std::min(lo_ * 2.0, cfg_.hi);
      break;
    case Phase::kBisect:
      if (hi_ - lo_ <= cfg_.rel_tol * cfg_.hi) {
        done_ = true;
        return {};
      }
      probe_ = 0.5 * (lo_ + hi_);
      break;
  }
  ++evals_;
  return {point_at(probe_)};
}

}  // namespace xpl::tune
