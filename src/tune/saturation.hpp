// Adaptive saturation search: bisection on the injection-rate axis.
//
// A dense campaign locates a network's saturation throughput by
// simulating every rate on a grid; this proposer finds the same point
// with O(log) simulations. Protocol, starting from a calibration run at
// the (assumed unsaturated) low rate:
//   1. calibrate — measure the mean end-to-end latency at `lo`; that is
//      the zero-load reference.
//   2. expand — double the rate (clamped to `hi`) until a rate is
//      *saturated*: mean latency above `latency_blowup` x the reference,
//      the classic load-latency knee criterion (past the knee the
//      backlog, and with it the queueing delay of every completed
//      transaction, grows without bound). An unsaturated `hi` ends the
//      search (the network never saturates inside the bracket).
//   3. bisect — shrink the [unsaturated, saturated] bracket until its
//      width is <= rel_tol * hi. saturation_rate() is then the bracket's
//      low end: the highest rate proven unsaturated, within tolerance of
//      the true knee.
// Every proposal is a single point (the next probe depends on the last
// result), so the search is inherently sequential — the price of the
// ~5-10x fewer simulations it needs vs the dense grid (bench/
// fig_tune_convergence.cpp measures the ratio).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/sweep/proposer.hpp"
#include "src/tune/spec.hpp"

namespace xpl::tune {

class SaturationSearch : public sweep::Proposer {
 public:
  /// `base` supplies everything but the injection rate (and is itself
  /// never mutated); rates come from `cfg`'s bracket.
  SaturationSearch(sweep::SweepPoint base, SaturationConfig cfg);

  std::vector<sweep::SweepPoint> propose(
      const std::vector<sweep::SweepResult>& so_far) override;

  /// True once the bracket converged (or the search failed — see error()).
  bool converged() const { return done_; }
  /// Highest injection rate proven unsaturated (valid once converged).
  double saturation_rate() const { return lo_; }
  /// Simulations consumed.
  std::size_t evaluations() const { return evals_; }
  /// Non-empty when the search aborted (calibration measured no
  /// latency — e.g. pure posted-write traffic — or a probe failed to
  /// simulate).
  const std::string& error() const { return error_; }

  /// The shared saturation predicate: mean latency `avg_latency` counts
  /// as saturated vs the calibration latency `lat_lo`. Exposed so the
  /// dense reference scan (tests, bench) applies the exact same
  /// criterion.
  static bool saturated(double avg_latency, double lat_lo,
                        double latency_blowup);

 private:
  sweep::SweepPoint point_at(double rate) const;

  sweep::SweepPoint base_;
  SaturationConfig cfg_;
  enum class Phase { kCalibrate, kExpand, kBisect } phase_ =
      Phase::kCalibrate;
  double lat_lo_ = 0.0;    ///< calibration mean latency at cfg_.lo
  double lo_ = 0.0;        ///< highest known-unsaturated rate
  double hi_ = 0.0;        ///< lowest known-saturated rate (bisect phase)
  double probe_ = 0.0;     ///< rate of the outstanding proposal
  std::size_t evals_ = 0;
  bool done_ = false;
  std::string error_;
};

}  // namespace xpl::tune
