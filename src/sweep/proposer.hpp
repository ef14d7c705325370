// Adaptive campaigns: propose the next points from the results so far.
//
// A classic campaign enumerates its grid up front (spec.hpp); an adaptive
// campaign is driven point-by-point by a Proposer — the sweep-engine v2
// hook behind src/tune/'s search strategies (saturation bisection,
// successive halving, hill climbing). SweepRunner::run_adaptive calls
// propose() with every result produced so far (in evaluation order),
// runs the returned batch on the thread pool, appends the batch's
// results in batch order — never completion order — and repeats until the
// proposer returns an empty batch. Determinism therefore matches the grid
// path: the result sequence depends only on the proposer's decisions,
// not on --jobs or scheduling.
#pragma once

#include <vector>

#include "src/sweep/result.hpp"
#include "src/sweep/spec.hpp"

namespace xpl::sweep {

class Proposer {
 public:
  virtual ~Proposer() = default;

  /// Next batch of points to evaluate given all results so far, in
  /// evaluation order. Empty = campaign converged / budget exhausted.
  /// Points in one batch run concurrently, so they must be independent:
  /// a proposal may only depend on results of *previous* batches. The
  /// runner overwrites each point's `index` with its evaluation order.
  virtual std::vector<SweepPoint> propose(
      const std::vector<SweepResult>& so_far) = 0;
};

}  // namespace xpl::sweep
