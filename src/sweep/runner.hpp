// Parallel campaign execution: a thread pool over fully independent
// simulation jobs, handed out from one shared index cursor.
//
// Each campaign point builds its own Network on its own sim::Kernel, so
// jobs share no mutable state and the pool needs no locking around the
// simulations themselves. Determinism contract: every job's RNG seeds are
// derived from the spec seed and the point's grid index (spec.hpp), and
// results land in a pre-sized ResultTable slot addressed by point index —
// so a campaign's output is bit-identical for any --jobs value, which the
// tests assert byte-for-byte on the CSV/JSON exports.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "src/sweep/proposer.hpp"
#include "src/sweep/result.hpp"
#include "src/sweep/spec.hpp"

namespace xpl::sweep {

/// v2 plumbing for resumable campaigns (see checkpoint.hpp): previously
/// evaluated rows to reuse, a halt threshold for controlled interruption,
/// and a progress hook for incremental checkpointing.
struct RunOptions {
  /// Rows already evaluated (a checkpoint's results): copied into the
  /// table verbatim and not re-run. Each row's point.index addresses its
  /// slot; rows must carry evaluated == true.
  const std::vector<SweepResult>* resume = nullptr;
  /// 0 = run to completion. Otherwise stop *scheduling* new points once
  /// this many have completed in this run; in-flight points still finish,
  /// so with --jobs > 1 a few extra rows may complete. The returned table
  /// then holds unevaluated rows — checkpoint it and exit.
  std::size_t halt_after = 0;
  /// Invoked (serialized, after on_result) with the partially filled
  /// table after every newly produced result — the checkpoint writer.
  /// Never called for rows restored via `resume`.
  std::function<void(const ResultTable&)> on_progress;
};

class SweepRunner {
 public:
  /// jobs = 0 picks std::thread::hardware_concurrency().
  explicit SweepRunner(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }

  /// Optional progress hook, invoked (serialized) as each job finishes.
  /// Completion order depends on scheduling; results do not.
  std::function<void(const SweepResult&)> on_result;

  /// Runs every point of `spec` and returns the filled table.
  ResultTable run(const SweepSpec& spec) const;

  /// Resumable variant: skips rows supplied by opts.resume, honours
  /// opts.halt_after, reports progress for checkpointing. The filled
  /// table is byte-identical to an uninterrupted run(spec) no matter
  /// where (or how often) the campaign was interrupted, at any --jobs.
  ResultTable run(const SweepSpec& spec, const RunOptions& opts) const;

  /// Adaptive campaign: the proposer drives point selection from results
  /// so far (proposer.hpp) and keeps whatever it needs of them. Results
  /// reach it in evaluation order — batch order within a batch — so
  /// adaptive campaigns are as deterministic as grid ones for any --jobs.
  void run_adaptive(Proposer& proposer) const;

  /// Builds, simulates and estimates one point — the unit of work the
  /// pool executes; exposed so tests and custom drivers can run single
  /// points. Never throws: failures come back as ok == false.
  static SweepResult run_point(const SweepPoint& point);

  /// Generic parallel loop: calls fn(i) exactly once for each i in
  /// [0, n), workers claiming indices from one shared cursor. fn must
  /// tolerate concurrent calls on distinct i.
  /// Used by the campaign runner and by appgraph::explore's candidate
  /// loop. Exceptions from fn are captured and the first one rethrown
  /// after all workers drain.
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& fn) const;

 private:
  std::size_t jobs_;
};

}  // namespace xpl::sweep
