#include "src/tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <sstream>

#include "src/common/error.hpp"
#include "src/sweep/format.hpp"
#include "src/sweep/pareto.hpp"
#include "src/tune/saturation.hpp"

namespace xpl::tune {

namespace {

/// Deterministic strict ranking over (objective, config): ties on the
/// float objective — common when two configs differ only in an axis the
/// workload never exercises — break on a seeded hash of the config id,
/// never on evaluation order, so the tuner picks the same winner at any
/// --jobs and across resumed trajectories.
struct ConfigRank {
  std::uint64_t seed;

  bool better(double score_a, std::size_t config_a, double score_b,
              std::size_t config_b) const {
    if (score_a != score_b) return score_a < score_b;
    const std::uint64_t ha = sweep::derive_seed(seed, config_a);
    const std::uint64_t hb = sweep::derive_seed(seed, config_b);
    if (ha != hb) return ha < hb;
    return config_a < config_b;
  }
};

/// The tuner's strategy as a sweep Proposer: successive-halving rungs,
/// then hill climbing, then (optionally) the saturation bisection — one
/// shared evaluation budget across all three.
class TunerProposer : public sweep::Proposer {
 public:
  TunerProposer(const TuneSpec& spec,
                const std::function<void(const TuneEval&)>& on_eval)
      : spec_(spec), on_eval_(on_eval), rank_{spec.seed} {
    const std::size_t n = spec_.num_configs();
    // Fidelity ladder: quarter and half windows first (when they are
    // actually shorter and leave a measurement window past warmup),
    // always ending at the full window. A single-config space skips the
    // cheap rungs — there is nothing to discard.
    if (n > 1) {
      for (const std::size_t div : {std::size_t{4}, std::size_t{2}}) {
        const std::size_t cycles =
            std::max(spec_.warmup + 1, spec_.sim_cycles / div);
        if (cycles < spec_.sim_cycles) ladder_.push_back(cycles);
      }
    }
    ladder_.push_back(spec_.sim_cycles);
    survivors_.resize(n);
    for (std::size_t c = 0; c < n; ++c) survivors_[c] = c;
  }

  std::vector<sweep::SweepPoint> propose(
      const std::vector<sweep::SweepResult>& so_far) override {
    consume(so_far);

    for (;;) {
      if (exhausted_ || phase_ == Phase::kDone) return {};
      switch (phase_) {
        case Phase::kRung: {
          if (!rung_dispatched_) {
            rung_scores_.clear();
            rung_dispatched_ = true;
            auto batch =
                make_batch(survivors_, ladder_[rung_], rung_stage());
            if (!batch.empty()) return batch;
            break;  // budget gone before the rung started
          }
          // This rung's results are in: rank what actually ran.
          std::sort(rung_scores_.begin(), rung_scores_.end(),
                    [&](const auto& a, const auto& b) {
                      return rank_.better(a.second, a.first, b.second,
                                          b.first);
                    });
          if (rung_ + 1 == ladder_.size()) {
            if (rung_scores_.empty()) {
              phase_ = Phase::kDone;  // budget died mid-final-rung
              break;
            }
            cur_ = rung_scores_.front().first;
            phase_ = Phase::kClimb;
            break;
          }
          // Keep the better half (at least one) for the next rung.
          const std::size_t keep =
              std::max<std::size_t>(1, (rung_scores_.size() + 1) / 2);
          survivors_.clear();
          for (std::size_t k = 0; k < keep; ++k) {
            survivors_.push_back(rung_scores_[k].first);
          }
          ++rung_;
          rung_dispatched_ = false;
          break;
        }

        case Phase::kClimb: {
          const auto moves = climb_moves();
          std::vector<std::size_t> to_eval;
          for (const std::size_t m : moves) {
            if (!full_score_.count(m)) to_eval.push_back(m);
          }
          if (!to_eval.empty()) {
            auto batch =
                make_batch(to_eval, spec_.sim_cycles, "climb");
            if (!batch.empty()) return batch;
            break;  // budget gone mid-climb
          }
          // All neighbours scored: move while something improves.
          std::size_t best_move = cur_;
          double best_score = full_score_.at(cur_);
          for (const std::size_t m : moves) {
            if (rank_.better(full_score_.at(m), m, best_score, best_move)) {
              best_move = m;
              best_score = full_score_.at(m);
            }
          }
          if (best_move != cur_) {
            cur_ = best_move;
            break;  // re-probe from the new position
          }
          best_ = cur_;
          phase_ = Phase::kSaturate;
          break;
        }

        case Phase::kSaturate: {
          if (!spec_.saturation.enabled || best_ == TuneEval::kNoConfig ||
              !std::isfinite(full_score_.at(best_))) {
            phase_ = Phase::kDone;
            break;
          }
          if (!sat_) {
            sat_.emplace(spec_.config_point(best_), spec_.saturation);
          }
          if (proposed_ >= spec_.budget) {
            exhausted_ = true;
            return {};
          }
          auto batch = sat_->propose(so_far);
          if (batch.empty()) {
            phase_ = Phase::kDone;
            break;
          }
          proposed_ += batch.size();
          for (const auto& p : batch) {
            outstanding_.push_back({"saturation", best_, p.sim_cycles});
          }
          return batch;
        }

        case Phase::kDone:
          return {};
      }
    }
  }

  std::vector<TuneEval>& trajectory() { return trajectory_; }
  bool exhausted() const { return exhausted_; }
  std::size_t best_config() const { return best_; }
  const SaturationSearch* saturation() const {
    return sat_ ? &*sat_ : nullptr;
  }

 private:
  enum class Phase { kRung, kClimb, kSaturate, kDone };

  struct Pending {
    std::string stage;
    std::size_t config;
    std::size_t cycles;
  };

  std::string rung_stage() const {
    return "rung" + std::to_string(rung_);
  }

  /// Folds newly arrived results (evaluation order) into the trajectory
  /// and the per-phase score books.
  void consume(const std::vector<sweep::SweepResult>& so_far) {
    for (; consumed_ < so_far.size(); ++consumed_) {
      const sweep::SweepResult& r = so_far[consumed_];
      require(!outstanding_.empty(), "tuner: result without proposal");
      const Pending p = outstanding_.front();
      outstanding_.pop_front();

      TuneEval ev;
      ev.eval = trajectory_.size();
      ev.stage = p.stage;
      ev.config = p.config;
      ev.cycles = p.cycles;
      ev.objective = spec_.objective.score(r);
      ev.result = r;
      if (p.stage != "saturation" && p.cycles == spec_.sim_cycles) {
        full_score_.emplace(p.config, ev.objective);
      }
      if (p.stage == rung_stage()) {
        rung_scores_.emplace_back(p.config, ev.objective);
      }
      if (on_eval_) on_eval_(ev);
      trajectory_.push_back(std::move(ev));
    }
  }

  /// Materializes one batch (all at `cycles`), charging the budget;
  /// truncates and flags exhaustion when the budget runs short.
  std::vector<sweep::SweepPoint> make_batch(
      const std::vector<std::size_t>& configs, std::size_t cycles,
      const std::string& stage) {
    const std::size_t remaining =
        spec_.budget > proposed_ ? spec_.budget - proposed_ : 0;
    const std::size_t take = std::min(configs.size(), remaining);
    if (take < configs.size()) exhausted_ = true;
    std::vector<sweep::SweepPoint> batch;
    batch.reserve(take);
    for (std::size_t k = 0; k < take; ++k) {
      sweep::SweepPoint p = spec_.config_point(configs[k]);
      p.sim_cycles = cycles;
      batch.push_back(std::move(p));
      outstanding_.push_back({stage, configs[k], cycles});
    }
    proposed_ += take;
    return batch;
  }

  /// One-step neighbours of cur_: each search axis moved one candidate
  /// position, fixed probe order (axis by axis, down then up).
  std::vector<std::size_t> climb_moves() const {
    const TuneSpec::ConfigIdx idx = spec_.config_indices(cur_);
    std::vector<std::size_t> moves;
    auto push = [&](TuneSpec::ConfigIdx m) {
      moves.push_back(spec_.config_id(m));
    };
    auto probe_axis = [&](std::size_t TuneSpec::ConfigIdx::*axis,
                          std::size_t size) {
      TuneSpec::ConfigIdx m = idx;
      if (idx.*axis > 0) {
        m.*axis = idx.*axis - 1;
        push(m);
      }
      if (idx.*axis + 1 < size) {
        m.*axis = idx.*axis + 1;
        push(m);
      }
    };
    probe_axis(&TuneSpec::ConfigIdx::fifo, spec_.fifo_depths.size());
    probe_axis(&TuneSpec::ConfigIdx::vcs, spec_.vcss.size());
    probe_axis(&TuneSpec::ConfigIdx::flow, spec_.flows.size());
    probe_axis(&TuneSpec::ConfigIdx::routing, spec_.routings.size());
    return moves;
  }

  const TuneSpec& spec_;
  const std::function<void(const TuneEval&)>& on_eval_;
  ConfigRank rank_;

  std::vector<std::size_t> ladder_;  ///< cycles per rung, ending at full
  std::size_t rung_ = 0;
  bool rung_dispatched_ = false;
  std::vector<std::size_t> survivors_;
  std::vector<std::pair<std::size_t, double>> rung_scores_;

  std::size_t cur_ = TuneEval::kNoConfig;   ///< climb position
  std::size_t best_ = TuneEval::kNoConfig;  ///< climb outcome
  std::map<std::size_t, double> full_score_;  ///< config -> full-fidelity score

  std::optional<SaturationSearch> sat_;

  Phase phase_ = Phase::kRung;
  std::deque<Pending> outstanding_;
  std::size_t consumed_ = 0;
  std::size_t proposed_ = 0;
  bool exhausted_ = false;

  std::vector<TuneEval> trajectory_;
};

}  // namespace

const TuneEval& TuneReport::winner() const {
  require(best != npos, "TuneReport: no successful full-fidelity evaluation");
  return trajectory[best];
}

std::string TuneReport::trajectory_csv() const {
  using sweep::fmt_double;
  std::ostringstream os;
  os << "eval,stage,config,label,fifo_depth,vcs,flow,routing,cycles,"
        "injection_rate,ok,objective,transactions,avg_latency_cycles,"
        "p95_latency_cycles,throughput_tpc,avg_link_utilization,area_mm2,"
        "power_mw,fmax_mhz,error\n";
  for (const TuneEval& ev : trajectory) {
    const TuneSpec::ConfigIdx idx = spec.config_indices(ev.config);
    const sweep::SweepResult& r = ev.result;
    os << ev.eval << "," << ev.stage << "," << ev.config << ","
       << spec.config_label(ev.config) << "," << spec.fifo_depths[idx.fifo]
       << "," << spec.vcss[idx.vcs] << "," << spec.flows[idx.flow] << ","
       << spec.routings[idx.routing] << "," << ev.cycles << ","
       << fmt_double(r.point.traffic.injection_rate) << ","
       << (r.ok ? 1 : 0) << "," << fmt_double(ev.objective) << ","
       << r.transactions << "," << fmt_double(r.avg_latency_cycles) << ","
       << fmt_double(r.p95_latency_cycles) << ","
       << fmt_double(r.throughput_tpc) << ","
       << fmt_double(r.avg_link_utilization) << ","
       << fmt_double(r.area_mm2) << "," << fmt_double(r.power_mw) << ","
       << fmt_double(r.fmax_mhz) << "," << sweep::csv_field(r.error)
       << "\n";
  }
  return os.str();
}

std::string TuneReport::trajectory_json() const {
  using sweep::fmt_double;
  std::ostringstream os;
  os << "{\n";
  os << "  \"tune\": \"" << sweep::json_escape(spec.name) << "\",\n";
  os << "  \"budget\": " << spec.budget << ",\n";
  os << "  \"evaluations\": " << trajectory.size() << ",\n";
  os << "  \"budget_exhausted\": " << (budget_exhausted ? "true" : "false")
     << ",\n";
  if (best == npos) {
    os << "  \"best\": null,\n";
  } else {
    os << "  \"best\": {\"eval\": " << best << ", \"config\": "
       << trajectory[best].config << ", \"label\": \""
       << spec.config_label(trajectory[best].config) << "\", \"objective\": "
       << fmt_double(trajectory[best].objective) << "},\n";
  }
  os << "  \"pareto\": [";
  for (std::size_t k = 0; k < pareto.size(); ++k) {
    os << (k ? ", " : "") << pareto[k];
  }
  os << "],\n";
  if (spec.saturation.enabled) {
    os << "  \"saturation\": {\"rate\": " << fmt_double(saturation_rate)
       << ", \"evaluations\": " << saturation_evals << ", \"converged\": "
       << (saturation_converged ? "true" : "false") << "},\n";
  }
  os << "  \"trajectory\": [\n";
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    const TuneEval& ev = trajectory[i];
    const sweep::SweepResult& r = ev.result;
    os << "    {\"eval\": " << ev.eval << ", \"stage\": \"" << ev.stage
       << "\", \"config\": " << ev.config << ", \"label\": \""
       << spec.config_label(ev.config) << "\", \"cycles\": " << ev.cycles
       << ", \"injection_rate\": "
       << fmt_double(r.point.traffic.injection_rate)
       << ", \"ok\": " << (r.ok ? "true" : "false") << ", \"objective\": ";
    if (std::isfinite(ev.objective)) {
      os << fmt_double(ev.objective);
    } else {
      os << "null";
    }
    os << ", \"avg_latency_cycles\": " << fmt_double(r.avg_latency_cycles)
       << ", \"p95_latency_cycles\": " << fmt_double(r.p95_latency_cycles)
       << ", \"throughput_tpc\": " << fmt_double(r.throughput_tpc)
       << ", \"area_mm2\": " << fmt_double(r.area_mm2)
       << ", \"power_mw\": " << fmt_double(r.power_mw)
       << ", \"fmax_mhz\": " << fmt_double(r.fmax_mhz) << ", \"error\": \""
       << sweep::json_escape(r.error) << "\"}"
       << (i + 1 < trajectory.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string TuneReport::summary() const {
  std::ostringstream os;
  char line[256];
  os << "tune " << spec.name << ": " << trajectory.size()
     << " evaluation(s) of budget " << spec.budget
     << (budget_exhausted ? " (budget exhausted)" : "") << ", "
     << spec.num_configs() << " config(s) in the search space\n";
  if (best == npos) {
    os << "no configuration completed at full fidelity\n";
    return os.str();
  }
  const TuneEval& w = trajectory[best];
  std::snprintf(line, sizeof(line),
                "winner %s  objective %.6g  (eval %zu, stage %s)\n",
                spec.config_label(w.config).c_str(), w.objective, w.eval,
                w.stage.c_str());
  os << line;
  std::snprintf(line, sizeof(line),
                "  lat %.1f cyc  p95 %.0f  thru %.4f t/cyc  area %.3f mm2"
                "  power %.1f mW  fmax %.0f MHz\n",
                w.result.avg_latency_cycles, w.result.p95_latency_cycles,
                w.result.throughput_tpc, w.result.area_mm2,
                w.result.power_mw, w.result.fmax_mhz);
  os << line;
  os << "pareto front (" << pareto.size() << " config(s)):\n";
  for (const std::size_t i : pareto) {
    const TuneEval& ev = trajectory[i];
    std::snprintf(line, sizeof(line),
                  "  %-28s obj %-10.6g lat %-8.1f thru %-8.4f area %-8.3f"
                  " power %-8.1f\n",
                  spec.config_label(ev.config).c_str(), ev.objective,
                  ev.result.avg_latency_cycles, ev.result.throughput_tpc,
                  ev.result.area_mm2, ev.result.power_mw);
    os << line;
  }
  if (spec.saturation.enabled) {
    std::snprintf(line, sizeof(line),
                  "saturation rate %.4g flits/cyc/node (%zu probe(s)%s)\n",
                  saturation_rate, saturation_evals,
                  saturation_converged ? "" : ", not converged");
    os << line;
  }
  return os.str();
}

compiler::NocSpec to_noc_spec(const TuneSpec& spec, std::size_t config) {
  const sweep::SweepPoint p = spec.config_point(config);
  compiler::NocSpec noc;
  noc.name = spec.name + "_" + spec.config_label(config);
  noc.topo = p.build_topology();
  noc.net = p.net;
  return noc;
}

TuneReport Tuner::run(const TuneSpec& spec) const {
  spec.validate();
  TunerProposer proposer(spec, on_eval);
  runner_.run_adaptive(proposer);

  TuneReport report;
  report.spec = spec;
  report.trajectory = std::move(proposer.trajectory());
  report.budget_exhausted = proposer.exhausted();

  // First successful full-fidelity evaluation per config, in trajectory
  // order — the candidate set for the winner and the Pareto front.
  std::map<std::size_t, std::size_t> first_full;  // config -> trajectory idx
  for (std::size_t i = 0; i < report.trajectory.size(); ++i) {
    const TuneEval& ev = report.trajectory[i];
    if (ev.stage == "saturation") continue;
    if (ev.cycles != spec.sim_cycles || !ev.result.ok) continue;
    first_full.emplace(ev.config, i);
  }
  const ConfigRank rank{spec.seed};
  for (const auto& [config, idx] : first_full) {
    if (report.best == TuneReport::npos ||
        rank.better(report.trajectory[idx].objective, config,
                    report.trajectory[report.best].objective,
                    report.trajectory[report.best].config)) {
      report.best = idx;
    }
  }

  std::vector<std::size_t> idxs;
  idxs.reserve(first_full.size());
  for (const auto& [config, idx] : first_full) idxs.push_back(idx);
  std::sort(idxs.begin(), idxs.end());  // trajectory (= evaluation) order
  std::vector<std::vector<double>> objectives;
  objectives.reserve(idxs.size());
  for (const std::size_t i : idxs) {
    const sweep::SweepResult& r = report.trajectory[i].result;
    objectives.push_back({r.avg_latency_cycles, -r.throughput_tpc,
                          r.area_mm2, r.power_mw});
  }
  for (const std::size_t k : sweep::pareto_front_min(objectives)) {
    report.pareto.push_back(idxs[k]);
  }

  if (const SaturationSearch* sat = proposer.saturation()) {
    report.saturation_rate = sat->saturation_rate();
    report.saturation_evals = sat->evaluations();
    report.saturation_converged = sat->converged() && sat->error().empty();
  }
  return report;
}

}  // namespace xpl::tune
