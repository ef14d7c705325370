#include "src/sweep/result.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/link/flow.hpp"
#include "src/sweep/format.hpp"
#include "src/sweep/pareto.hpp"

namespace xpl::sweep {

void ResultTable::set(SweepResult result) {
  const std::size_t i = result.point.index;
  require(i < rows_.size(), "ResultTable: point index out of range");
  rows_[i] = std::move(result);
}

std::size_t ResultTable::num_ok() const {
  std::size_t n = 0;
  for (const auto& r : rows_) n += r.ok ? 1 : 0;
  return n;
}

std::vector<std::size_t> ResultTable::pareto_front() const {
  std::vector<std::size_t> ok_rows;
  std::vector<std::vector<double>> objectives;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (!rows_[i].ok) continue;
    ok_rows.push_back(i);
    objectives.push_back({rows_[i].avg_latency_cycles,
                          -rows_[i].throughput_tpc, rows_[i].area_mm2,
                          rows_[i].power_mw});
  }
  std::vector<std::size_t> front;
  for (const std::size_t k : pareto_front_min(objectives)) {
    front.push_back(ok_rows[k]);
  }
  return front;
}

bool ResultTable::has_flow_axis() const {
  if (flow_axis_) return true;
  // Fallback for hand-built tables (direct run_point drivers): any
  // non-default row forces the extended columns.
  for (const auto& r : rows_) {
    if (r.point.net.flow != link::FlowControl::kAckNack) return true;
  }
  return false;
}

bool ResultTable::has_vcs_axis() const {
  if (vcs_axis_) return true;
  for (const auto& r : rows_) {
    if (r.point.net.vcs != 1) return true;
  }
  return false;
}

std::string ResultTable::to_csv() const {
  // The flow/vcs columns appear only when the campaign swept those axes,
  // so legacy exports stay byte-identical — the same discipline as
  // label()'s conditional suffixes.
  const bool flow = has_flow_axis();
  const bool vcs = has_vcs_axis();
  std::ostringstream os;
  os << "index,label,topology,width,height,switches,flit_width,fifo_depth,"
     << (vcs ? "vcs," : "") << (flow ? "flow," : "")
     << "pattern,injection_rate,burstiness,warmup,cycles,ok,transactions,"
        "avg_latency_cycles,p95_latency_cycles,throughput_tpc,link_flits,"
        "retransmissions,"
     << (flow ? "credit_stalls," : "")
     << "avg_link_utilization,area_mm2,power_mw,fmax_mhz,"
        "error\n";
  for (const auto& r : rows_) {
    const auto& p = r.point;
    os << p.index << "," << p.label() << "," << p.topology << "," << p.width
       << "," << p.height << "," << p.num_switches() << ","
       << p.net.flit_width << "," << p.net.output_fifo_depth << ",";
    if (vcs) os << p.net.vcs << ",";
    if (flow) os << link::flow_control_name(p.net.flow) << ",";
    os << p.pattern_label() << ","
       << fmt_double(p.traffic.injection_rate) << ","
       << fmt_double(p.traffic.burstiness) << "," << p.warmup << ","
       << p.sim_cycles << ","
       << (r.ok ? 1 : 0) << "," << r.transactions << ","
       << fmt_double(r.avg_latency_cycles) << "," << fmt_double(r.p95_latency_cycles)
       << "," << fmt_double(r.throughput_tpc) << "," << r.link_flits << ","
       << r.retransmissions << ",";
    if (flow) os << r.credit_stalls << ",";
    os << fmt_double(r.avg_link_utilization) << ","
       << fmt_double(r.area_mm2) << "," << fmt_double(r.power_mw) << "," << fmt_double(r.fmax_mhz)
       << "," << csv_field(r.error) << "\n";
  }
  return os.str();
}

std::string ResultTable::to_json() const {
  const bool flow = has_flow_axis();
  const bool vcs = has_vcs_axis();
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& r = rows_[i];
    const auto& p = r.point;
    os << "  {\"index\": " << p.index << ", \"label\": \""
       << json_escape(p.label()) << "\", \"topology\": \"" << p.topology
       << "\", \"width\": " << p.width << ", \"height\": " << p.height
       << ", \"switches\": " << p.num_switches()
       << ", \"flit_width\": " << p.net.flit_width
       << ", \"fifo_depth\": " << p.net.output_fifo_depth;
    if (vcs) os << ", \"vcs\": " << p.net.vcs;
    if (flow) {
      os << ", \"flow\": \"" << link::flow_control_name(p.net.flow) << "\"";
    }
    os << ", \"pattern\": \"" << p.pattern_label()
       << "\", \"injection_rate\": " << fmt_double(p.traffic.injection_rate)
       << ", \"burstiness\": " << fmt_double(p.traffic.burstiness)
       << ", \"warmup\": " << p.warmup
       << ", \"cycles\": " << p.sim_cycles
       << ", \"ok\": " << (r.ok ? "true" : "false")
       << ", \"transactions\": " << r.transactions
       << ", \"avg_latency_cycles\": " << fmt_double(r.avg_latency_cycles)
       << ", \"p95_latency_cycles\": " << fmt_double(r.p95_latency_cycles)
       << ", \"throughput_tpc\": " << fmt_double(r.throughput_tpc)
       << ", \"link_flits\": " << r.link_flits
       << ", \"retransmissions\": " << r.retransmissions;
    if (flow) os << ", \"credit_stalls\": " << r.credit_stalls;
    os << ", \"avg_link_utilization\": " << fmt_double(r.avg_link_utilization)
       << ", \"area_mm2\": " << fmt_double(r.area_mm2) << ", \"power_mw\": "
       << fmt_double(r.power_mw) << ", \"fmax_mhz\": " << fmt_double(r.fmax_mhz)
       << ", \"error\": \"" << json_escape(r.error) << "\"}"
       << (i + 1 < rows_.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

void ResultTable::save_csv(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "save_csv: cannot open " + path);
  out << to_csv();
}

void ResultTable::save_json(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "save_json: cannot open " + path);
  out << to_json();
}

std::string ResultTable::summary(bool front_only) const {
  std::vector<std::size_t> selected;
  if (front_only) {
    selected = pareto_front();
  } else {
    for (std::size_t i = 0; i < rows_.size(); ++i) selected.push_back(i);
  }
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-28s %-10s %-10s %-10s %-10s %-10s\n", "point",
                "lat_cyc", "p95", "thru_t/cy", "area_mm2", "power_mW");
  os << line;
  for (const std::size_t i : selected) {
    const auto& r = rows_[i];
    if (!r.ok) {
      std::snprintf(line, sizeof(line), "%-28s FAILED: %s\n",
                    r.point.label().c_str(), r.error.c_str());
      os << line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "%-28s %-10.1f %-10.0f %-10.4f %-10.3f %-10.1f\n",
                  r.point.label().c_str(), r.avg_latency_cycles,
                  r.p95_latency_cycles, r.throughput_tpc, r.area_mm2,
                  r.power_mw);
    os << line;
  }
  return os.str();
}

}  // namespace xpl::sweep
