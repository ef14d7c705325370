#include "src/sweep/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/text.hpp"

namespace xpl::sweep {

namespace {

using text::fail;
using text::parse_hexfloat;
using text::parse_u64;

/// Exact double round-trip: C99 hexfloat out, parse_hexfloat in.
std::string hex_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

/// Error strings are free-form exception text: escape the separators the
/// line format relies on. "\\" -> "\\\\", newline -> "\\n".
std::string escape_error(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_error(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out += s[i] == 'n' ? '\n' : s[i];
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace

Checkpoint make_checkpoint(const SweepSpec& spec, const ResultTable& table) {
  Checkpoint ckpt;
  ckpt.spec_text = write_sweep(spec);
  ckpt.num_points = table.size();
  for (const auto& row : table.rows()) {
    if (row.evaluated) ckpt.results.push_back(row);
  }
  return ckpt;
}

SweepSpec checkpoint_spec(Checkpoint& ckpt) {
  const SweepSpec spec = parse_sweep(ckpt.spec_text);
  require(write_sweep(spec) == ckpt.spec_text,
          "checkpoint: embedded spec is not canonical");
  require(spec.num_points() == ckpt.num_points,
          "checkpoint: stored campaign has " +
              std::to_string(ckpt.num_points) + " points but the spec " +
              "resolves to " + std::to_string(spec.num_points()));
  const auto points = spec.points();
  for (auto& row : ckpt.results) {
    require(row.point.index < points.size(),
            "checkpoint: result index out of range");
    row.point = points[row.point.index];
  }
  return spec;
}

std::string write_checkpoint(const Checkpoint& ckpt) {
  std::ostringstream os;
  os << "# xsweep campaign checkpoint\n";
  os << "checkpoint 1\n";
  os << "spec_begin\n";
  os << ckpt.spec_text;
  if (!ckpt.spec_text.empty() && ckpt.spec_text.back() != '\n') os << "\n";
  os << "spec_end\n";
  os << "points " << ckpt.num_points << "\n";
  for (const auto& r : ckpt.results) {
    os << "result " << r.point.index << " " << (r.ok ? 1 : 0) << " "
       << r.transactions << " " << r.link_flits << " " << r.retransmissions
       << " " << r.credit_stalls << " " << hex_double(r.avg_latency_cycles)
       << " " << hex_double(r.p95_latency_cycles) << " "
       << hex_double(r.throughput_tpc) << " "
       << hex_double(r.avg_link_utilization) << " " << hex_double(r.area_mm2)
       << " " << hex_double(r.power_mw) << " " << hex_double(r.fmax_mhz);
    if (!r.error.empty()) os << " " << escape_error(r.error);
    os << "\n";
  }
  return os.str();
}

Checkpoint parse_checkpoint(const std::string& text) {
  Checkpoint ckpt;
  text::LineReader in(text, "checkpoint");
  bool saw_version = false;
  bool saw_points = false;
  std::set<std::size_t> seen;

  while (in.next()) {
    const auto& tokens = in.tokens();
    const text::Where at = in.at();
    const std::string& key = tokens[0];

    if (key == "checkpoint") {
      if (tokens.size() != 2 || tokens[1] != "1") {
        fail(at, "unsupported checkpoint version '" +
                     (tokens.size() > 1 ? tokens[1] : "") + "'");
      }
      saw_version = true;
    } else if (key == "spec_begin") {
      if (!saw_version) fail(at, "spec_begin before version line");
      std::string spec;
      for (;;) {
        if (!in.next_raw()) fail(in.at(), "unexpected end of file");
        if (in.raw() == "spec_end") break;
        spec.append(in.raw()).push_back('\n');
      }
      ckpt.spec_text = std::move(spec);
    } else if (key == "points") {
      if (tokens.size() != 2) fail(at, "'points' expects 1 argument(s)");
      ckpt.num_points = parse_u64(tokens[1], at, 0, text::kMaxU64);
      saw_points = true;
    } else if (key == "result") {
      if (!saw_points) fail(at, "result before points line");
      // Split the raw line, not the comment-stripped tokens: the error
      // tail after the 13 fields is free text and may hold a '#'.
      std::string_view rest = in.raw();
      text::next_token(rest);  // "result"
      std::string_view tok[13];
      for (auto& t : tok) {
        t = text::next_token(rest);
        if (t.empty()) fail(at, "truncated result row");
      }
      SweepResult r;
      r.point.index = parse_u64(tok[0], at, 0, text::kMaxU64);
      if (r.point.index >= ckpt.num_points) {
        fail(at, "result index " + std::string(tok[0]) +
                     " out of range (points " +
                     std::to_string(ckpt.num_points) + ")");
      }
      if (tok[1] != "0" && tok[1] != "1") fail(at, "bad ok flag");
      r.ok = tok[1] == "1";
      r.evaluated = true;
      r.transactions = parse_u64(tok[2], at, 0, text::kMaxU64);
      r.link_flits = parse_u64(tok[3], at, 0, text::kMaxU64);
      r.retransmissions = parse_u64(tok[4], at, 0, text::kMaxU64);
      r.credit_stalls = parse_u64(tok[5], at, 0, text::kMaxU64);
      r.avg_latency_cycles = parse_hexfloat(tok[6], at);
      r.p95_latency_cycles = parse_hexfloat(tok[7], at);
      r.throughput_tpc = parse_hexfloat(tok[8], at);
      r.avg_link_utilization = parse_hexfloat(tok[9], at);
      r.area_mm2 = parse_hexfloat(tok[10], at);
      r.power_mw = parse_hexfloat(tok[11], at);
      r.fmax_mhz = parse_hexfloat(tok[12], at);
      if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
      r.error = unescape_error(std::string(rest));
      if (!seen.insert(r.point.index).second) {
        fail(at, "duplicate result index " + std::string(tok[0]));
      }
      ckpt.results.push_back(std::move(r));
    } else {
      fail(at, "unknown directive '" + key + "'");
    }
  }
  require(saw_version, "checkpoint: missing version line");
  require(!ckpt.spec_text.empty(), "checkpoint: missing embedded spec");
  require(saw_points, "checkpoint: missing points line");
  return ckpt;
}

Checkpoint load_checkpoint(const std::string& path) {
  return parse_checkpoint(text::read_text_file(path, "load_checkpoint"));
}

void save_checkpoint(const Checkpoint& ckpt, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(), "save_checkpoint: cannot open " + tmp);
    out << write_checkpoint(ckpt);
    out.flush();
    require(out.good(), "save_checkpoint: write failed for " + tmp);
  }
  require(std::rename(tmp.c_str(), path.c_str()) == 0,
          "save_checkpoint: cannot rename " + tmp + " to " + path);
}

}  // namespace xpl::sweep
