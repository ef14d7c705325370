#include "src/workload/trace.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/text.hpp"

namespace xpl::workload {

namespace {

using text::fail;
using text::parse_u64;

std::uint32_t parse_u32(const std::string& token, const text::Where& at,
                        std::uint64_t lo = 0) {
  return static_cast<std::uint32_t>(parse_u64(token, at, lo, text::kMaxU32));
}

/// One entry line,
///   <cycle> <initiator> <target> <read|write|writenp> <offset> <burst>
///   [thread]
/// where the trailing OCP thread id defaults to 0. Anything after it is
/// an error rather than silently ignored: a typo there would change
/// per-thread response matching and therefore replay timing.
traffic::TraceEntry parse_trace_line(const std::vector<std::string>& tokens,
                                     const text::Where& at) {
  if (tokens.size() < 6) {
    fail(at, "expected <cycle> <ini> <tgt> <cmd> <offset> <burst>");
  }
  if (tokens.size() > 7) {
    fail(at, "unexpected trailing token '" + tokens[7] + "'");
  }
  traffic::TraceEntry entry;
  entry.cycle = parse_u64(tokens[0], at, 0, text::kMaxU64);
  entry.initiator = parse_u32(tokens[1], at);
  entry.target = parse_u32(tokens[2], at);
  constexpr ocp::Cmd kCmds[] = {ocp::Cmd::kRead, ocp::Cmd::kWrite,
                                ocp::Cmd::kWriteNp};
  const auto* cmd =
      std::find_if(std::begin(kCmds), std::end(kCmds), [&](ocp::Cmd c) {
        return tokens[3] == traffic::trace_cmd_name(c);
      });
  if (cmd == std::end(kCmds)) {
    fail(at, "unknown command '" + tokens[3] + "'");
  }
  entry.cmd = *cmd;
  entry.addr_offset = parse_u64(tokens[4], at, 0, text::kMaxU64);
  entry.burst = parse_u32(tokens[5], at, 1);
  if (tokens.size() == 7) entry.thread = parse_u32(tokens[6], at);
  return entry;
}

/// Replay write payload for beat `beat` of entry `index`: a splitmix64
/// finalizer over the pair, so payloads are reproducible from the trace
/// alone — no RNG state, no seed.
std::uint64_t payload_word(std::uint64_t index, std::uint32_t beat) {
  std::uint64_t z = (index << 20) + beat + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Trace parse_trace(const std::string& text) {
  Trace trace;
  text::LineReader in(text, "trace");
  while (in.next()) {
    const auto& tokens = in.tokens();
    const text::Where at = in.at();
    // Directive lines start with a keyword; entry lines with a number.
    const std::string& key = tokens[0];
    if (key == "trace" || key == "initiators" || key == "targets") {
      if (!trace.entries.empty()) {
        fail(at, "'" + key + "' directive after the first entry");
      }
      if (tokens.size() != 2) {
        fail(at, "'" + key + "' expects exactly one argument");
      }
      if (key == "trace") {
        trace.name = tokens[1];
      } else if (key == "initiators") {
        trace.initiators = parse_u32(tokens[1], at);
      } else {
        trace.targets = parse_u32(tokens[1], at);
      }
      continue;
    }
    // Entry lines start with a cycle number; any other keyword is a
    // typo'd directive, which must not be skipped silently (a dropped
    // `initiators` line would disable the replay shape check).
    if (key.find_first_not_of("0123456789") != std::string::npos) {
      fail(at, "unknown directive '" + key + "'");
    }
    const traffic::TraceEntry entry = parse_trace_line(tokens, at);
    if (!trace.entries.empty() && entry.cycle < trace.entries.back().cycle) {
      fail(at, "cycles must be non-decreasing");
    }
    if (trace.initiators != 0 && entry.initiator >= trace.initiators) {
      fail(at, "initiator index exceeds the 'initiators' count");
    }
    if (trace.targets != 0 && entry.target >= trace.targets) {
      fail(at, "target index exceeds the 'targets' count");
    }
    trace.entries.push_back(entry);
  }
  return trace;
}

Trace load_trace(const std::string& path) {
  return parse_trace(text::read_text_file(path, "workload::load_trace"));
}

std::string write_trace(const Trace& trace) {
  // A name with whitespace or '#' would not survive the line-oriented
  // reload (extra tokens / truncation), breaking the round-trip
  // guarantee — reject it here rather than emit a corrupt file.
  require(!trace.name.empty() &&
              trace.name.find_first_of(" \t#") == std::string::npos,
          "write_trace: trace name must be one '#'-free token, got '" +
              trace.name + "'");
  std::ostringstream os;
  os << "# xpipes lite transaction trace\n";
  os << "trace " << trace.name << "\n";
  os << "initiators " << trace.initiators << "\n";
  os << "targets " << trace.targets << "\n";
  for (const traffic::TraceEntry& e : trace.entries) {
    os << e.cycle << " " << e.initiator << " " << e.target << " "
       << traffic::trace_cmd_name(e.cmd) << " " << e.addr_offset << " "
       << e.burst << " " << e.thread << "\n";
  }
  return os.str();
}

void save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "save_trace: cannot open " + path);
  out << write_trace(trace);
}

TraceRecorder::TraceRecorder(noc::Network& network, std::string name)
    : network_(network) {
  trace_.name = std::move(name);
  trace_.initiators = static_cast<std::uint32_t>(network.num_initiators());
  trace_.targets = static_cast<std::uint32_t>(network.num_targets());
  const std::uint64_t window = network.config().target_window;
  for (std::size_t i = 0; i < network.num_initiators(); ++i) {
    // Enforce the one-recorder-per-network rule: clobbering a live tap
    // would silently truncate the other recorder's trace.
    require(!network.master(i).on_push,
            "TraceRecorder: master already has a push tap installed");
    network.master(i).on_push = [this, i, window](
                                    const ocp::Transaction& txn,
                                    std::uint64_t release) {
      traffic::TraceEntry entry;
      // Plain pushes carry release 0 and are issuable now; pre-rolled
      // epoch pushes carry release >= the current (epoch-base) cycle.
      // Either way the max is the cycle the schedule actually injects.
      entry.cycle = std::max(release, network_.kernel().cycle());
      entry.initiator = static_cast<std::uint32_t>(i);
      entry.target = static_cast<std::uint32_t>(txn.addr / window);
      entry.cmd = txn.cmd;
      entry.addr_offset = txn.addr % window;
      entry.burst = txn.burst_len;
      entry.thread = txn.thread_id;
      XPL_ASSERT(trace_.entries.empty() ||
                 entry.cycle >= trace_.entries.back().cycle);
      trace_.entries.push_back(entry);
    };
  }
}

TraceRecorder::~TraceRecorder() {
  for (std::size_t i = 0; i < network_.num_initiators(); ++i) {
    network_.master(i).on_push = nullptr;
  }
}

namespace {

/// Header-count validation runs before the TracePlayer member is built
/// so the error names the shape mismatch, not an entry index. Returns
/// the entries by move — the driver keeps no second copy.
std::vector<traffic::TraceEntry> checked_entries(Trace trace,
                                                 noc::Network& network) {
  if (trace.initiators != 0) {
    require(trace.initiators == network.num_initiators(),
            "TraceDriver: trace expects " +
                std::to_string(trace.initiators) + " initiators, network "
                "has " + std::to_string(network.num_initiators()));
  }
  if (trace.targets != 0) {
    require(trace.targets == network.num_targets(),
            "TraceDriver: trace expects " + std::to_string(trace.targets) +
                " targets, network has " +
                std::to_string(network.num_targets()));
  }
  return std::move(trace.entries);
}

}  // namespace

TraceDriver::TraceDriver(noc::Network& network, Trace trace)
    : network_(network),
      name_(trace.name),
      player_(network, checked_entries(std::move(trace), network),
              &payload_word) {}

std::uint64_t TraceDriver::replay(std::uint64_t max_drain_cycles) {
  const std::uint64_t cycles = player_.cycles_to_done();
  player_.run(cycles);
  return cycles + network_.run_until_quiescent(max_drain_cycles);
}

}  // namespace xpl::workload
