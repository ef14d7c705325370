// Transaction traces: record, persist, replay.
//
// The workload layer's third scenario source (after synthetic patterns and
// app benchmarks): capture the exact transaction stream a live run injects
// and replay it, cycle for cycle, against any compatible network. The file
// format is line-oriented and comment-friendly like the NoC and `.sweep`
// spec formats (docs/FORMATS.md is the reference) and round-trips exactly:
// write_trace(parse_trace(text)) is canonical.
//
//   # xpipes lite transaction trace
//   trace mpeg4_burst
//   initiators 12
//   targets 12
//   0 3 5 read 64 2 1
//   0 7 5 write 128 4 0
//   12 3 5 writenp 64 1 3
//
// Header directives come first; every remaining line is one transaction,
//   <cycle> <initiator> <target> <read|write|writenp> <offset> <burst>
//   [thread]
// sorted by non-decreasing cycle (the trailing OCP thread id defaults to
// 0). Entries are traffic::TraceEntry, the traffic::TracePlayer input; the
// header is optional.
//
// Determinism contract (DESIGN.md §5): a trace pins every scheduling
// decision — injection cycle, source, destination, command, burst length.
// TraceDriver regenerates write payloads as a pure function of the entry
// index, so a replay involves no RNG at all: replaying the same trace on
// the same network config yields bit-identical RunStats no matter what
// seeds the surrounding campaign uses, and re-recording a replay
// reproduces the trace byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/noc/network.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::workload {

/// A named, replayable transaction stream plus the shape of the network
/// it was captured on (used to validate compatibility before replay).
struct Trace {
  std::string name = "trace";
  std::uint32_t initiators = 0;  ///< master cores the trace addresses
  std::uint32_t targets = 0;     ///< slave cores the trace addresses
  std::vector<traffic::TraceEntry> entries;
};

/// Parses the trace format above; throws xpl::Error with a line number on
/// malformed input (unknown directive, out-of-order cycles, bad command).
Trace parse_trace(const std::string& text);

/// Reads and parses a trace file.
Trace load_trace(const std::string& path);

/// Renders `trace` in canonical form: banner comment, fixed directive
/// order, one entry per line. parse_trace(write_trace(t)) == t.
std::string write_trace(const Trace& trace);

/// Writes the canonical form to `path`.
void save_trace(const Trace& trace, const std::string& path);

/// Captures every transaction pushed into `network`'s master cores while
/// alive (it taps ocp::MasterCore::on_push on all of them; the taps are
/// removed on destruction). Entries carry the kernel cycle at push time,
/// so recording a TrafficDriver/TraceDriver run reproduces the driver's
/// schedule exactly. One recorder per network at a time.
class TraceRecorder {
 public:
  explicit TraceRecorder(noc::Network& network, std::string name = "trace");
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  const Trace& trace() const { return trace_; }
  std::size_t recorded() const { return trace_.entries.size(); }

 private:
  noc::Network& network_;
  Trace trace_;
};

/// Replays a trace against a compatible network: step() once per cycle
/// alongside the kernel, like traffic::TrafficDriver. Compatibility
/// (header initiator/target counts, plus the per-entry range checks) is
/// validated at construction. The replay engine is traffic::TracePlayer
/// with one policy change: write payloads are a pure function of the
/// entry index — no RNG, no seed — so replays are deterministic by
/// construction.
class TraceDriver {
 public:
  TraceDriver(noc::Network& network, Trace trace);

  /// Injects every entry scheduled at or before the current cycle.
  void step() { player_.step(); }

  /// Convenience: step the driver and the network together.
  void run(std::size_t cycles) { player_.run(cycles); }

  /// Runs until the whole trace is injected (one run(), leaping silent
  /// stretches), then drains the network (run_until_quiescent). Returns
  /// total cycles stepped.
  std::uint64_t replay(std::uint64_t max_drain_cycles = 100000);

  /// True when every entry has been injected.
  bool done() const { return player_.done(); }
  std::uint64_t injected() const { return player_.injected(); }
  const std::string& name() const { return name_; }

 private:
  noc::Network& network_;
  std::string name_;  ///< header name (entries live in the player)
  traffic::TracePlayer player_;
};

}  // namespace xpl::workload
