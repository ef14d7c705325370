#include "src/compiler/spec_io.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/text.hpp"

namespace xpl::compiler {

using text::fail;
using text::parse_u64;

NocSpec parse_spec(const std::string& text) {
  NocSpec spec;
  std::map<std::string, std::uint32_t> switch_ids;
  text::LineReader in(text, "spec");
  while (in.next()) {
    const auto& tokens = in.tokens();
    const text::Where at = in.at();
    const std::string& key = tokens[0];

    auto switch_id = [&](const std::string& name) {
      const auto it = switch_ids.find(name);
      if (it == switch_ids.end()) fail(at, "unknown switch '" + name + "'");
      return it->second;
    };
    auto need = [&](std::size_t n) {
      if (tokens.size() != n) {
        fail(at, "'" + key + "' expects " + std::to_string(n - 1) +
                     " argument(s)");
      }
    };
    auto u64 = [&](std::uint64_t lo, std::uint64_t hi) {
      need(2);
      return parse_u64(tokens[1], at, lo, hi);
    };

    if (key == "noc") {
      need(2);
      spec.name = tokens[1];
    } else if (key == "flit_width") {
      spec.net.flit_width = u64(1, text::kMaxFlitWidth);
    } else if (key == "beat_width") {
      spec.net.beat_width = u64(1, text::kMaxBeatWidth);
    } else if (key == "max_burst") {
      spec.net.max_burst = u64(1, text::kMaxBurst);
    } else if (key == "threads") {
      spec.net.num_threads = u64(1, text::kMaxOcpThreads);
    } else if (key == "target_window") {
      spec.net.target_window = u64(1, text::kMaxTargetWindow);
    } else if (key == "routing") {
      need(2);
      if (tokens[1] == "xy") {
        spec.net.routing = topology::RoutingAlgorithm::kXY;
      } else if (tokens[1] == "shortest") {
        spec.net.routing = topology::RoutingAlgorithm::kShortestPath;
      } else if (tokens[1] == "updown") {
        spec.net.routing = topology::RoutingAlgorithm::kUpDown;
      } else {
        fail(at, "unknown routing '" + tokens[1] + "'");
      }
    } else if (key == "arbiter") {
      need(2);
      if (tokens[1] == "rr") {
        spec.net.arbiter = switchlib::ArbiterKind::kRoundRobin;
      } else if (tokens[1] == "fixed") {
        spec.net.arbiter = switchlib::ArbiterKind::kFixedPriority;
      } else {
        fail(at, "unknown arbiter '" + tokens[1] + "'");
      }
    } else if (key == "crc") {
      need(2);
      if (tokens[1] == "none") {
        spec.net.crc = CrcKind::kNone;
      } else if (tokens[1] == "parity") {
        spec.net.crc = CrcKind::kParity;
      } else if (tokens[1] == "crc8") {
        spec.net.crc = CrcKind::kCrc8;
      } else if (tokens[1] == "crc16") {
        spec.net.crc = CrcKind::kCrc16;
      } else {
        fail(at, "unknown crc '" + tokens[1] + "'");
      }
    } else if (key == "flow") {
      need(2);
      try {
        spec.net.flow = link::parse_flow_control(tokens[1]);
      } catch (const Error&) {
        fail(at, "unknown flow '" + tokens[1] + "'");
      }
    } else if (key == "vcs") {
      spec.net.vcs = u64(1, link::kMaxVcs);
    } else if (key == "input_fifo") {
      spec.net.input_fifo_depth = u64(1, text::kMaxFifoDepth);
    } else if (key == "output_fifo") {
      spec.net.output_fifo_depth = u64(1, text::kMaxFifoDepth);
    } else if (key == "extra_pipeline") {
      spec.net.extra_switch_pipeline = u64(0, text::kMaxExtraPipeline);
    } else if (key == "partitions") {
      // Partitioned-simulation knobs (DESIGN.md §10). `threads` was
      // already taken by OCP num_threads, hence `sim_threads`.
      spec.net.partitions = u64(1, text::kMaxPartitions);
    } else if (key == "sim_threads") {
      spec.net.sim_threads = u64(1, text::kMaxThreads);
    } else if (key == "scheduler") {
      // Kernel scheduling policy (bit-identical results; DESIGN.md §2):
      // full | time_leap (the default; gated is its legacy alias).
      need(2);
      if (tokens[1] == "full") {
        spec.net.scheduler = sim::Scheduler::kFull;
      } else if (tokens[1] == "time_leap" || tokens[1] == "gated") {
        spec.net.scheduler = sim::Scheduler::kTimeLeap;
      } else {
        fail(at, "unknown scheduler '" + tokens[1] +
                     "' (expected gated | full | time_leap)");
      }
    } else if (key == "lookahead") {
      spec.net.lookahead = u64(0, text::kMaxU64);
    } else if (key == "switch") {
      if (tokens.size() != 2 && tokens.size() != 5) {
        fail(at, "'switch' expects: switch <name> [coord <x> <y>]");
      }
      if (switch_ids.count(tokens[1])) {
        fail(at, "duplicate switch '" + tokens[1] + "'");
      }
      const auto id = spec.topo.add_switch(tokens[1]);
      switch_ids[tokens[1]] = id;
      if (tokens.size() == 5) {
        if (tokens[2] != "coord") fail(at, "expected 'coord'");
        spec.topo.switch_node(id).x =
            static_cast<int>(parse_u64(tokens[3], at, 0, text::kMaxCoord));
        spec.topo.switch_node(id).y =
            static_cast<int>(parse_u64(tokens[4], at, 0, text::kMaxCoord));
      }
    } else if (key == "link") {
      if (tokens.size() < 3) {
        fail(at,
             "'link' expects: link <from> <to> [stages <n>] [class <k>] "
             "[dateline]");
      }
      std::size_t stages = 0;
      std::uint8_t vc_class = 0;
      bool dateline = false;
      for (std::size_t t = 3; t < tokens.size();) {
        if (tokens[t] == "stages") {
          if (t + 1 >= tokens.size()) fail(at, "'stages' expects a value");
          stages = parse_u64(tokens[t + 1], at, 0, text::kMaxLinkStages);
          t += 2;
        } else if (tokens[t] == "class") {
          if (t + 1 >= tokens.size()) fail(at, "'class' expects a value");
          vc_class = static_cast<std::uint8_t>(
              parse_u64(tokens[t + 1], at, 0, text::kMaxLinkClass));
          t += 2;
        } else if (tokens[t] == "dateline") {
          dateline = true;
          t += 1;
        } else {
          fail(at, "unknown link annotation '" + tokens[t] + "'");
        }
      }
      spec.topo.add_link(switch_id(tokens[1]), switch_id(tokens[2]), stages,
                         vc_class, dateline);
    } else if (key == "initiator" || key == "target") {
      need(4);
      if (tokens[2] != "at") fail(at, "expected 'at'");
      const auto sw = switch_id(tokens[3]);
      if (key == "initiator") {
        spec.topo.attach_initiator(sw, tokens[1]);
      } else {
        spec.topo.attach_target(sw, tokens[1]);
      }
    } else {
      fail(at, "unknown directive '" + key + "'");
    }
  }
  return spec;
}

NocSpec load_spec(const std::string& path) {
  return parse_spec(text::read_text_file(path, "load_spec"));
}

std::string write_spec(const NocSpec& spec) {
  std::ostringstream os;
  os << "# xpipes lite NoC specification\n";
  os << "noc " << spec.name << "\n";
  os << "flit_width " << spec.net.flit_width << "\n";
  os << "beat_width " << spec.net.beat_width << "\n";
  os << "max_burst " << spec.net.max_burst << "\n";
  os << "threads " << spec.net.num_threads << "\n";
  os << "target_window " << spec.net.target_window << "\n";
  os << "routing "
     << (spec.net.routing == topology::RoutingAlgorithm::kXY ? "xy"
         : spec.net.routing == topology::RoutingAlgorithm::kUpDown
             ? "updown"
             : "shortest")
     << "\n";
  os << "arbiter "
     << (spec.net.arbiter == switchlib::ArbiterKind::kRoundRobin ? "rr"
                                                                 : "fixed")
     << "\n";
  os << "crc " << crc_name(spec.net.crc) << "\n";
  if (spec.net.flow != link::FlowControl::kAckNack) {
    os << "flow " << link::flow_control_name(spec.net.flow) << "\n";
  }
  if (spec.net.vcs != 1) {
    os << "vcs " << spec.net.vcs << "\n";
  }
  // Buffer depths follow the conditional-emission discipline of flow/vcs:
  // written only off-default, so legacy canonical specs never change.
  if (spec.net.input_fifo_depth != 2) {
    os << "input_fifo " << spec.net.input_fifo_depth << "\n";
  }
  if (spec.net.output_fifo_depth != 4) {
    os << "output_fifo " << spec.net.output_fifo_depth << "\n";
  }
  if (spec.net.extra_switch_pipeline != 0) {
    os << "extra_pipeline " << spec.net.extra_switch_pipeline << "\n";
  }
  if (spec.net.partitions != 1) {
    os << "partitions " << spec.net.partitions << "\n";
  }
  if (spec.net.sim_threads != 1) {
    os << "sim_threads " << spec.net.sim_threads << "\n";
  }
  if (spec.net.scheduler == sim::Scheduler::kFull) {
    os << "scheduler full\n";
  }
  if (spec.net.lookahead != 0) {
    os << "lookahead " << spec.net.lookahead << "\n";
  }
  for (std::uint32_t s = 0; s < spec.topo.num_switches(); ++s) {
    const auto& node = spec.topo.switch_node(s);
    os << "switch " << node.name;
    if (node.x >= 0 && node.y >= 0) {
      os << " coord " << node.x << " " << node.y;
    }
    os << "\n";
  }
  for (std::uint32_t l = 0; l < spec.topo.num_links(); ++l) {
    const auto& link = spec.topo.link(l);
    os << "link " << spec.topo.switch_node(link.from).name << " "
       << spec.topo.switch_node(link.to).name;
    if (link.stages != 0) os << " stages " << link.stages;
    if (link.vc_class != 0) {
      os << " class " << static_cast<unsigned>(link.vc_class);
    }
    if (link.dateline) os << " dateline";
    os << "\n";
  }
  for (std::uint32_t n = 0; n < spec.topo.num_nis(); ++n) {
    const auto& ni = spec.topo.ni(n);
    os << (ni.initiator ? "initiator " : "target ") << ni.name << " at "
       << spec.topo.switch_node(ni.switch_id).name << "\n";
  }
  return os.str();
}

void save_spec(const NocSpec& spec, const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "save_spec: cannot open " + path);
  out << write_spec(spec);
}

}  // namespace xpl::compiler
