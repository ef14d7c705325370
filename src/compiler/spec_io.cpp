#include "src/compiler/spec_io.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "src/common/error.hpp"

namespace xpl::compiler {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw Error("spec line " + std::to_string(line) + ": " + what);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

std::uint64_t parse_u64(const std::string& token, std::size_t line) {
  // stoull silently wraps negatives; reject anything but plain digits.
  if (token.empty() || token.find_first_not_of("0123456789") !=
                           std::string::npos) {
    fail(line, "bad number '" + token + "'");
  }
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(token, &used);
    if (used != token.size()) fail(line, "bad number '" + token + "'");
    return value;
  } catch (const std::logic_error&) {
    fail(line, "bad number '" + token + "'");
  }
}

}  // namespace

NocSpec parse_spec(const std::string& text) {
  NocSpec spec;
  std::map<std::string, std::uint32_t> switch_ids;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;

  auto switch_id = [&](const std::string& name, std::size_t at_line) {
    const auto it = switch_ids.find(name);
    if (it == switch_ids.end()) fail(at_line, "unknown switch '" + name + "'");
    return it->second;
  };

  while (std::getline(is, line)) {
    ++lineno;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];

    auto need = [&](std::size_t n) {
      if (tokens.size() != n) {
        fail(lineno, "'" + key + "' expects " + std::to_string(n - 1) +
                         " argument(s)");
      }
    };

    if (key == "noc") {
      need(2);
      spec.name = tokens[1];
    } else if (key == "flit_width") {
      need(2);
      spec.net.flit_width = parse_u64(tokens[1], lineno);
    } else if (key == "beat_width") {
      need(2);
      spec.net.beat_width = parse_u64(tokens[1], lineno);
    } else if (key == "max_burst") {
      need(2);
      spec.net.max_burst = parse_u64(tokens[1], lineno);
    } else if (key == "threads") {
      need(2);
      spec.net.num_threads = parse_u64(tokens[1], lineno);
    } else if (key == "target_window") {
      need(2);
      spec.net.target_window = parse_u64(tokens[1], lineno);
    } else if (key == "routing") {
      need(2);
      if (tokens[1] == "xy") {
        spec.net.routing = topology::RoutingAlgorithm::kXY;
      } else if (tokens[1] == "shortest") {
        spec.net.routing = topology::RoutingAlgorithm::kShortestPath;
      } else if (tokens[1] == "updown") {
        spec.net.routing = topology::RoutingAlgorithm::kUpDown;
      } else {
        fail(lineno, "unknown routing '" + tokens[1] + "'");
      }
    } else if (key == "arbiter") {
      need(2);
      if (tokens[1] == "rr") {
        spec.net.arbiter = switchlib::ArbiterKind::kRoundRobin;
      } else if (tokens[1] == "fixed") {
        spec.net.arbiter = switchlib::ArbiterKind::kFixedPriority;
      } else {
        fail(lineno, "unknown arbiter '" + tokens[1] + "'");
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
        fail(lineno, "unknown crc '" + tokens[1] + "'");
      }
    } else if (key == "flow") {
      need(2);
      try {
        spec.net.flow = link::parse_flow_control(tokens[1]);
      } catch (const Error&) {
        fail(lineno, "unknown flow '" + tokens[1] + "'");
      }
    } else if (key == "vcs") {
      need(2);
      spec.net.vcs = parse_u64(tokens[1], lineno);
      if (spec.net.vcs < 1 || spec.net.vcs > link::kMaxVcs) {
        fail(lineno, "vcs must be in [1, " +
                         std::to_string(link::kMaxVcs) + "]");
      }
    } else if (key == "input_fifo") {
      need(2);
      spec.net.input_fifo_depth = parse_u64(tokens[1], lineno);
      if (spec.net.input_fifo_depth < 1) {
        fail(lineno, "input_fifo depth must be >= 1");
      }
    } else if (key == "output_fifo") {
      need(2);
      spec.net.output_fifo_depth = parse_u64(tokens[1], lineno);
      if (spec.net.output_fifo_depth < 1) {
        fail(lineno, "output_fifo depth must be >= 1");
      }
    } else if (key == "extra_pipeline") {
      need(2);
      spec.net.extra_switch_pipeline = parse_u64(tokens[1], lineno);
    } else if (key == "partitions") {
      // Partitioned-simulation knobs (DESIGN.md §10). `threads` was
      // already taken by OCP num_threads, hence `sim_threads`.
      need(2);
      spec.net.partitions = parse_u64(tokens[1], lineno);
      if (spec.net.partitions < 1) fail(lineno, "partitions must be >= 1");
    } else if (key == "sim_threads") {
      need(2);
      spec.net.sim_threads = parse_u64(tokens[1], lineno);
      if (spec.net.sim_threads < 1) fail(lineno, "sim_threads must be >= 1");
    } else if (key == "scheduler") {
      // Kernel scheduling policy (bit-identical results; DESIGN.md §2):
      // full | time_leap (the default; gated is its legacy alias).
      need(2);
      if (tokens[1] == "full") {
        spec.net.scheduler = sim::Scheduler::kFull;
      } else if (tokens[1] == "time_leap" || tokens[1] == "gated") {
        spec.net.scheduler = sim::Scheduler::kTimeLeap;
      } else {
        fail(lineno, "unknown scheduler '" + tokens[1] +
                         "' (expected gated | full | time_leap)");
      }
    } else if (key == "lookahead") {
      need(2);
      spec.net.lookahead = parse_u64(tokens[1], lineno);
    } else if (key == "switch") {
      if (tokens.size() != 2 && tokens.size() != 5) {
        fail(lineno, "'switch' expects: switch <name> [coord <x> <y>]");
      }
      if (switch_ids.count(tokens[1])) {
        fail(lineno, "duplicate switch '" + tokens[1] + "'");
      }
      const auto id = spec.topo.add_switch(tokens[1]);
      switch_ids[tokens[1]] = id;
      if (tokens.size() == 5) {
        if (tokens[2] != "coord") fail(lineno, "expected 'coord'");
        spec.topo.switch_node(id).x =
            static_cast<int>(parse_u64(tokens[3], lineno));
        spec.topo.switch_node(id).y =
            static_cast<int>(parse_u64(tokens[4], lineno));
      }
    } else if (key == "link") {
      if (tokens.size() < 3) {
        fail(lineno,
             "'link' expects: link <from> <to> [stages <n>] [class <k>] "
             "[dateline]");
      }
      std::size_t stages = 0;
      std::uint8_t vc_class = 0;
      bool dateline = false;
      for (std::size_t t = 3; t < tokens.size();) {
        if (tokens[t] == "stages") {
          if (t + 1 >= tokens.size()) fail(lineno, "'stages' expects a value");
          stages = parse_u64(tokens[t + 1], lineno);
          t += 2;
        } else if (tokens[t] == "class") {
          if (t + 1 >= tokens.size()) fail(lineno, "'class' expects a value");
          const std::uint64_t k = parse_u64(tokens[t + 1], lineno);
          if (k > 255) fail(lineno, "link class must be in [0, 255]");
          vc_class = static_cast<std::uint8_t>(k);
          t += 2;
        } else if (tokens[t] == "dateline") {
          dateline = true;
          t += 1;
        } else {
          fail(lineno, "unknown link annotation '" + tokens[t] + "'");
        }
      }
      spec.topo.add_link(switch_id(tokens[1], lineno),
                         switch_id(tokens[2], lineno), stages, vc_class,
                         dateline);
    } else if (key == "initiator" || key == "target") {
      need(4);
      if (tokens[2] != "at") fail(lineno, "expected 'at'");
      const auto sw = switch_id(tokens[3], lineno);
      if (key == "initiator") {
        spec.topo.attach_initiator(sw, tokens[1]);
      } else {
        spec.topo.attach_target(sw, tokens[1]);
      }
    } else {
      fail(lineno, "unknown directive '" + key + "'");
    }
  }
  return spec;
}

NocSpec load_spec(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "load_spec: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_spec(text.str());
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
