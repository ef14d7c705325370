// Synthesis view: SystemC code generation.
//
// The original xpipesCompiler consumed the NoC specification and emitted
// SystemC class templates — one per distinct component configuration —
// plus a hierarchical top level binding them together, ready for the
// Synopsys flow. This emitter reproduces that output format: the generated
// code is self-contained SystemC-2.x RTL (synthesizable subset: clocked
// SC_METHODs, sc_uint datapaths, no dynamic allocation), with every
// parameter baked to the instance configuration and the NI routing LUTs
// emitted as constant tables.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "src/common/error.hpp"
#include "src/compiler/compiler.hpp"

namespace xpl::compiler {

namespace {

std::string switch_class_name(const switchlib::SwitchConfig& c) {
  std::ostringstream os;
  os << "xpipes_switch_" << c.num_inputs << "x" << c.num_outputs << "_w"
     << c.flit_width;
  return os.str();
}

std::string ini_class_name(const ni::InitiatorConfig& c) {
  std::ostringstream os;
  os << "xpipes_ni_initiator_w" << c.format.flit_width;
  return os.str();
}

std::string tgt_class_name(const ni::TargetConfig& c) {
  std::ostringstream os;
  os << "xpipes_ni_target_w" << c.format.flit_width;
  return os.str();
}

// Width of one flit beat on the wire (payload + head + tail + seq + crc).
std::size_t wire_width(std::size_t flit_width,
                       const link::ProtocolConfig& p) {
  return synth::wire_bits(flit_width, p);
}

std::string emit_switch(const switchlib::SwitchConfig& c) {
  const std::string cls = switch_class_name(c);
  const std::size_t w = wire_width(c.flit_width, c.protocol);
  std::ostringstream os;
  os << "// Generated by xpipesCompiler — do not edit.\n"
     << "// Switch " << c.num_inputs << "x" << c.num_outputs
     << ", flit width " << c.flit_width << ", " << c.pipeline_stages()
     << "-stage pipeline, "
     << switchlib::arbiter_name(c.arbiter) << " arbitration,\n"
     << "// output queue depth " << c.output_fifo_depth
     << ", go-back-N window " << c.protocol.window << ".\n"
     << "#ifndef " << cls << "_H\n#define " << cls << "_H\n\n"
     << "#include <systemc.h>\n\n"
     << "SC_MODULE(" << cls << ") {\n"
     << "  sc_in<bool> clock;\n"
     << "  sc_in<bool> reset;\n\n"
     << "  // Link-level ports: flit bundle = {payload, head, tail, seq, "
        "crc}.\n";
  for (std::size_t i = 0; i < c.num_inputs; ++i) {
    os << "  sc_in<sc_uint<" << w << "> > flit_in" << i << ";\n"
       << "  sc_in<bool> flit_in_valid" << i << ";\n"
       << "  sc_out<sc_uint<" << (c.protocol.seq_bits + 2) << "> > ack_out"
       << i << ";\n";
  }
  os << "\n";
  for (std::size_t o = 0; o < c.num_outputs; ++o) {
    os << "  sc_out<sc_uint<" << w << "> > flit_out" << o << ";\n"
       << "  sc_out<bool> flit_out_valid" << o << ";\n"
       << "  sc_in<sc_uint<" << (c.protocol.seq_bits + 2) << "> > ack_in"
       << o << ";\n";
  }
  os << "\n  // Stage 1: input buffers.\n"
     << "  sc_uint<" << (c.flit_width + 2) << "> input_buf["
     << c.num_inputs << "][" << c.input_fifo_depth << "];\n"
     << "  sc_uint<" << bits_for(c.input_fifo_depth) + 1 << "> in_rd["
     << c.num_inputs << "], in_wr[" << c.num_inputs << "];\n"
     << "  sc_uint<" << c.protocol.seq_bits << "> expected_seq["
     << c.num_inputs << "];\n"
     << "\n  // Stage 2: allocator + output queues + retransmission "
        "buffers.\n"
     << "  sc_uint<" << bits_for(c.num_outputs) + 1 << "> in_lock["
     << c.num_inputs << "];\n"
     << "  sc_uint<" << bits_for(c.num_inputs) + 1 << "> out_lock["
     << c.num_outputs << "];\n"
     << "  sc_uint<" << (c.flit_width + 2) << "> output_queue["
     << c.num_outputs << "][" << c.output_fifo_depth << "];\n"
     << "  sc_uint<" << (c.flit_width + 2) << "> retx_buf["
     << c.num_outputs << "][" << c.protocol.window << "];\n"
     << "  sc_uint<" << c.protocol.seq_bits << "> next_seq["
     << c.num_outputs << "];\n";
  if (c.arbiter == switchlib::ArbiterKind::kRoundRobin) {
    os << "  sc_uint<" << bits_for(c.num_inputs) << "> rr_ptr["
       << c.num_outputs << "];\n";
  }
  os << "\n  void rx_process();    // CRC check, seq check, ack/nack\n"
     << "  void arb_process();   // arbitration + crossbar + route shift\n"
     << "  void tx_process();    // queue drain, retransmission\n\n"
     << "  SC_CTOR(" << cls << ") {\n"
     << "    SC_METHOD(rx_process);  sensitive_pos << clock;\n"
     << "    SC_METHOD(arb_process); sensitive_pos << clock;\n"
     << "    SC_METHOD(tx_process);  sensitive_pos << clock;\n"
     << "  }\n"
     << "};\n\n#endif  // " << cls << "_H\n";
  return os.str();
}

std::string emit_ni_common_fields(const PacketFormat& fmt,
                                  const link::ProtocolConfig& protocol) {
  std::ostringstream os;
  const std::size_t w = wire_width(fmt.flit_width, protocol);
  os << "  // Network port.\n"
     << "  sc_out<sc_uint<" << w << "> > flit_out;\n"
     << "  sc_out<bool> flit_out_valid;\n"
     << "  sc_in<sc_uint<" << (protocol.seq_bits + 2) << "> > ack_in;\n"
     << "  sc_in<sc_uint<" << w << "> > flit_in;\n"
     << "  sc_in<bool> flit_in_valid;\n"
     << "  sc_out<sc_uint<" << (protocol.seq_bits + 2) << "> > ack_out;\n\n"
     << "  // Packetization registers (header filled once per transaction,\n"
     << "  // payload once per burst beat — then flit decomposition).\n"
     << "  sc_uint<" << fmt.header.width() << "> header_reg;\n"
     << "  sc_uint<" << fmt.beat_width << "> payload_reg;\n"
     << "  sc_uint<6> flit_pos;\n";
  return os.str();
}

std::string emit_initiator(const ni::InitiatorConfig& c,
                           std::size_t num_targets) {
  const std::string cls = ini_class_name(c);
  std::ostringstream os;
  os << "// Generated by xpipesCompiler — do not edit.\n"
     << "// Initiator NI, flit width " << c.format.flit_width
     << ", header " << c.format.header.width() << " bits ("
     << c.format.header_flits() << " flit(s)), " << num_targets
     << "-entry route LUT.\n"
     << "#ifndef " << cls << "_H\n#define " << cls << "_H\n\n"
     << "#include <systemc.h>\n#include \"xpipes_routes.h\"\n\n"
     << "SC_MODULE(" << cls << ") {\n"
     << "  sc_in<bool> clock;\n  sc_in<bool> reset;\n\n"
     << "  // OCP 2.0 front end (slave side).\n"
     << "  sc_in<sc_uint<3> > MCmd;\n"
     << "  sc_in<sc_uint<32> > MAddr;\n"
     << "  sc_in<sc_uint<" << c.format.beat_width << "> > MData;\n"
     << "  sc_in<sc_uint<" << c.format.header.burst_bits
     << "> > MBurstLength;\n"
     << "  sc_in<sc_uint<" << c.format.header.thread_bits
     << "> > MThreadID;\n"
     << "  sc_in<bool> MFlag;  // sideband\n"
     << "  sc_out<bool> SCmdAccept;\n"
     << "  sc_out<sc_uint<2> > SResp;\n"
     << "  sc_out<sc_uint<" << c.format.beat_width << "> > SData;\n"
     << "  sc_out<bool> SInterrupt;  // sideband\n\n"
     << emit_ni_common_fields(c.format, c.protocol)
     << "  sc_uint<" << c.format.header.txn_bits << "> next_txn;\n"
     << "  sc_uint<8> outstanding["
     << (std::size_t{1} << c.format.header.txn_bits) << "];\n\n"
     << "  void request_process();   // OCP -> LUT -> header/payload -> "
        "flits\n"
     << "  void response_process();  // flits -> depacketize -> OCP "
        "response\n\n"
     << "  SC_CTOR(" << cls << ") {\n"
     << "    SC_METHOD(request_process);  sensitive_pos << clock;\n"
     << "    SC_METHOD(response_process); sensitive_pos << clock;\n"
     << "  }\n};\n\n#endif  // " << cls << "_H\n";
  return os.str();
}

std::string emit_target(const ni::TargetConfig& c,
                        std::size_t num_initiators) {
  const std::string cls = tgt_class_name(c);
  std::ostringstream os;
  os << "// Generated by xpipesCompiler — do not edit.\n"
     << "// Target NI, flit width " << c.format.flit_width << ", "
     << num_initiators << "-entry response-route LUT.\n"
     << "#ifndef " << cls << "_H\n#define " << cls << "_H\n\n"
     << "#include <systemc.h>\n#include \"xpipes_routes.h\"\n\n"
     << "SC_MODULE(" << cls << ") {\n"
     << "  sc_in<bool> clock;\n  sc_in<bool> reset;\n\n"
     << "  // OCP 2.0 front end (master side).\n"
     << "  sc_out<sc_uint<3> > MCmd;\n"
     << "  sc_out<sc_uint<32> > MAddr;\n"
     << "  sc_out<sc_uint<" << c.format.beat_width << "> > MData;\n"
     << "  sc_in<bool> SCmdAccept;\n"
     << "  sc_in<sc_uint<2> > SResp;\n"
     << "  sc_in<sc_uint<" << c.format.beat_width << "> > SData;\n\n"
     << emit_ni_common_fields(c.format, c.protocol)
     << "\n  void request_process();   // flits -> depacketize -> OCP\n"
     << "  void response_process();  // OCP response -> packetize -> "
        "flits\n\n"
     << "  SC_CTOR(" << cls << ") {\n"
     << "    SC_METHOD(request_process);  sensitive_pos << clock;\n"
     << "    SC_METHOD(response_process); sensitive_pos << clock;\n"
     << "  }\n};\n\n#endif  // " << cls << "_H\n";
  return os.str();
}

}  // namespace

std::map<std::string, std::string> XpipesCompiler::emit_systemc(
    const NocSpec& spec) const {
  const auto network = build_simulation(spec);
  std::map<std::string, std::string> files;

  // ---- One class per *distinct* configuration (the paper's "class
  // template for each network component type").
  std::set<std::string> emitted;
  for (std::size_t s = 0; s < network->num_switches(); ++s) {
    const auto& config = network->switch_at(s).config();
    const std::string cls = switch_class_name(config);
    if (emitted.insert(cls).second) {
      files[cls + ".h"] = emit_switch(config);
    }
  }
  for (std::size_t i = 0; i < network->num_initiators(); ++i) {
    const auto& config = network->initiator_ni(i).config();
    const std::string cls = ini_class_name(config);
    if (emitted.insert(cls).second) {
      files[cls + ".h"] = emit_initiator(config, network->num_targets());
    }
  }
  for (std::size_t t = 0; t < network->num_targets(); ++t) {
    const auto& config = network->target_ni(t).config();
    const std::string cls = tgt_class_name(config);
    if (emitted.insert(cls).second) {
      files[cls + ".h"] = emit_target(config, network->num_initiators());
    }
  }

  // ---- Routing tables: the LUT contents, as constant arrays.
  {
    std::ostringstream os;
    os << "// Generated by xpipesCompiler — routing tables ("
       << topology::routing_name(spec.net.routing) << ").\n"
       << "#ifndef XPIPES_ROUTES_H\n#define XPIPES_ROUTES_H\n\n";
    const auto& fmt = network->format();
    os << "static const unsigned XPIPES_PORT_BITS = "
       << fmt.header.port_bits << ";\n"
       << "static const unsigned XPIPES_MAX_HOPS = " << fmt.header.max_hops
       << ";\n\n";
    network->routes().for_each([&](std::uint32_t src, std::uint32_t dst,
                                   const topology::RouteRef& route) {
      os << "// NI " << src << " -> NI " << dst << "\n"
         << "static const unsigned char xpipes_route_" << src << "_" << dst
         << "[] = {";
      for (std::size_t h = 0; h < route.size(); ++h) {
        if (h) os << ", ";
        os << static_cast<unsigned>(route[h]);
      }
      os << "};\n";
    });
    os << "\n#endif  // XPIPES_ROUTES_H\n";
    files["xpipes_routes.h"] = os.str();
  }

  // ---- Hierarchical top level.
  {
    std::ostringstream os;
    os << "// Generated by xpipesCompiler — hierarchical top level for '"
       << spec.name << "'.\n"
       << "#ifndef XPIPES_TOP_H\n#define XPIPES_TOP_H\n\n"
       << "#include <systemc.h>\n";
    for (const auto& cls : emitted) os << "#include \"" << cls << ".h\"\n";
    os << "\nSC_MODULE(" << spec.name << "_top) {\n"
       << "  sc_in<bool> clock;\n  sc_in<bool> reset;\n\n";

    // Signals per topology link and per NI attachment.
    const auto& topo = network->topo();
    const std::size_t w =
        wire_width(spec.net.flit_width,
                   network->switch_at(0).config().protocol);
    const std::size_t ab =
        network->switch_at(0).config().protocol.seq_bits + 2;
    for (std::uint32_t l = 0; l < topo.num_links(); ++l) {
      os << "  sc_signal<sc_uint<" << w << "> > link" << l << "_flit;\n"
         << "  sc_signal<bool> link" << l << "_valid;\n"
         << "  sc_signal<sc_uint<" << ab << "> > link" << l << "_ack;\n";
    }
    for (std::uint32_t n = 0; n < topo.num_nis(); ++n) {
      os << "  sc_signal<sc_uint<" << w << "> > ni" << n
         << "_tx_flit, ni" << n << "_rx_flit;\n"
         << "  sc_signal<bool> ni" << n << "_tx_valid, ni" << n
         << "_rx_valid;\n"
         << "  sc_signal<sc_uint<" << ab << "> > ni" << n << "_tx_ack, ni"
         << n << "_rx_ack;\n";
    }
    os << "\n  // Component instances.\n";
    for (std::size_t s = 0; s < network->num_switches(); ++s) {
      os << "  " << switch_class_name(network->switch_at(s).config()) << " "
         << network->switch_at(s).name() << ";\n";
    }
    for (std::size_t i = 0; i < network->num_initiators(); ++i) {
      os << "  " << ini_class_name(network->initiator_ni(i).config()) << " "
         << network->initiator_ni(i).name() << ";\n";
    }
    for (std::size_t t = 0; t < network->num_targets(); ++t) {
      os << "  " << tgt_class_name(network->target_ni(t).config()) << " "
         << network->target_ni(t).name() << ";\n";
    }

    os << "\n  SC_CTOR(" << spec.name << "_top)";
    bool first = true;
    for (std::size_t s = 0; s < network->num_switches(); ++s) {
      os << (first ? "\n      : " : ",\n        ")
         << network->switch_at(s).name() << "(\""
         << network->switch_at(s).name() << "\")";
      first = false;
    }
    for (std::size_t i = 0; i < network->num_initiators(); ++i) {
      os << ",\n        " << network->initiator_ni(i).name() << "(\""
         << network->initiator_ni(i).name() << "\")";
    }
    for (std::size_t t = 0; t < network->num_targets(); ++t) {
      os << ",\n        " << network->target_ni(t).name() << "(\""
         << network->target_ni(t).name() << "\")";
    }
    os << " {\n";

    // Port binding: switches.
    for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
      const std::string& sw = network->switch_at(s).name();
      os << "    " << sw << ".clock(clock); " << sw << ".reset(reset);\n";
      const auto& in_ports = topo.input_ports(s);
      for (std::size_t p = 0; p < in_ports.size(); ++p) {
        const auto& ref = in_ports[p];
        const std::string base =
            ref.kind == topology::PortRef::Kind::kLink
                ? "link" + std::to_string(ref.id)
                : "ni" + std::to_string(ref.id) + "_tx";
        os << "    " << sw << ".flit_in" << p << "(" << base << "_flit); "
           << sw << ".flit_in_valid" << p << "(" << base << "_valid); "
           << sw << ".ack_out" << p << "(" << base << "_ack);\n";
      }
      const auto& out_ports = topo.output_ports(s);
      for (std::size_t p = 0; p < out_ports.size(); ++p) {
        const auto& ref = out_ports[p];
        const std::string base =
            ref.kind == topology::PortRef::Kind::kLink
                ? "link" + std::to_string(ref.id)
                : "ni" + std::to_string(ref.id) + "_rx";
        os << "    " << sw << ".flit_out" << p << "(" << base << "_flit); "
           << sw << ".flit_out_valid" << p << "(" << base << "_valid); "
           << sw << ".ack_in" << p << "(" << base << "_ack);\n";
      }
    }
    // Port binding: NIs.
    for (std::uint32_t n = 0; n < topo.num_nis(); ++n) {
      const std::string& name = topo.ni(n).name;
      const std::string id = std::to_string(n);
      os << "    " << name << ".clock(clock); " << name
         << ".reset(reset);\n"
         << "    " << name << ".flit_out(ni" << id << "_tx_flit); " << name
         << ".flit_out_valid(ni" << id << "_tx_valid); " << name
         << ".ack_in(ni" << id << "_tx_ack);\n"
         << "    " << name << ".flit_in(ni" << id << "_rx_flit); " << name
         << ".flit_in_valid(ni" << id << "_rx_valid); " << name
         << ".ack_out(ni" << id << "_rx_ack);\n";
    }
    os << "  }\n};\n\n#endif  // XPIPES_TOP_H\n";
    files[spec.name + "_top.h"] = os.str();
  }

  return files;
}

void XpipesCompiler::write_systemc(const NocSpec& spec,
                                   const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  for (const auto& [name, content] : emit_systemc(spec)) {
    std::ofstream out(fs::path(directory) / name);
    require(out.good(), "write_systemc: cannot open " + name);
    out << content;
  }
}

}  // namespace xpl::compiler
