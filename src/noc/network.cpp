#include "src/noc/network.hpp"

#include <algorithm>
#include <string>

#include "src/common/error.hpp"
#include "src/topology/partition.hpp"

namespace xpl::noc {

namespace {

// Largest pipeline depth over all links: kept as the reference uniform
// protocol (SwitchConfig::protocol); the actual per-port endpoints are
// sized per link below.
std::size_t max_link_stages(const topology::Topology& topo) {
  std::size_t stages = 0;
  for (std::uint32_t l = 0; l < topo.num_links(); ++l) {
    stages = std::max(stages, topo.link(l).stages);
  }
  return stages;
}

}  // namespace

Network::Network(topology::Topology topo, const NetworkConfig& config)
    : topo_(std::move(topo)), config_(config), kernel_(config.scheduler) {
  topo_.validate();
  // Credit flow control never retransmits, so it is only legal over
  // reliable links — the protocol asymmetry the paper builds on.
  require(config.flow != link::FlowControl::kCredit ||
              config.bit_error_rate == 0.0,
          "Network: credit flow control requires reliable links "
          "(bit_error_rate == 0)");
  require(config.vcs >= 1 && config.vcs <= link::kMaxVcs,
          "Network: vcs must be in [1, " + std::to_string(link::kMaxVcs) +
              "]");
  routes_ = topology::compute_all_routes(topo_, config.routing);
  // Lane policy: dateline discipline exactly when minimal routes meet
  // dateline-marked links with more than one lane; otherwise packets keep
  // their initiator-chosen lane. The checker analyses the same channels
  // the switches will use.
  const topology::VcPolicy vc_policy =
      topology::make_vc_policy(topo_, config.routing, config.vcs);
  deadlock_ = topology::check_deadlock(topo_, routes_, vc_policy);
  if (config.require_deadlock_free) {
    require(deadlock_.deadlock_free,
            "Network: routing tables can deadlock (" +
                deadlock_.to_string(topo_) + "); use XY/up-down routing, "
                "add virtual channels (vcs >= 2 enables dateline minimal "
                "routing on rings/tori/spidergons), or set "
                "require_deadlock_free = false");
  }

  // ---- Derive the packet format from the instantiated network.
  format_.flit_width = config.flit_width;
  format_.beat_width = config.beat_width;
  format_.header = HeaderFormat::for_network(
      topo_.max_radix_out(), topo_.num_nis(), routes_.max_hops(),
      bits_for(config.target_window), config.max_burst, config.num_threads);
  format_.validate();
  // Route-field consistency against the topology actually instantiated:
  // an undersized port or hop budget would silently truncate selectors
  // when headers are packed (SwitchConfig::validate() checks the
  // switch-local half of this invariant).
  require(std::size_t{1} << format_.header.port_bits >=
              topo_.max_radix_out(),
          "Network: header port_bits cannot address the widest switch");
  require(format_.header.max_hops >= routes_.max_hops(),
          "Network: header route field shorter than the longest route");

  // Per-link protocol sizing: each link's go-back-N window covers *its*
  // round trip (the compiler's per-instance buffer optimization); NI
  // attachment links are local and get the minimum window. The uniform
  // worst-case config is kept for reference in the switch configs'
  // `protocol` field.
  link::ProtocolConfig protocol =
      link::ProtocolConfig::for_link(max_link_stages(topo_), config.crc);
  protocol.vcs = config.vcs;
  link::ProtocolConfig ni_protocol =
      link::ProtocolConfig::for_link(0, config.crc);
  ni_protocol.vcs = config.vcs;
  std::vector<link::ProtocolConfig> link_protocol;
  for (std::uint32_t l = 0; l < topo_.num_links(); ++l) {
    link_protocol.push_back(
        link::ProtocolConfig::for_link(topo_.link(l).stages, config.crc));
    link_protocol.back().vcs = config.vcs;
  }
  auto protocol_for = [&](const topology::PortRef& ref) {
    return ref.kind == topology::PortRef::Kind::kLink
               ? link_protocol[ref.id]
               : ni_protocol;
  };

  initiator_ids_ = topo_.initiator_ids();
  target_ids_ = topo_.target_ids();

  // ---- Partition assignment (DESIGN.md §10). Everything downstream —
  // wire creation, module creation, registration — tags each element
  // with its switch's partition; signal/module *creation order* stays
  // exactly the unpartitioned sequence, so digests and exports are
  // byte-identical at any partition count.
  const std::size_t parts = std::min<std::size_t>(
      std::max<std::size_t>(config.partitions, 1), topo_.num_switches());
  if (parts > 1) {
    switch_partition_ = topology::partition_switches(topo_, parts);
    kernel_.configure_partitions(parts, std::max<std::size_t>(
                                            config.sim_threads, 1));
  } else {
    switch_partition_.assign(topo_.num_switches(), 0);
  }
  auto switch_part = [&](std::uint32_t s) {
    return static_cast<std::size_t>(switch_partition_[s]);
  };
  auto ni_part = [&](std::uint32_t n) {
    return switch_part(topo_.ni(n).switch_id);
  };

  // ---- Allocate wires: one LinkWires pair per topology link and per NI
  // attachment direction. Each endpoint's wires join the partition of
  // the switch that drives or consumes them: for a cut link the up pair
  // stays with the sender's partition and the down pair with the
  // receiver's, so no signal ever crosses a partition.
  struct WirePair {
    link::LinkWires up;    // sender side
    link::LinkWires down;  // receiver side
  };
  auto make_pair = [&](std::size_t up_part, std::size_t down_part) {
    kernel_.set_creation_partition(up_part);
    const link::LinkWires up = link::LinkWires::make(kernel_);
    kernel_.set_creation_partition(down_part);
    const link::LinkWires down = link::LinkWires::make(kernel_);
    return WirePair{up, down};
  };

  std::vector<WirePair> link_wires;  // per topology link id
  for (std::uint32_t l = 0; l < topo_.num_links(); ++l) {
    link_wires.push_back(make_pair(switch_part(topo_.link(l).from),
                                   switch_part(topo_.link(l).to)));
  }
  std::vector<WirePair> ni_in_wires;   // NI -> switch, per NI id
  std::vector<WirePair> ni_out_wires;  // switch -> NI, per NI id
  for (std::uint32_t n = 0; n < topo_.num_nis(); ++n) {
    ni_in_wires.push_back(make_pair(ni_part(n), ni_part(n)));
    ni_out_wires.push_back(make_pair(ni_part(n), ni_part(n)));
  }

  // ---- Link modules (error injection only between switches). A link
  // whose endpoints fall in different partitions becomes a CutLink: two
  // half-modules around deterministic mailboxes, bit-exact with the
  // PipelinedLink it replaces (src/link/cut.hpp). link_slots_ records
  // every link in creation order for the uniform statistics view.
  for (std::uint32_t l = 0; l < topo_.num_links(); ++l) {
    link::PipelinedLink::Config lcfg;
    lcfg.stages = topo_.link(l).stages;
    lcfg.bit_error_rate = config.bit_error_rate;
    lcfg.seed = config.seed * 7919 + l;
    const std::string name = "link" + std::to_string(l);
    if (kernel_.partitioned() &&
        switch_part(topo_.link(l).from) != switch_part(topo_.link(l).to)) {
      cut_links_.push_back(std::make_unique<link::CutLink>(
          name, link_wires[l].up, link_wires[l].down, lcfg));
      // Registration order == topology link id order: the exchange
      // sequence at every barrier is deterministic by construction.
      kernel_.register_cut(*cut_links_.back());
      link_slots_.push_back({nullptr, cut_links_.back().get()});
    } else {
      links_.push_back(std::make_unique<link::PipelinedLink>(
          name, link_wires[l].up, link_wires[l].down, lcfg));
      link_slots_.push_back({links_.back().get(), nullptr});
    }
  }
  // NI attachment links: local, reliable, unpipelined — never cut (an
  // NI lives in its switch's partition).
  for (std::uint32_t n = 0; n < topo_.num_nis(); ++n) {
    link::PipelinedLink::Config lcfg;  // stages 0, no errors
    links_.push_back(std::make_unique<link::PipelinedLink>(
        "nilink_in" + std::to_string(n), ni_in_wires[n].up,
        ni_in_wires[n].down, lcfg));
    link_slots_.push_back({links_.back().get(), nullptr});
    links_.push_back(std::make_unique<link::PipelinedLink>(
        "nilink_out" + std::to_string(n), ni_out_wires[n].up,
        ni_out_wires[n].down, lcfg));
    link_slots_.push_back({links_.back().get(), nullptr});
  }

  // Conservative window: each partition may run k cycles between
  // exchanges iff every record a cut stages inside an epoch is due no
  // earlier than the next epoch's start — k <= 1 + stages per cut link
  // (src/link/cut.hpp). Auto = the safe maximum over the actual cuts.
  if (kernel_.partitioned()) {
    std::size_t min_stages = SIZE_MAX;
    for (const auto& cut : cut_links_) {
      min_stages = std::min(min_stages, cut->config().stages);
    }
    std::uint64_t k = min_stages == SIZE_MAX ? 1 : 1 + min_stages;
    if (config.lookahead != 0) {
      k = std::min<std::uint64_t>(k, config.lookahead);
    }
    kernel_.set_lookahead(k);
  }

  // ---- Switches, with wires ordered by the topology port maps.
  for (std::uint32_t s = 0; s < topo_.num_switches(); ++s) {
    const auto& in_ports = topo_.input_ports(s);
    const auto& out_ports = topo_.output_ports(s);
    std::vector<link::LinkWires> in_wires;
    for (const auto& ref : in_ports) {
      in_wires.push_back(ref.kind == topology::PortRef::Kind::kLink
                             ? link_wires[ref.id].down
                             : ni_in_wires[ref.id].down);
    }
    std::vector<link::LinkWires> out_wires;
    for (const auto& ref : out_ports) {
      out_wires.push_back(ref.kind == topology::PortRef::Kind::kLink
                              ? link_wires[ref.id].up
                              : ni_out_wires[ref.id].up);
    }
    switchlib::SwitchConfig scfg;
    scfg.num_inputs = in_ports.size();
    scfg.num_outputs = out_ports.size();
    scfg.flit_width = config.flit_width;
    scfg.port_bits = format_.header.port_bits;
    scfg.route_bits = format_.header.route_bits();
    scfg.input_fifo_depth = config.input_fifo_depth;
    scfg.output_fifo_depth =
        (s < config.output_fifo_override.size() &&
         config.output_fifo_override[s] != 0)
            ? config.output_fifo_override[s]
            : config.output_fifo_depth;
    scfg.extra_pipeline = config.extra_switch_pipeline;
    scfg.arbiter = config.arbiter;
    scfg.flow = config.flow;
    scfg.protocol = protocol;
    scfg.vcs = config.vcs;
    scfg.vc_map = vc_policy.dateline ? switchlib::VcMap::kDateline
                                     : switchlib::VcMap::kInherit;
    for (const auto& ref : in_ports) {
      scfg.input_protocols.push_back(protocol_for(ref));
      scfg.input_vc_class.push_back(
          ref.kind == topology::PortRef::Kind::kLink
              ? topo_.link(ref.id).vc_class
              : switchlib::SwitchConfig::kNiClass);
    }
    for (const auto& ref : out_ports) {
      scfg.output_protocols.push_back(protocol_for(ref));
      const bool is_link = ref.kind == topology::PortRef::Kind::kLink;
      scfg.output_vc_class.push_back(
          is_link ? topo_.link(ref.id).vc_class
                  : switchlib::SwitchConfig::kNiClass);
      scfg.output_dateline.push_back(
          is_link && topo_.link(ref.id).dateline ? 1 : 0);
    }
    switches_.push_back(std::make_unique<switchlib::Switch>(
        topo_.switch_node(s).name, scfg, std::move(in_wires),
        std::move(out_wires)));
  }

  // ---- NIs and cores. OCP wires join their NI's partition.
  for (std::size_t i = 0; i < initiator_ids_.size(); ++i) {
    const std::uint32_t node = initiator_ids_[i];
    kernel_.set_creation_partition(ni_part(node));
    const ocp::OcpWires ocp_wires = ocp::OcpWires::make(kernel_);

    ocp::MasterCore::Config mcfg;
    mcfg.max_outstanding = config.max_outstanding;
    masters_.push_back(std::make_unique<ocp::MasterCore>(
        topo_.ni(node).name + "_core", ocp_wires, mcfg));

    ni::InitiatorConfig icfg;
    icfg.format = format_;
    icfg.node_id = node;
    icfg.ocp_req_fifo = mcfg.req_credits;
    icfg.ocp_resp_credits = mcfg.resp_fifo_depth;
    icfg.max_outstanding = config.max_outstanding;
    icfg.flow = config.flow;
    icfg.protocol = ni_protocol;
    auto ni_mod = std::make_unique<ni::InitiatorNi>(
        topo_.ni(node).name, icfg, ocp_wires, ni_in_wires[node].up,
        ni_out_wires[node].down);
    // Program the address decoder: one window per target.
    for (std::size_t t = 0; t < target_ids_.size(); ++t) {
      const std::uint32_t tgt_node = target_ids_[t];
      ni_mod->lut().add_range(
          ni::AddressRange{target_base(t), config.target_window, tgt_node});
      const topology::RouteRef route = routes_.at(node, tgt_node);
      ni_mod->lut().set_route(tgt_node, route.links, {&route.exit, 1});
    }
    initiator_nis_.push_back(std::move(ni_mod));
  }

  for (std::size_t t = 0; t < target_ids_.size(); ++t) {
    const std::uint32_t node = target_ids_[t];
    kernel_.set_creation_partition(ni_part(node));
    const ocp::OcpWires ocp_wires = ocp::OcpWires::make(kernel_);

    ocp::SlaveCore::Config scfg;
    scfg.latency = config.slave_latency;
    scfg.size_bytes = config.target_window;
    slaves_.push_back(std::make_unique<ocp::SlaveCore>(
        topo_.ni(node).name + "_core", ocp_wires, scfg));

    ni::TargetConfig tcfg;
    tcfg.format = format_;
    tcfg.node_id = node;
    tcfg.ocp_req_credits = scfg.req_fifo_depth;
    tcfg.ocp_resp_fifo = scfg.resp_credits;
    tcfg.flow = config.flow;
    tcfg.protocol = ni_protocol;
    auto ni_mod = std::make_unique<ni::TargetNi>(
        topo_.ni(node).name, tcfg, ocp_wires, ni_out_wires[node].down,
        ni_in_wires[node].up);
    for (const std::uint32_t ini_node : initiator_ids_) {
      const topology::RouteRef route = routes_.at(node, ini_node);
      ni_mod->lut().set_route(ini_node, route.links, {&route.exit, 1});
    }
    target_nis_.push_back(std::move(ni_mod));
  }

  // ---- Register everything with the kernel, tagging each module with
  // its partition. Order is irrelevant for two-phase correctness within
  // a class, but the links-after-switches slot is load-bearing for cuts:
  // a cut's sender half samples its upstream wire's *staged* value, so
  // it must tick after every module of its partition that can drive
  // that wire. Each partition's tick list is the order-preserving
  // subsequence of this global order.
  auto add_module_in = [&](sim::Module& m, std::size_t p) {
    kernel_.set_creation_partition(p);
    kernel_.add_module(m);
  };
  for (std::size_t i = 0; i < masters_.size(); ++i) {
    add_module_in(*masters_[i], ni_part(initiator_ids_[i]));
  }
  for (std::size_t i = 0; i < initiator_nis_.size(); ++i) {
    add_module_in(*initiator_nis_[i], ni_part(initiator_ids_[i]));
  }
  for (std::uint32_t s = 0; s < topo_.num_switches(); ++s) {
    add_module_in(*switches_[s], switch_part(s));
  }
  for (std::uint32_t l = 0; l < topo_.num_links(); ++l) {
    const LinkSlot& slot = link_slots_[l];
    if (slot.cut != nullptr) {
      add_module_in(slot.cut->sender_module(),
                    switch_part(topo_.link(l).from));
      add_module_in(slot.cut->receiver_module(),
                    switch_part(topo_.link(l).to));
    } else {
      add_module_in(*slot.pipe, switch_part(topo_.link(l).from));
    }
  }
  for (std::uint32_t n = 0; n < topo_.num_nis(); ++n) {
    const std::size_t base = topo_.num_links() + 2 * n;
    add_module_in(*link_slots_[base].pipe, ni_part(n));
    add_module_in(*link_slots_[base + 1].pipe, ni_part(n));
  }
  for (std::size_t t = 0; t < target_nis_.size(); ++t) {
    add_module_in(*target_nis_[t], ni_part(target_ids_[t]));
  }
  for (std::size_t t = 0; t < slaves_.size(); ++t) {
    add_module_in(*slaves_[t], ni_part(target_ids_[t]));
  }
}

std::vector<Network::LinkStat> Network::link_stats() const {
  std::vector<LinkStat> stats;
  stats.reserve(link_slots_.size());
  for (const LinkSlot& slot : link_slots_) {
    if (slot.cut != nullptr) {
      stats.push_back({slot.cut->name(), slot.cut->flits_carried(),
                       slot.cut->flits_corrupted()});
    } else {
      stats.push_back({slot.pipe->name(), slot.pipe->flits_carried(),
                       slot.pipe->flits_corrupted()});
    }
  }
  return stats;
}

bool Network::quiescent() const {
  for (const auto& m : masters_) {
    if (!m->quiescent()) return false;
  }
  for (const auto& m : initiator_nis_) {
    if (!m->idle()) return false;
  }
  for (const auto& m : target_nis_) {
    if (!m->idle()) return false;
  }
  for (const auto& m : switches_) {
    if (!m->idle()) return false;
  }
  return true;
}

std::uint64_t Network::run_until_quiescent(std::uint64_t max_cycles) {
  return kernel_.run_until([this] { return quiescent(); }, max_cycles);
}

std::uint64_t Network::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& s : switches_) total += s->retransmissions();
  return total;
}

std::uint64_t Network::total_credit_stalls() const {
  const std::uint64_t now = kernel_.cycle();
  std::uint64_t total = 0;
  for (const auto& s : switches_) total += s->credit_stalls(now);
  for (const auto& n : initiator_nis_) total += n->credit_stalls(now);
  for (const auto& n : target_nis_) total += n->credit_stalls(now);
  return total;
}

std::uint64_t Network::total_link_flits() const {
  std::uint64_t total = 0;
  for (const LinkSlot& slot : link_slots_) {
    total += slot.cut != nullptr ? slot.cut->flits_carried()
                                 : slot.pipe->flits_carried();
  }
  return total;
}

}  // namespace xpl::noc
