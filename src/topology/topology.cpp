#include "src/topology/topology.hpp"

#include <algorithm>

namespace xpl::topology {

namespace {

// Link ports precede NI ports, and link ids only grow, so a new link's
// port goes after the switch's last link port.
void insert_link_port(std::vector<PortRef>& ports, std::uint32_t link) {
  const auto first_ni =
      std::find_if(ports.begin(), ports.end(), [](const PortRef& p) {
        return p.kind == PortRef::Kind::kNi;
      });
  ports.insert(first_ni, PortRef{PortRef::Kind::kLink, link});
}

}  // namespace

std::uint32_t Topology::add_switch(std::string name) {
  const auto id = static_cast<std::uint32_t>(switches_.size());
  if (name.empty()) name = "sw" + std::to_string(id);
  switches_.push_back(SwitchNode{std::move(name), -1, -1});
  in_ports_.emplace_back();
  out_ports_.emplace_back();
  return id;
}

std::uint32_t Topology::add_link(std::uint32_t from, std::uint32_t to,
                                 std::size_t stages, std::uint8_t vc_class,
                                 bool dateline) {
  require(from < switches_.size() && to < switches_.size(),
          "Topology::add_link: switch id out of range");
  require(from != to, "Topology::add_link: self-loops are not allowed");
  const auto id = static_cast<std::uint32_t>(links_.size());
  links_.push_back(Link{from, to, stages, vc_class, dateline});
  insert_link_port(out_ports_[from], id);
  insert_link_port(in_ports_[to], id);
  return id;
}

void Topology::add_duplex(std::uint32_t a, std::uint32_t b,
                          std::size_t stages, std::uint8_t vc_class,
                          bool dateline) {
  add_link(a, b, stages, vc_class, dateline);
  add_link(b, a, stages, vc_class, dateline);
}

bool Topology::has_datelines() const {
  for (const Link& l : links_) {
    if (l.dateline) return true;
  }
  return false;
}

std::uint32_t Topology::attach_initiator(std::uint32_t switch_id,
                                         std::string name) {
  require(switch_id < switches_.size(),
          "Topology::attach_initiator: switch id out of range");
  const auto id = static_cast<std::uint32_t>(nis_.size());
  if (name.empty()) name = "ini" + std::to_string(id);
  nis_.push_back(NiNode{std::move(name), switch_id, /*initiator=*/true});
  in_ports_[switch_id].push_back(PortRef{PortRef::Kind::kNi, id});
  out_ports_[switch_id].push_back(PortRef{PortRef::Kind::kNi, id});
  return id;
}

std::uint32_t Topology::attach_target(std::uint32_t switch_id,
                                      std::string name) {
  require(switch_id < switches_.size(),
          "Topology::attach_target: switch id out of range");
  const auto id = static_cast<std::uint32_t>(nis_.size());
  if (name.empty()) name = "tgt" + std::to_string(id);
  nis_.push_back(NiNode{std::move(name), switch_id, /*initiator=*/false});
  in_ports_[switch_id].push_back(PortRef{PortRef::Kind::kNi, id});
  out_ports_[switch_id].push_back(PortRef{PortRef::Kind::kNi, id});
  return id;
}

const SwitchNode& Topology::switch_node(std::uint32_t id) const {
  require(id < switches_.size(), "Topology: switch id out of range");
  return switches_[id];
}

SwitchNode& Topology::switch_node(std::uint32_t id) {
  require(id < switches_.size(), "Topology: switch id out of range");
  return switches_[id];
}

const Link& Topology::link(std::uint32_t id) const {
  require(id < links_.size(), "Topology: link id out of range");
  return links_[id];
}

void Topology::set_link_stages(std::uint32_t id, std::size_t stages) {
  require(id < links_.size(), "Topology: link id out of range");
  links_[id].stages = stages;
}

const NiNode& Topology::ni(std::uint32_t id) const {
  require(id < nis_.size(), "Topology: NI id out of range");
  return nis_[id];
}

std::vector<std::uint32_t> Topology::initiator_ids() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < nis_.size(); ++i) {
    if (nis_[i].initiator) out.push_back(i);
  }
  return out;
}

std::vector<std::uint32_t> Topology::target_ids() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < nis_.size(); ++i) {
    if (!nis_[i].initiator) out.push_back(i);
  }
  return out;
}

const std::vector<PortRef>& Topology::input_ports(
    std::uint32_t switch_id) const {
  require(switch_id < switches_.size(), "Topology: switch id out of range");
  return in_ports_[switch_id];
}

const std::vector<PortRef>& Topology::output_ports(
    std::uint32_t switch_id) const {
  require(switch_id < switches_.size(), "Topology: switch id out of range");
  return out_ports_[switch_id];
}

std::size_t Topology::input_index(std::uint32_t switch_id,
                                  const PortRef& ref) const {
  const auto& ports = input_ports(switch_id);
  const auto it = std::find(ports.begin(), ports.end(), ref);
  return it == ports.end() ? npos
                           : static_cast<std::size_t>(it - ports.begin());
}

std::size_t Topology::output_index(std::uint32_t switch_id,
                                   const PortRef& ref) const {
  const auto& ports = output_ports(switch_id);
  const auto it = std::find(ports.begin(), ports.end(), ref);
  return it == ports.end() ? npos
                           : static_cast<std::size_t>(it - ports.begin());
}

std::size_t Topology::max_radix_in() const {
  std::size_t radix = 0;
  for (const auto& ports : in_ports_) radix = std::max(radix, ports.size());
  return radix;
}

std::size_t Topology::max_radix_out() const {
  std::size_t radix = 0;
  for (const auto& ports : out_ports_) radix = std::max(radix, ports.size());
  return radix;
}

void Topology::validate() const {
  require(!switches_.empty(), "Topology: no switches");
  require(!nis_.empty(), "Topology: no network interfaces");
  // Messages are built only on failure: a passing check costs no string.
  for (std::uint32_t s = 0; s < switches_.size(); ++s) {
    if (in_ports_[s].empty() || out_ports_[s].empty()) {
      throw Error("Topology: switch " + switches_[s].name +
                  " has unused ports");
    }
  }
  // Reachability of every switch from every NI's switch (strong
  // connectivity over the link graph) guarantees routes exist. One
  // search per start switch over the out-port index: O(S * (S + L)).
  const std::size_t n = switches_.size();
  for (std::uint32_t start = 0; start < n; ++start) {
    std::vector<bool> seen(n, false);
    std::vector<std::uint32_t> stack{start};
    seen[start] = true;
    while (!stack.empty()) {
      const std::uint32_t s = stack.back();
      stack.pop_back();
      for (const PortRef& port : out_ports_[s]) {
        if (port.kind != PortRef::Kind::kLink) continue;
        const std::uint32_t to = links_[port.id].to;
        if (!seen[to]) {
          seen[to] = true;
          stack.push_back(to);
        }
      }
    }
    if (n > 1) {
      for (std::uint32_t t = 0; t < n; ++t) {
        if (!seen[t]) {
          throw Error("Topology: switch " + switches_[t].name +
                      " unreachable from " + switches_[start].name);
        }
      }
    }
  }
}

}  // namespace xpl::topology
