// Network topology description.
//
// A topology is a set of switches joined by directed pipelined links, with
// network interfaces attached to switch ports. This is the input half of
// the xpipesCompiler's NoC specification: the paper's flow instantiates
// arbitrary application-specific ("custom, domain-specific") topologies as
// well as regular ones from a topology library (generators.hpp).
//
// Port numbering is deterministic and derived from insertion order — the
// same rule the compiler uses when it emits the synthesis view — so source
// routes computed here are valid for both the simulation and the generated
// hardware:
//   switch inputs:  [incoming links, in insertion order][attached NIs]
//   switch outputs: [outgoing links, in insertion order][attached NIs]
//
// Both lists are kept per switch and updated by every mutation (add_link,
// attach_*), so a port query is a reference to a stored vector rather
// than a scan of every link and NI. The index is maintained eagerly, not
// filled on first read, because one const Topology is read concurrently
// by sweep workers; nothing can rewire a link behind it (only a link's
// pipeline depth is mutable after insertion).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace xpl::topology {

/// What a switch port connects to.
struct PortRef {
  enum class Kind : std::uint8_t { kLink, kNi };
  Kind kind = Kind::kLink;
  std::uint32_t id = 0;  ///< link id or NI id

  bool operator==(const PortRef&) const = default;
};

struct SwitchNode {
  std::string name;
  /// Grid coordinates when generated by make_mesh/make_torus (used by
  /// dimension-order routing); -1 otherwise.
  int x = -1;
  int y = -1;
};

struct Link {
  std::uint32_t from = 0;  ///< source switch
  std::uint32_t to = 0;    ///< destination switch
  std::size_t stages = 0;  ///< relay registers (pipelined wire length)
  /// Virtual-channel routing annotations (generators.hpp sets them for
  /// topologies whose minimal routes need dateline lanes; both are inert
  /// unless the network routes minimally with vcs > 1):
  ///  * vc_class — routing phase of the link. Minimal routes traverse
  ///    links in non-decreasing class order (torus: x links before y
  ///    links, spidergon: cross links before ring links), and a packet's
  ///    lane resets to 0 whenever the class changes.
  ///  * dateline — crossing this link bumps the packet to the next lane,
  ///    breaking the channel-dependency cycle of the ring it closes.
  std::uint8_t vc_class = 0;
  bool dateline = false;
};

struct NiNode {
  std::string name;
  std::uint32_t switch_id = 0;
  bool initiator = true;  ///< initiator NI (master side) vs target NI
};

class Topology {
 public:
  /// Adds a switch; returns its id.
  std::uint32_t add_switch(std::string name = "");

  /// Adds a directed link; returns its id.
  std::uint32_t add_link(std::uint32_t from, std::uint32_t to,
                         std::size_t stages = 0, std::uint8_t vc_class = 0,
                         bool dateline = false);

  /// Adds links in both directions with the same pipeline depth (and the
  /// same VC routing annotations).
  void add_duplex(std::uint32_t a, std::uint32_t b, std::size_t stages = 0,
                  std::uint8_t vc_class = 0, bool dateline = false);

  /// True if any link carries a dateline mark (the trigger for dateline
  /// lane assignment under minimal routing with vcs > 1).
  bool has_datelines() const;

  /// Attaches an initiator/target NI to a switch; returns the NI id.
  /// NI ids are global across both kinds (they share the node id space of
  /// the packet header's src/dst fields).
  std::uint32_t attach_initiator(std::uint32_t switch_id,
                                 std::string name = "");
  std::uint32_t attach_target(std::uint32_t switch_id, std::string name = "");

  std::size_t num_switches() const { return switches_.size(); }
  std::size_t num_links() const { return links_.size(); }
  std::size_t num_nis() const { return nis_.size(); }

  const SwitchNode& switch_node(std::uint32_t id) const;
  SwitchNode& switch_node(std::uint32_t id);
  const Link& link(std::uint32_t id) const;
  /// Post-construction pipeline depth of a link (floorplan-derived relay
  /// stages); endpoints and VC annotations are fixed at insertion.
  void set_link_stages(std::uint32_t id, std::size_t stages);
  const NiNode& ni(std::uint32_t id) const;

  std::vector<std::uint32_t> initiator_ids() const;
  std::vector<std::uint32_t> target_ids() const;

  /// Ordered input/output port lists of a switch (see file comment).
  const std::vector<PortRef>& input_ports(std::uint32_t switch_id) const;
  const std::vector<PortRef>& output_ports(std::uint32_t switch_id) const;

  /// Port index of `ref` on the switch, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t input_index(std::uint32_t switch_id, const PortRef& ref) const;
  std::size_t output_index(std::uint32_t switch_id, const PortRef& ref) const;

  /// Largest input/output port count over all switches.
  std::size_t max_radix_in() const;
  std::size_t max_radix_out() const;

  /// Checks structural sanity (every NI reachable, ids valid); throws
  /// xpl::Error with a description otherwise.
  void validate() const;

 private:
  std::vector<SwitchNode> switches_;
  std::vector<Link> links_;
  std::vector<NiNode> nis_;
  /// Port lists per switch id, in port order (see file comment).
  std::vector<std::vector<PortRef>> in_ports_;
  std::vector<std::vector<PortRef>> out_ports_;
};

}  // namespace xpl::topology
