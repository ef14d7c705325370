// Whole-network simulation assembly.
//
// Network is the simulation view the xpipesCompiler produces: given a
// Topology and a NetworkConfig it derives the packet format, computes the
// routing tables (and checks them for deadlock), instantiates every NI,
// switch and pipelined link, wires them through kernel signals, programs
// the NI LUTs, and attaches an OCP master/slave core to every NI so
// testbenches and benchmarks can drive real transactions end to end.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/link/cut.hpp"
#include "src/link/flow.hpp"
#include "src/link/link.hpp"
#include "src/ni/ni_initiator.hpp"
#include "src/ni/ni_target.hpp"
#include "src/ocp/agents.hpp"
#include "src/sim/kernel.hpp"
#include "src/switchlib/switch.hpp"
#include "src/topology/deadlock.hpp"
#include "src/topology/routing.hpp"
#include "src/topology/topology.hpp"

namespace xpl::noc {

struct NetworkConfig {
  std::size_t flit_width = 32;   ///< paper sweep: 16 / 32 / 64 / 128
  std::size_t beat_width = 32;   ///< OCP data width
  std::size_t max_burst = 16;    ///< longest burst in beats
  std::size_t num_threads = 4;   ///< OCP thread ids
  std::uint64_t target_window = 1ull << 16;  ///< bytes of address space per target

  topology::RoutingAlgorithm routing =
      topology::RoutingAlgorithm::kShortestPath;
  bool require_deadlock_free = true;  ///< throw if routes can deadlock

  /// Virtual channels (lanes) per link. With vcs > 1 every port gets
  /// per-lane buffers and per-lane flow control; minimal routing on
  /// dateline-marked topologies (ring/torus/spidergon generators) then
  /// uses the dateline lane discipline, which the VC-aware deadlock
  /// checker proves cycle-free. vcs == 1 is the seed single-lane
  /// microarchitecture, bit for bit.
  std::size_t vcs = 1;

  switchlib::ArbiterKind arbiter = switchlib::ArbiterKind::kRoundRobin;
  std::size_t input_fifo_depth = 2;
  std::size_t output_fifo_depth = 4;
  /// Per-switch output-queue override (indexed by switch id; 0 = use
  /// output_fifo_depth). Filled by the compiler's buffer-sizing pass —
  /// the paper's per-instance "component optimizations".
  std::vector<std::size_t> output_fifo_override;
  std::size_t extra_switch_pipeline = 0;  ///< 0 = 2-stage lite switch

  /// Link-level flow control on every port. kCredit assumes reliable
  /// links and therefore requires bit_error_rate == 0 — the paper's
  /// ACK/nACK protocol exists precisely because its links may corrupt
  /// flits in flight (see DESIGN.md "Flow control").
  link::FlowControl flow = link::FlowControl::kAckNack;
  CrcKind crc = CrcKind::kCrc8;
  double bit_error_rate = 0.0;  ///< on switch-to-switch links only
  std::uint64_t seed = 1;

  std::size_t max_outstanding = 8;   ///< per initiator NI
  std::uint32_t slave_latency = 2;   ///< target core service latency

  /// Kernel scheduling policy. kTimeLeap (the default) skips quiescent
  /// modules and cycle gaps and is proven bit-exact against the kFull
  /// reference by the differential harness (tests/kernel_equiv_test.cpp);
  /// kFull is for cross-checking a suspected divergence (DESIGN.md §2).
  sim::Scheduler scheduler = sim::Scheduler::kTimeLeap;

  /// Partitioned execution (DESIGN.md §10): split the network into this
  /// many switch groups that simulate concurrently, exchanging link
  /// traffic at conservative-window barriers. Clamped to the switch
  /// count; 1 = the classic single-partition kernel. Results are
  /// byte-identical at any partition and thread count.
  std::size_t partitions = 1;
  /// Worker threads driving the partitions (clamped to partitions;
  /// meaningless unless partitions > 1). sim_threads == 1 runs the
  /// partitions serially — still epoch-batched, which is the cache-
  /// locality configuration for large single-threaded networks.
  std::size_t sim_threads = 1;
  /// Conservative window override in cycles: 0 = auto, the safe maximum
  /// 1 + min(stages) over the cut links; nonzero values are capped at
  /// that maximum.
  std::size_t lookahead = 0;
};

class Network {
 public:
  Network(topology::Topology topo, const NetworkConfig& config);

  sim::Kernel& kernel() { return kernel_; }
  const topology::Topology& topo() const { return topo_; }
  const NetworkConfig& config() const { return config_; }
  const PacketFormat& format() const { return format_; }
  const topology::RoutingTables& routes() const { return routes_; }
  const topology::DeadlockReport& deadlock_report() const {
    return deadlock_;
  }

  std::size_t num_initiators() const { return initiator_nis_.size(); }
  std::size_t num_targets() const { return target_nis_.size(); }
  std::size_t num_switches() const { return switches_.size(); }

  /// Indexed by position among initiators (not global NI id).
  ocp::MasterCore& master(std::size_t i) { return *masters_.at(i); }
  ni::InitiatorNi& initiator_ni(std::size_t i) {
    return *initiator_nis_.at(i);
  }
  const ni::InitiatorNi& initiator_ni(std::size_t i) const {
    return *initiator_nis_.at(i);
  }
  /// Indexed by position among targets.
  ocp::SlaveCore& slave(std::size_t i) { return *slaves_.at(i); }
  ni::TargetNi& target_ni(std::size_t i) { return *target_nis_.at(i); }
  const ni::TargetNi& target_ni(std::size_t i) const {
    return *target_nis_.at(i);
  }

  switchlib::Switch& switch_at(std::size_t s) { return *switches_.at(s); }
  const switchlib::Switch& switch_at(std::size_t s) const {
    return *switches_.at(s);
  }
  /// Links cut at partition boundaries (empty when partitions == 1).
  const std::vector<std::unique_ptr<link::CutLink>>& cut_links() const {
    return cut_links_;
  }

  /// One row per link — cut or uncut — in creation order (topology links
  /// by id, then NI attachment links). The uniform statistics view: the
  /// same network yields the same rows at any partition count.
  struct LinkStat {
    std::string name;
    std::uint64_t flits_carried = 0;
    std::uint64_t flits_corrupted = 0;
  };
  std::vector<LinkStat> link_stats() const;
  /// Total link count including cut links; the utilization denominator.
  std::size_t num_links() const { return link_slots_.size(); }

  /// Partition ids indexed by switch id (all zero when partitions == 1).
  const std::vector<std::uint32_t>& switch_partitions() const {
    return switch_partition_;
  }

  /// Global NI id of initiator/target index (for LUT/route queries).
  std::uint32_t initiator_node_id(std::size_t i) const {
    return initiator_ids_.at(i);
  }
  std::uint32_t target_node_id(std::size_t i) const {
    return target_ids_.at(i);
  }

  /// First byte address of target index `t`'s window in the global map.
  std::uint64_t target_base(std::size_t t) const {
    return static_cast<std::uint64_t>(t) * config_.target_window;
  }

  void step(std::size_t cycles = 1) { kernel_.run(cycles); }

  /// True once every master, NI and switch has drained.
  bool quiescent() const;

  /// Steps until quiescent or `max_cycles`; returns cycles stepped.
  std::uint64_t run_until_quiescent(std::uint64_t max_cycles);

  /// Sum of retransmissions over all switch and NI senders.
  std::uint64_t total_retransmissions() const;
  /// Sum of credit-stall cycles over all switch and NI senders (0 unless
  /// config().flow == kCredit).
  std::uint64_t total_credit_stalls() const;
  /// Sum of flits carried over all links.
  std::uint64_t total_link_flits() const;

 private:
  topology::Topology topo_;
  NetworkConfig config_;
  PacketFormat format_;
  topology::RoutingTables routes_;
  topology::DeadlockReport deadlock_;

  sim::Kernel kernel_;
  std::vector<std::uint32_t> initiator_ids_;
  std::vector<std::uint32_t> target_ids_;

  /// Creation-order link index: exactly one of {pipe, cut} per row.
  struct LinkSlot {
    link::PipelinedLink* pipe = nullptr;
    link::CutLink* cut = nullptr;
  };

  std::vector<std::uint32_t> switch_partition_;
  std::vector<LinkSlot> link_slots_;

  std::vector<std::unique_ptr<switchlib::Switch>> switches_;
  std::vector<std::unique_ptr<link::PipelinedLink>> links_;
  std::vector<std::unique_ptr<link::CutLink>> cut_links_;
  std::vector<std::unique_ptr<ni::InitiatorNi>> initiator_nis_;
  std::vector<std::unique_ptr<ni::TargetNi>> target_nis_;
  std::vector<std::unique_ptr<ocp::MasterCore>> masters_;
  std::vector<std::unique_ptr<ocp::SlaveCore>> slaves_;
};

}  // namespace xpl::noc
