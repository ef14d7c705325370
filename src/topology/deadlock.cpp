#include "src/topology/deadlock.hpp"

#include <algorithm>
#include <sstream>

namespace xpl::topology {

VcPolicy make_vc_policy(const Topology& topo, RoutingAlgorithm routing,
                        std::size_t vcs) {
  VcPolicy policy;
  policy.vcs = vcs;
  policy.dateline = vcs > 1 &&
                    routing == RoutingAlgorithm::kShortestPath &&
                    topo.has_datelines();
  return policy;
}

std::string DeadlockReport::to_string(const Topology& topo) const {
  if (deadlock_free) return "deadlock-free";
  std::ostringstream os;
  os << "channel-dependency cycle:";
  for (const Channel& c : cycle) {
    const Link& link = topo.link(c.link);
    os << " " << topo.switch_node(link.from).name << "->"
       << topo.switch_node(link.to).name;
    if (c.vc != 0) os << "@vc" << int(c.vc);
  }
  return os.str();
}

DeadlockReport check_deadlock(const Topology& topo,
                              const RoutingTables& tables,
                              const VcPolicy& policy) {
  require(policy.vcs >= 1, "check_deadlock: vcs must be >= 1");
  // Dependency edges between channel ids (link * vcs + lane): a route
  // traversing l1 on lane v1 and then l2 on lane v2 adds
  // (l1,v1) -> (l2,v2). A route's edges and lanes depend only on its
  // switch path (the exit hop to the NI is no channel), so each distinct
  // path is walked once; the adjacency lists are sorted and deduplicated
  // below, so the graph is the one every NI-pair route would build.
  const std::size_t vcs = policy.vcs;
  const std::size_t n = topo.num_links() * vcs;
  std::vector<std::vector<std::uint32_t>> deps(n);
  auto channel = [vcs](std::uint32_t link, std::uint8_t vc) {
    return static_cast<std::uint32_t>(link * vcs + vc);
  };

  tables.for_each_path([&](std::uint32_t from_sw, std::uint32_t,
                           std::span<const std::uint8_t> links) {
    std::uint32_t cur = from_sw;
    std::int64_t prev_link = -1;
    std::uint8_t prev_vc = 0;
    for (const std::uint8_t selector : links) {
      const auto& ports = topo.output_ports(cur);
      require(selector < ports.size(), "check_deadlock: bad selector");
      const std::uint32_t link = ports[selector].id;
      if (policy.dateline) {
        // Lanes follow the dateline walk.
        const std::uint8_t vc =
            dateline_step(topo, prev_link, link, prev_vc, vcs);
        if (prev_link >= 0) {
          deps[channel(static_cast<std::uint32_t>(prev_link), prev_vc)]
              .push_back(channel(link, vc));
        }
        prev_vc = vc;
      } else if (prev_link >= 0) {
        // The initiator-chosen lane is held for the whole route, and
        // round-robin assignment makes every initial lane reachable: vcs
        // parallel copies of the dependency chain.
        for (std::size_t lane = 0; lane < vcs; ++lane) {
          const auto vc = static_cast<std::uint8_t>(lane);
          deps[channel(static_cast<std::uint32_t>(prev_link), vc)]
              .push_back(channel(link, vc));
        }
      }
      prev_link = link;
      cur = topo.link(link).to;
    }
  });
  for (auto& d : deps) {
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }

  // Iterative DFS cycle detection with path recovery.
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<std::int64_t> parent(n, -1);

  for (std::uint32_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    // Stack of (node, next-child-index).
    std::vector<std::pair<std::uint32_t, std::size_t>> stack{{root, 0}};
    color[root] = kGrey;
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      if (child < deps[node].size()) {
        const std::uint32_t next = deps[node][child++];
        if (color[next] == kGrey) {
          // Found a cycle: walk back from `node` to `next`.
          DeadlockReport report;
          report.deadlock_free = false;
          auto to_channel = [vcs](std::uint32_t id) {
            return Channel{static_cast<std::uint32_t>(id / vcs),
                           static_cast<std::uint8_t>(id % vcs)};
          };
          report.cycle.push_back(to_channel(next));
          for (std::uint32_t s = node; s != next;) {
            report.cycle.push_back(to_channel(s));
            XPL_ASSERT(parent[s] >= 0);
            s = static_cast<std::uint32_t>(parent[s]);
          }
          std::reverse(report.cycle.begin(), report.cycle.end());
          return report;
        }
        if (color[next] == kWhite) {
          color[next] = kGrey;
          parent[next] = node;
          stack.emplace_back(next, 0);
        }
      } else {
        color[node] = kBlack;
        stack.pop_back();
      }
    }
  }
  return DeadlockReport{};
}

}  // namespace xpl::topology
