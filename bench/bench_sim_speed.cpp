// F10 — simulator performance (google-benchmark).
//
// Not a paper figure: measures the cycle-accurate model itself — kernel
// cycles per second, end-to-end transaction throughput for growing meshes,
// and the per-flit-hop cost of the link protocol path (seal, wire, verify,
// ACK) — so users can size experiments and PRs can track the perf
// trajectory.
//
// The binary counts heap allocations (global operator new override below):
// BM_FlitHop reports allocs_per_hop and *fails* if a flit hop at width
// <= 128 allocates, pinning the BitVector small-buffer guarantee.
//
// Usage:
//   bench_sim_speed [--bench-json BENCH_foo.json] [google-benchmark flags]
//
// --bench-json writes the machine-readable perf record tracked across PRs
// (see README.md "Tracking performance").
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/compiler/compiler.hpp"
#include "src/compiler/spec_io.hpp"
#include "src/link/flow.hpp"
#include "src/link/goback_n.hpp"
#include "src/link/link.hpp"
#include "src/noc/network.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"

// ---------------------------------------------------------------- alloc
// Global allocation counter: every operator new bumps g_allocs. The
// benchmarks read the counter around their hot loops; the counter is
// relaxed-atomic so it costs nothing measurable next to malloc itself.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
// Set by BM_FlitHop when a hop at width <= 128 allocates; main() turns it
// into a nonzero exit. Tracked here (not via the reporter's Run fields)
// because the error/skip reporting API changed across google-benchmark
// 1.7 -> 1.8 and this must build against both.
bool g_flit_hop_alloc_failure = false;
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The replaced operator new above allocates with std::malloc, so
// std::free IS the matched deallocator here — but GCC models a replaced
// operator new as opaque and pairs it with free at every inlined call
// site (-Wmismatched-new-delete false positive under -Werror).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

xpl::noc::NetworkConfig config(std::size_t mesh_side = 2) {
  xpl::noc::NetworkConfig cfg;
  cfg.routing = xpl::topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  // Big meshes have long routes; widen flits so the route field fits the
  // head flit (an 8x8 mesh needs 15 hops x 4 bits).
  if (mesh_side >= 6) cfg.flit_width = 64;
  return cfg;
}

// Loaded simulation throughput, parametrized over the link-level flow
// control (arg 1: 0 = ack_nack, 1 = credit) and, for the saturated
// variant, the virtual-channel count. The moderate-rate variant tracks
// the PR-3 numbers; BM_SaturatedCycles below drives the network into
// back-pressure, where ACK/nACK pays retransmission thrash (every nACKed
// flit re-traverses the link and is re-CRC-checked), credit mode just
// idles the stalled senders, and extra lanes relieve head-of-line
// blocking at the switch inputs.
//
// The mesh:8 rows are the ones bench/pair_gates.txt pairs (and their
// threads>1 twins). They do fixed work: each run warms a fresh network up
// for kGateWarmup cycles outside the timed loop, and the gated rows then
// time a fixed Iterations() count (which google-benchmark appends to
// the row name as /iterations:N), so both sides of a pair simulate the
// same cycles from the same network state. With adaptive counts the two
// sides ran different lengths, and a saturated network's per-cycle cost
// grows with its backlog.
constexpr std::size_t kGateMesh = 8;
constexpr std::size_t kGateWarmup = 1000;
constexpr benchmark::IterationCount kGateCycles = 4000;

void loaded_cycles(benchmark::State& state, double injection_rate,
                   std::size_t vcs, std::size_t partitions = 1,
                   std::size_t sim_threads = 1) {
  using namespace xpl;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto flow = static_cast<link::FlowControl>(state.range(1));
  noc::NetworkConfig cfg = config(n);
  cfg.flow = flow;
  cfg.vcs = vcs;
  cfg.partitions = partitions;
  cfg.sim_threads = sim_threads;
  noc::Network net(
      topology::make_mesh(n, n, topology::NiPlan::uniform(n * n, 1, 1)),
      cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = injection_rate;
  traffic::TrafficDriver driver(net, tcfg);
  if (n == kGateMesh) {
    for (std::size_t c = 0; c < kGateWarmup; ++c) {
      driver.step();
      net.step();
    }
  }
  for (auto _ : state) {
    driver.step();
    net.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(link::flow_control_name(flow));
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    done += net.master(i).completed().size();
  }
  state.counters["txns"] = static_cast<double>(done);
  state.counters["retx"] =
      static_cast<double>(net.total_retransmissions());
  state.counters["credit_stalls"] =
      static_cast<double>(net.total_credit_stalls());
}

// Scheduler selector shared by the scheduler-parametrized benchmarks:
// 0 = full, 2 = time_leap. The numbers are explicit, not the enum's, so
// the row names recorded in BENCH_*.json keep their meaning (1 was the
// since-removed gated scheduler).
xpl::sim::Scheduler sched_from_arg(std::int64_t v) {
  return v == 2 ? xpl::sim::Scheduler::kTimeLeap
                : xpl::sim::Scheduler::kFull;
}

// The time-leap headline: a quiescent network advanced in batched spans,
// where the calendar is empty and every span collapses into one leap.
// The kernel gets kIdleSpan cycles at a time, which is the granularity
// real campaigns use (TrafficDriver::run) and the only one where
// multi-cycle leaps can engage. The full and time-leap rows are
// registered back-to-back and paired within one record
// (time_leap >= 100x full; bench/pair_gates.txt) — same throttle-drift
// rationale as the partitioned twins below.
void BM_IdleCyclesSched(benchmark::State& state) {
  using namespace xpl;
  const auto n = static_cast<std::size_t>(state.range(0));
  noc::NetworkConfig cfg = config(n);
  cfg.scheduler = sched_from_arg(state.range(1));
  noc::Network net(
      topology::make_mesh(n, n, topology::NiPlan::uniform(n * n, 1, 1)),
      cfg);
  constexpr std::size_t kIdleSpan = 1024;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    net.step(kIdleSpan);
    cycles += kIdleSpan;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));  // cycles/s
  state.SetLabel(sim::scheduler_name(cfg.scheduler));
  state.counters["leapt_frac"] =
      cycles > 0 ? static_cast<double>(net.kernel().leapt_cycles()) /
                       static_cast<double>(cycles)
                 : 0.0;
}
BENCHMARK(BM_IdleCyclesSched)
    ->ArgNames({"mesh", "sched"})
    ->Args({8, 0})
    ->Args({8, 2});

// A low-load campaign operating point end to end: the injector runs as
// a schedulable module (TrafficDriver::run hands whole spans to the
// kernel), so between arrivals the network drains, quiesces, and
// time-leap jumps straight to the next injection the calendar announces.
// The rate is a trickle — the saturation-bisection probes below the knee
// and the low end of xsweep rate sweeps — chosen so arrival gaps (~780
// cycles at 64 initiators x rate 2e-5) dwarf the ~60-cycle packet drain:
// leapt_frac lands around 0.92 and the walked cycles that remain are the
// irreducible in-flight ones. tests/timeleap_test.cpp pins the digests,
// this row pins the wall clock: bench/pair_gates.txt pairs the two rows
// within one record at time_leap >= 35x full.
void BM_LowLoadCampaign(benchmark::State& state) {
  using namespace xpl;
  const auto n = static_cast<std::size_t>(state.range(0));
  noc::NetworkConfig cfg = config(n);
  cfg.scheduler = sched_from_arg(state.range(1));
  noc::Network net(
      topology::make_mesh(n, n, topology::NiPlan::uniform(n * n, 1, 1)),
      cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.00002;
  traffic::TrafficDriver driver(net, tcfg);
  constexpr std::size_t kSpan = 512;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    driver.run(kSpan);
    cycles += kSpan;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));  // cycles/s
  state.SetLabel(sim::scheduler_name(cfg.scheduler));
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    done += net.master(i).completed().size();
  }
  state.counters["txns"] = static_cast<double>(done);
  state.counters["awake_frac"] =
      static_cast<double>(net.kernel().awake_count()) /
      static_cast<double>(net.kernel().module_count());
  state.counters["leapt_frac"] =
      cycles > 0 ? static_cast<double>(net.kernel().leapt_cycles()) /
                       static_cast<double>(cycles)
                 : 0.0;
}
BENCHMARK(BM_LowLoadCampaign)
    ->ArgNames({"mesh", "sched"})
    ->Args({8, 0})
    ->Args({8, 2});

void BM_LoadedCycles(benchmark::State& state) {
  loaded_cycles(state, 0.05, /*vcs=*/1);
}
BENCHMARK(BM_LoadedCycles)
    ->ArgNames({"mesh", "flow"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1});
BENCHMARK(BM_LoadedCycles)
    ->ArgNames({"mesh", "flow"})
    ->Iterations(kGateCycles)
    ->Args({8, 0})
    ->Args({8, 1});

// The ACK/nACK datapath on unreliable links — the only row with a nonzero
// bit error rate: every switch-to-switch traversal draws per-bit error
// injection, every hop seals and verifies a CRC, and corrupted flits
// come back through go-back-N retransmission (the `retx` counter).
// Mirrors xbench's noisy_acknack_mesh8 operating point.
void BM_NoisyCycles(benchmark::State& state) {
  using namespace xpl;
  const auto n = static_cast<std::size_t>(state.range(0));
  noc::NetworkConfig cfg = config(n);
  cfg.flow = link::FlowControl::kAckNack;
  cfg.bit_error_rate = 1e-4;
  noc::Network net(
      topology::make_mesh(n, n, topology::NiPlan::uniform(n * n, 1, 1)),
      cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.04;
  traffic::TrafficDriver driver(net, tcfg);
  for (auto _ : state) {
    driver.step();
    net.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["retx"] =
      static_cast<double>(net.total_retransmissions());
}
BENCHMARK(BM_NoisyCycles)->ArgNames({"mesh"})->Arg(8);

// Partitioned twins of the two headline throughput benchmarks at
// threads=1: the pure bookkeeping overhead of the partitioned datapath
// (cut mailboxes, per-partition dirty lists, epoch loop) with zero
// parallel upside. bench_compare pairs each twin against its
// unpartitioned sibling *within one record* (bench/pair_gates.txt: the
// floor is 0.80; the cut should cost less than 10% before threads can
// start paying it back). Registered directly after the
// sibling on purpose: burstable/throttled runners drift 2-3x over
// minutes, so the paired rows must run back-to-back to measure the
// datapath rather than the clock.
void BM_LoadedCyclesPartitioned(benchmark::State& state) {
  loaded_cycles(state, 0.05, /*vcs=*/1,
                static_cast<std::size_t>(state.range(2)),
                static_cast<std::size_t>(state.range(3)));
}
// threads=1 rows stay on the suite's default CPU-time rate: the driving
// thread does all the work, and the unpartitioned siblings they pair
// against report CPU time (mixing clocks would fold the container's
// throttle stalls into one side of the ratio only).
BENCHMARK(BM_LoadedCyclesPartitioned)
    ->ArgNames({"mesh", "flow", "parts", "threads"})
    ->Iterations(kGateCycles)
    ->Args({8, 0, 2, 1})
    ->Args({8, 1, 2, 1});

// threads>1 rows need UseRealTime: the driving thread blocks at the
// epoch barrier while workers simulate, so the default main-thread
// CPU-time rate would overstate cycles/s by ~the thread count.
void BM_LoadedCyclesPartitionedMT(benchmark::State& state) {
  BM_LoadedCyclesPartitioned(state);
}
BENCHMARK(BM_LoadedCyclesPartitionedMT)
    ->ArgNames({"mesh", "flow", "parts", "threads"})
    ->UseRealTime()
    ->Args({8, 1, 2, 2})
    ->Args({8, 1, 4, 4});

void BM_SaturatedCycles(benchmark::State& state) {
  loaded_cycles(state, 0.30, static_cast<std::size_t>(state.range(2)));
}
BENCHMARK(BM_SaturatedCycles)
    ->ArgNames({"mesh", "flow", "vcs"})
    ->Args({4, 0, 1})
    ->Args({4, 0, 2})
    ->Args({4, 0, 4})
    ->Args({4, 1, 1})
    ->Args({4, 1, 2})
    ->Args({4, 1, 4});
BENCHMARK(BM_SaturatedCycles)
    ->ArgNames({"mesh", "flow", "vcs"})
    ->Iterations(kGateCycles)
    ->Args({8, 0, 1})
    ->Args({8, 1, 1});

// Same pairing rule as BM_LoadedCyclesPartitioned above.
void BM_SaturatedCyclesPartitioned(benchmark::State& state) {
  loaded_cycles(state, 0.30, /*vcs=*/1,
                static_cast<std::size_t>(state.range(2)),
                static_cast<std::size_t>(state.range(3)));
}
BENCHMARK(BM_SaturatedCyclesPartitioned)
    ->ArgNames({"mesh", "flow", "parts", "threads"})
    ->Iterations(kGateCycles)
    ->Args({8, 0, 2, 1})
    ->Args({8, 1, 2, 1});

// Time-leap's failure-mode guard: at saturation the network never
// quiesces, leapt_frac pins to ~0, and the active set and calendar must
// cost no more than ticking everything. The two rows are paired within
// one record (time_leap >= 0.95x full; bench/pair_gates.txt — the same
// bounded-overhead shape as the partitioned twins above).
void BM_SaturatedSched(benchmark::State& state) {
  using namespace xpl;
  const auto n = static_cast<std::size_t>(state.range(0));
  noc::NetworkConfig cfg = config(n);
  cfg.flow = link::FlowControl::kCredit;
  cfg.scheduler = sched_from_arg(state.range(1));
  noc::Network net(
      topology::make_mesh(n, n, topology::NiPlan::uniform(n * n, 1, 1)),
      cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.30;
  traffic::TrafficDriver driver(net, tcfg);
  constexpr std::size_t kSpan = 256;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    driver.run(kSpan);
    cycles += kSpan;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));  // cycles/s
  state.SetLabel(sim::scheduler_name(cfg.scheduler));
  state.counters["leapt_frac"] =
      cycles > 0 ? static_cast<double>(net.kernel().leapt_cycles()) /
                       static_cast<double>(cycles)
                 : 0.0;
}
BENCHMARK(BM_SaturatedSched)
    ->ArgNames({"mesh", "sched"})
    ->Args({8, 0})
    ->Args({8, 2});

// The partitioned datapath across shapes and degrees of parallelism:
// cycles/s on mesh 8x8, mesh 16x16, and a concentrated 8x8 mesh (c=4,
// whose 1-stage grid links buy 2-cycle lookahead epochs — half the
// barriers). The `la` arg caps the epoch length (0 = derive from the
// cut); epochs and cross-cut flit volume are reported so regressions can
// be attributed to barrier count vs mailbox traffic.
void BM_PartitionedCycles(benchmark::State& state) {
  using namespace xpl;
  const auto shape = state.range(0);  // 0: mesh8, 1: mesh16, 2: cmesh8x8c4
  const auto parts = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const auto la = static_cast<std::size_t>(state.range(3));
  const std::size_t side = shape == 1 ? 16 : 8;
  noc::NetworkConfig cfg = config(side);
  // A 16x16 mesh routes up to 30 hops x 4 bits: the route field needs a
  // 128-bit head flit (config() only widens to 64 for the 8x8 meshes).
  if (side == 16) cfg.flit_width = 128;
  cfg.partitions = parts;
  cfg.sim_threads = threads;
  cfg.lookahead = la;
  topology::Topology topo =
      shape == 2
          ? topology::make_cmesh(8, 8, 4)
          : topology::make_mesh(side, side,
                                topology::NiPlan::uniform(side * side, 1, 1));
  noc::Network net(std::move(topo), cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.05;
  traffic::TrafficDriver driver(net, tcfg);
  const std::size_t k = std::max<std::size_t>(1, net.kernel().lookahead());
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    driver.run(k);  // one epoch per iteration
    cycles += k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));  // cycles/s
  state.SetLabel(shape == 2 ? "cmesh8x8c4" : (shape == 1 ? "mesh16" : "mesh8"));
  state.counters["lookahead"] = static_cast<double>(k);
  state.counters["epochs"] = static_cast<double>(net.kernel().epochs());
  state.counters["cut_flits_per_kcycle"] =
      cycles > 0 ? 1000.0 * static_cast<double>(net.kernel().cut_flits()) /
                       static_cast<double>(cycles)
                 : 0.0;
}
BENCHMARK(BM_PartitionedCycles)
    ->ArgNames({"shape", "parts", "threads", "la"})
    ->Args({0, 1, 1, 0})
    ->Args({0, 2, 1, 0})
    ->Args({0, 4, 1, 0})
    ->Args({1, 1, 1, 0})
    ->Args({1, 4, 1, 0})
    ->Args({2, 1, 1, 0})
    ->Args({2, 4, 1, 0})
    ->Args({2, 4, 1, 1});

// Same CPU-vs-wall split as the twins above: multi-thread rows report
// wall rates or they would claim ~threads x phantom speedup on this
// 1-core container.
void BM_PartitionedCyclesMT(benchmark::State& state) {
  BM_PartitionedCycles(state);
}
BENCHMARK(BM_PartitionedCyclesMT)
    ->ArgNames({"shape", "parts", "threads", "la"})
    ->UseRealTime()
    ->Args({0, 2, 2, 0})
    ->Args({0, 4, 4, 0})
    ->Args({1, 4, 4, 0})
    ->Args({2, 4, 4, 0})
    ->Args({2, 4, 4, 1});

// Network elaboration as xpipesc and every campaign point pay it: parse
// the .noc text, build_simulation (routes, deadlock check, NI LUTs,
// modules and wires), tear the network down. items = networks;
// allocs_per_route = heap allocations per network over its NI-pair
// routes. Routes live in a few arenas, so what remains is per module
// and the ratio falls as the mesh grows.
void BM_Elaborate(benchmark::State& state) {
  using namespace xpl;
  const auto n = static_cast<std::size_t>(state.range(0));
  compiler::NocSpec spec;
  spec.name = "elaborate";
  spec.topo =
      topology::make_mesh(n, n, topology::NiPlan::uniform(n * n, 1, 1));
  spec.net = config(n);
  // 12x12 and larger meshes route up to 2(n-1)+1 hops x 3 bits.
  if (n >= 12) spec.net.flit_width = 128;
  const std::string text = compiler::write_spec(spec);
  const compiler::XpipesCompiler xpipes;
  const std::uint64_t before = allocs();
  for (auto _ : state) {
    auto net = xpipes.build_simulation(compiler::parse_spec(text));
    benchmark::DoNotOptimize(net.get());
  }
  state.SetItemsProcessed(state.iterations());
  const double routes = 2.0 * static_cast<double>(n * n * n * n);
  state.counters["allocs_per_route"] =
      static_cast<double>(allocs() - before) /
      (static_cast<double>(state.iterations()) * routes);
}
BENCHMARK(BM_Elaborate)
    ->ArgNames({"mesh"})
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The dateline payoff: saturated transaction throughput on a 4x4 torus,
// minimal (shortest-path) routing with dateline VCs against the up*/down*
// single-lane baseline the seed had to fall back to. Minimal routes use
// the torus bisection that up*/down* wastes; the txns counter is the
// comparison (same wall budget => more completed transactions).
void BM_TorusSaturated(benchmark::State& state) {
  using namespace xpl;
  const bool minimal = state.range(0) != 0;
  const auto vcs = static_cast<std::size_t>(state.range(1));
  noc::NetworkConfig cfg;
  cfg.target_window = 1 << 12;
  cfg.routing = minimal ? topology::RoutingAlgorithm::kShortestPath
                        : topology::RoutingAlgorithm::kUpDown;
  cfg.vcs = vcs;
  noc::Network net(
      topology::make_torus(4, 4, topology::NiPlan::uniform(16, 1, 1)),
      cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.30;
  traffic::TrafficDriver driver(net, tcfg);
  for (auto _ : state) {
    driver.step();
    net.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(minimal ? "minimal+dateline" : "updown");
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    done += net.master(i).completed().size();
  }
  state.counters["txns"] = static_cast<double>(done);
  state.counters["txns_per_kcycle"] =
      state.iterations() > 0
          ? 1000.0 * static_cast<double>(done) /
                static_cast<double>(state.iterations())
          : 0.0;
}
BENCHMARK(BM_TorusSaturated)
    ->ArgNames({"minimal", "vcs"})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({1, 4});

void BM_ReadTransaction(benchmark::State& state) {
  using namespace xpl;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
      config());
  std::uint64_t k = 0;
  for (auto _ : state) {
    ocp::Transaction txn;
    txn.cmd = ocp::Cmd::kRead;
    txn.addr = net.target_base(k++ % 4);
    txn.burst_len = 1;
    net.master(0).push_transaction(txn);
    net.run_until_quiescent(10000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadTransaction);

// One flit hop over the full link protocol path. Under ack_nack (arg 1
// == 0): sender seals (CRC) and drives the wire, the kernel commits, the
// receiver verifies and ACKs, the kernel commits the ACK back. Under
// credit (arg 1 == 1) the CRC work disappears and the reverse beat is a
// bare credit return — the per-hop saving reliable links buy. This is
// the innermost unit of work of every simulated link; the allocs_per_hop
// counter must be exactly zero for the paper's whole 16..128-bit flit
// range in *both* protocols (BitVector inline storage plus ring-buffer
// FIFOs), and the benchmark fails if it is not.
void BM_FlitHop(benchmark::State& state) {
  using namespace xpl;
  const auto width = static_cast<std::size_t>(state.range(0));
  const auto flow = static_cast<link::FlowControl>(state.range(1));
  const auto vcs = static_cast<std::size_t>(state.range(2));
  sim::Kernel kernel;
  const link::LinkWires wires = link::LinkWires::make(kernel);
  link::ProtocolConfig proto = link::ProtocolConfig::for_link(0);
  proto.vcs = vcs;
  link::LinkSender tx(flow, wires, proto);
  link::LinkReceiver rx(flow, wires, proto);
  const std::uint32_t take_all = (1u << vcs) - 1;

  BitVector payload(width);
  for (std::size_t i = 0; i < width; i += 3) payload.set(i, true);

  std::uint64_t hops = 0;
  std::uint8_t lane = 0;
  const std::uint64_t allocs_before = allocs();
  for (auto _ : state) {
    tx.begin_cycle(kernel.cycle());
    if (tx.can_accept(lane)) {
      Flit flit(payload, /*head=*/true, /*tail=*/true);
      flit.vc = lane;  // single-flit packets rotate over the lanes
      tx.accept(std::move(flit));
      lane = static_cast<std::uint8_t>((lane + 1) % vcs);
    }
    tx.end_cycle();
    kernel.step();  // flit crosses the wire
    if (auto flit = rx.begin_cycle(take_all)) {
      benchmark::DoNotOptimize(flit->payload);
      ++hops;
    }
    rx.end_cycle();
    kernel.step();  // ACK returns
  }
  const std::uint64_t allocated = allocs() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
  state.SetLabel(link::flow_control_name(flow));
  state.counters["allocs_per_hop"] =
      state.iterations() > 0
          ? static_cast<double>(allocated) /
                static_cast<double>(state.iterations())
          : 0.0;
  if (width <= 128 && allocated > 0) {
    g_flit_hop_alloc_failure = true;
    state.SkipWithError("heap allocation on the flit hop path");
  }
}
BENCHMARK(BM_FlitHop)
    ->ArgNames({"width", "flow", "vcs"})
    ->Args({16, 0, 1})
    ->Args({32, 0, 1})
    ->Args({64, 0, 1})
    ->Args({128, 0, 1})
    ->Args({32, 0, 2})
    ->Args({32, 0, 4})
    ->Args({32, 1, 1})
    ->Args({32, 1, 2})
    ->Args({32, 1, 4})
    ->Args({128, 1, 1});

// ------------------------------------------------------------ reporting
// Display reporter (console or JSON, per --benchmark_format) that also
// captures finished runs so main() can emit the compact BENCH_*.json perf
// record (README.md "Tracking performance") next to the normal output.
template <typename Base>
class CaptureReporter : public Base {
 public:
  using Run = benchmark::BenchmarkReporter::Run;

  explicit CaptureReporter(std::vector<Run>& sink) : sink_(sink) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    sink_.insert(sink_.end(), runs.begin(), runs.end());
    Base::ReportRuns(runs);
  }

 private:
  std::vector<Run>& sink_;
};

bool write_bench_json(const std::string& path,
                      const std::vector<benchmark::BenchmarkReporter::Run>&
                          runs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\"bench\": \"sim_speed\", \"results\": [");
  bool first = true;
  for (const auto& run : runs) {
    double items_per_s = 0.0;
    const auto it = run.counters.find("items_per_second");
    if (it != run.counters.end()) items_per_s = it->second;
    std::fprintf(out, "%s\n  {\"name\": \"%s\", \"items_per_s\": %.1f",
                 first ? "" : ",", run.benchmark_name().c_str(),
                 items_per_s);
    const auto allocs_it = run.counters.find("allocs_per_hop");
    if (allocs_it != run.counters.end()) {
      std::fprintf(out, ", \"allocs_per_hop\": %.3f",
                   static_cast<double>(allocs_it->second));
    }
    // The flow-control / routing comparisons: retransmission vs
    // credit-stall load behind the cycles/s numbers, and the saturated
    // transaction throughput of the torus routing duel.
    for (const char* key : {"retx", "credit_stalls", "txns_per_kcycle",
                            "lookahead", "epochs", "cut_flits_per_kcycle"}) {
      const auto it2 = run.counters.find(key);
      // Aggregate rows (--benchmark_repetitions) can carry NaN counters
      // (the cv of an all-zero counter) — not representable in JSON.
      if (it2 != run.counters.end() &&
          std::isfinite(static_cast<double>(it2->second))) {
        std::fprintf(out, ", \"%s\": %.0f", key,
                     static_cast<double>(it2->second));
      }
    }
    // Scheduler-efficiency fractions (three decimals: these are shares,
    // not counts). Same NaN filter as above: the cv aggregate of an
    // all-zero counter (leapt_frac under full) is 0/0.
    for (const char* key : {"awake_frac", "leapt_frac", "allocs_per_route"}) {
      const auto it3 = run.counters.find(key);
      if (it3 != run.counters.end() &&
          std::isfinite(static_cast<double>(it3->second))) {
        std::fprintf(out, ", \"%s\": %.3f", key,
                     static_cast<double>(it3->second));
      }
    }
    std::fprintf(out, "}");
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --bench-json before google-benchmark parses the rest. The
  // display reporter is ours (it captures runs for --bench-json), so the
  // stdout format is chosen here: google-benchmark ignores
  // --benchmark_format once a display reporter is passed in.
  std::string bench_json;
  std::string format = "console";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-json" && i + 1 < argc) {
      bench_json = argv[++i];
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      bench_json = arg.substr(std::string("--bench-json=").size());
    } else {
      if (arg.rfind("--benchmark_format=", 0) == 0) {
        format = arg.substr(std::string("--benchmark_format=").size());
      }
      args.push_back(argv[i]);
    }
  }
  if (format != "console" && format != "json") {
    std::fprintf(stderr,
                 "bench_sim_speed: --benchmark_format=%s is not supported "
                 "(console or json); for files use --bench-json <file> or "
                 "--benchmark_out=<file> --benchmark_out_format=<format>\n",
                 format.c_str());
    return 2;
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }

  std::vector<benchmark::BenchmarkReporter::Run> runs;
  if (format == "json") {
    CaptureReporter<benchmark::JSONReporter> display(runs);
    benchmark::RunSpecifiedBenchmarks(&display);
  } else {
    CaptureReporter<benchmark::ConsoleReporter> display(runs);
    benchmark::RunSpecifiedBenchmarks(&display);
  }

  bool failed = g_flit_hop_alloc_failure;
  if (failed) {
    std::fprintf(stderr,
                 "FAILED: BM_FlitHop: heap allocation on the flit hop "
                 "path at width <= 128\n");
  }
  if (!bench_json.empty() && !write_bench_json(bench_json, runs)) {
    failed = true;
  }
  benchmark::Shutdown();
  return failed ? 1 : 0;
}
