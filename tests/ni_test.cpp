// Initiator + target NI pair wired back to back: full OCP-to-packet-to-OCP
// round trips without a switch in between.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/ni/ni_initiator.hpp"
#include "src/ni/ni_target.hpp"
#include "src/ocp/agents.hpp"

namespace xpl::ni {
namespace {

PacketFormat test_format(std::size_t flit_width = 32) {
  PacketFormat f;
  f.header.port_bits = 3;
  f.header.max_hops = 4;
  f.header.node_bits = 4;
  f.header.txn_bits = 4;
  f.header.thread_bits = 2;
  f.header.burst_bits = 5;
  f.header.addr_bits = 16;
  f.flit_width = flit_width;
  f.beat_width = 32;
  return f;
}

struct Harness {
  sim::Kernel kernel;
  ocp::OcpWires m_wires;
  ocp::OcpWires s_wires;
  link::LinkWires req_wires;   // initiator -> target
  link::LinkWires resp_wires;  // target -> initiator
  ocp::MasterCore master;
  InitiatorNi ini;
  TargetNi tgt;
  ocp::SlaveCore slave;

  static constexpr std::uint32_t kIniNode = 0;
  static constexpr std::uint32_t kTgtNode = 1;

  explicit Harness(std::size_t flit_width = 32)
      : m_wires(ocp::OcpWires::make(kernel)),
        s_wires(ocp::OcpWires::make(kernel)),
        req_wires(link::LinkWires::make(kernel)),
        resp_wires(link::LinkWires::make(kernel)),
        master("master", m_wires, master_config()),
        ini("ini", ini_config(flit_width), m_wires, req_wires, resp_wires),
        tgt("tgt", tgt_config(flit_width), s_wires, req_wires, resp_wires),
        slave("slave", s_wires, slave_config()) {
    ini.lut().add_range({0x10000, 0x10000, kTgtNode});
    ini.lut().set_route(kTgtNode, Route{0});
    tgt.lut().set_route(kIniNode, Route{0});
    kernel.add_module(master);
    kernel.add_module(ini);
    kernel.add_module(tgt);
    kernel.add_module(slave);
  }

  static ocp::MasterCore::Config master_config() {
    ocp::MasterCore::Config c;
    c.req_credits = 4;  // must equal ini.ocp_req_fifo
    return c;
  }
  static ocp::SlaveCore::Config slave_config() {
    ocp::SlaveCore::Config c;
    c.size_bytes = 1 << 16;
    return c;
  }
  static InitiatorConfig ini_config(std::size_t flit_width) {
    InitiatorConfig c;
    c.format = test_format(flit_width);
    c.node_id = kIniNode;
    c.ocp_req_fifo = 4;
    c.ocp_resp_credits = ocp::MasterCore::Config{}.resp_fifo_depth;
    c.protocol = link::ProtocolConfig::for_link(0);
    return c;
  }
  static TargetConfig tgt_config(std::size_t flit_width) {
    TargetConfig c;
    c.format = test_format(flit_width);
    c.node_id = kTgtNode;
    c.ocp_req_credits = ocp::SlaveCore::Config{}.req_fifo_depth;
    c.ocp_resp_fifo = ocp::SlaveCore::Config{}.resp_credits;
    c.protocol = link::ProtocolConfig::for_link(0);
    return c;
  }

  void run_to_quiescent(std::size_t max_cycles = 5000) {
    kernel.run_until(
        [&] { return master.quiescent() && ini.idle() && tgt.idle(); },
        max_cycles);
  }
};

TEST(NiPair, ReadRoundTrip) {
  Harness h;
  h.slave.poke(0x20, 0xFEEDFACE12345678ull);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = 0x10020;  // window base 0x10000 + offset 0x20
  txn.burst_len = 1;
  h.master.push_transaction(txn);
  h.run_to_quiescent();
  ASSERT_EQ(h.master.completed().size(), 1u);
  const auto& result = h.master.completed()[0];
  EXPECT_EQ(result.resp, ocp::Resp::kDva);
  ASSERT_EQ(result.data.size(), 1u);
  // 32-bit beats truncate the 64-bit word.
  EXPECT_EQ(result.data[0], 0x12345678u);
}

TEST(NiPair, PostedWriteReachesSlave) {
  Harness h;
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kWrite;
  txn.addr = 0x10100;
  txn.burst_len = 1;
  txn.data = {0xAB};
  h.master.push_transaction(txn);
  h.run_to_quiescent();
  h.kernel.run(100);
  EXPECT_EQ(h.slave.peek(0x100), 0xABu);
  EXPECT_EQ(h.ini.packets_sent(), 1u);
  EXPECT_EQ(h.tgt.packets_received(), 1u);
  // Posted writes produce no response packet.
  EXPECT_EQ(h.tgt.packets_sent(), 0u);
}

TEST(NiPair, NonPostedWriteCompletion) {
  Harness h;
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kWriteNp;
  txn.addr = 0x10008;
  txn.burst_len = 1;
  txn.data = {0x77};
  h.master.push_transaction(txn);
  h.run_to_quiescent();
  ASSERT_EQ(h.master.completed().size(), 1u);
  EXPECT_EQ(h.master.completed()[0].resp, ocp::Resp::kDva);
  EXPECT_EQ(h.slave.peek(0x8), 0x77u);
  EXPECT_EQ(h.tgt.packets_sent(), 1u);
}

TEST(NiPair, WriteBurstThenReadBurst) {
  Harness h;
  ocp::Transaction wr;
  wr.cmd = ocp::Cmd::kWrite;
  wr.addr = 0x10200;
  wr.burst_len = 8;
  for (std::uint64_t i = 0; i < 8; ++i) wr.data.push_back(0x100 + i);
  h.master.push_transaction(wr);

  ocp::Transaction rd;
  rd.cmd = ocp::Cmd::kRead;
  rd.addr = 0x10200;
  rd.burst_len = 8;
  h.master.push_transaction(rd);
  h.run_to_quiescent(20000);

  ASSERT_EQ(h.master.completed().size(), 2u);
  const auto& result = h.master.completed()[1];
  ASSERT_EQ(result.data.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.data[i], 0x100 + i) << "beat " << i;
  }
}

TEST(NiPair, LutMissAnswersErrLocally) {
  Harness h;
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = 0xDEAD0000;  // outside every window
  txn.burst_len = 2;
  h.master.push_transaction(txn);
  h.run_to_quiescent();
  ASSERT_EQ(h.master.completed().size(), 1u);
  EXPECT_EQ(h.master.completed()[0].resp, ocp::Resp::kErr);
  EXPECT_EQ(h.ini.packets_sent(), 0u);  // never touched the network
  EXPECT_EQ(h.ini.lut_misses(), 1u);
}

TEST(NiPair, MultipleOutstandingReads) {
  Harness h;
  for (std::uint64_t i = 0; i < 6; ++i) {
    h.slave.poke(0x300 + 8 * i, 0x9000 + i);
    ocp::Transaction txn;
    txn.cmd = ocp::Cmd::kRead;
    txn.addr = 0x10300 + 8 * i;
    txn.burst_len = 1;
    h.master.push_transaction(txn);
  }
  h.run_to_quiescent(20000);
  ASSERT_EQ(h.master.completed().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(h.master.completed()[i].data.size(), 1u);
    EXPECT_EQ(h.master.completed()[i].data[0], 0x9000 + i);
  }
}

TEST(NiPair, ThreadsCarriedThrough) {
  Harness h;
  for (std::uint32_t t = 0; t < 4; ++t) {
    h.slave.poke(0x400 + 8 * t, t);
    ocp::Transaction txn;
    txn.cmd = ocp::Cmd::kRead;
    txn.addr = 0x10400 + 8 * t;
    txn.burst_len = 1;
    txn.thread_id = t;
    h.master.push_transaction(txn);
  }
  h.run_to_quiescent(20000);
  ASSERT_EQ(h.master.completed().size(), 4u);
  for (const auto& result : h.master.completed()) {
    ASSERT_EQ(result.data.size(), 1u);
    EXPECT_EQ(result.data[0], result.thread_id);
  }
}

TEST(NiPair, ThreadIdBeyondTheFieldFailsInPackHeader) {
  // Thread ids index the NIs' per-thread tables (1 << thread_bits = 4
  // slots here). Thread 4 must fail where its header is packed, never
  // index a table, and it must not disturb the transactions on threads
  // 0..3, which drain first.
  Harness h;
  for (std::uint32_t t = 0; t < 4; ++t) {
    ocp::Transaction read;
    read.cmd = ocp::Cmd::kRead;
    read.addr = 0x10400 + 8 * t;
    read.thread_id = t;
    h.master.push_transaction(read);
    ocp::Transaction write = read;
    write.cmd = ocp::Cmd::kWriteNp;
    write.burst_len = 2;
    write.data = {t, t};
    h.master.push_transaction(write);
  }
  // A non-posted burst: its first beat starts the packet, and only the
  // last one packs the header.
  ocp::Transaction bad;
  bad.cmd = ocp::Cmd::kWriteNp;
  bad.addr = 0x10500;
  bad.burst_len = 2;
  bad.data = {1, 2};
  bad.thread_id = 4;
  h.master.push_transaction_at(bad, 2000);
  h.kernel.run_until(
      [&] { return h.master.completed().size() == 8 && h.ini.idle(); },
      2000);
  EXPECT_EQ(h.master.completed().size(), 8u);
  EXPECT_TRUE(h.ini.idle());
  EXPECT_TRUE(h.tgt.idle());
  try {
    h.kernel.run(3000);  // past the release
    FAIL() << "expected xpl::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "pack_header: thread id overflows field");
  }
}

TEST(NiPair, SidebandInterruptPropagates) {
  Harness h;
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kWriteNp;
  txn.addr = 0x10000;
  txn.burst_len = 1;
  txn.data = {1};
  txn.sideband_flag = true;  // slave loops this back as SInterrupt
  h.master.push_transaction(txn);
  h.run_to_quiescent();
  ASSERT_EQ(h.master.completed().size(), 1u);
}

// Paper flit-width sweep end to end through both NIs.
class NiWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NiWidthSweep, ReadWriteAcrossWidths) {
  Harness h(GetParam());
  ocp::Transaction wr;
  wr.cmd = ocp::Cmd::kWrite;
  wr.addr = 0x10500;
  wr.burst_len = 3;
  wr.data = {0xA, 0xB, 0xC};
  h.master.push_transaction(wr);
  ocp::Transaction rd;
  rd.cmd = ocp::Cmd::kRead;
  rd.addr = 0x10500;
  rd.burst_len = 3;
  h.master.push_transaction(rd);
  h.run_to_quiescent(30000);
  ASSERT_EQ(h.master.completed().size(), 2u);
  const auto& result = h.master.completed()[1];
  ASSERT_EQ(result.data.size(), 3u);
  EXPECT_EQ(result.data[0], 0xAu);
  EXPECT_EQ(result.data[1], 0xBu);
  EXPECT_EQ(result.data[2], 0xCu);
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, NiWidthSweep,
                         ::testing::Values<std::size_t>(16, 32, 64, 128));

TEST(NiConfig, ValidationCatchesWideBeats) {
  InitiatorConfig c = Harness::ini_config(32);
  c.format.beat_width = 128;
  EXPECT_THROW(c.validate(), Error);
}

TEST(NiPair, ManyMixedTransactionsDrain) {
  Harness h;
  Rng rng(5);
  int expect_results = 0;
  for (int k = 0; k < 40; ++k) {
    ocp::Transaction txn;
    const auto kind = rng.next_below(3);
    txn.burst_len = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    txn.addr = 0x10000 + 8 * rng.next_below(256);
    txn.thread_id = static_cast<std::uint32_t>(rng.next_below(4));
    if (kind == 0) {
      txn.cmd = ocp::Cmd::kRead;
    } else if (kind == 1) {
      txn.cmd = ocp::Cmd::kWrite;
      txn.data.assign(txn.burst_len, rng.next_u64());
    } else {
      txn.cmd = ocp::Cmd::kWriteNp;
      txn.data.assign(txn.burst_len, rng.next_u64());
    }
    ++expect_results;
    h.master.push_transaction(txn);
  }
  h.run_to_quiescent(100000);
  EXPECT_TRUE(h.master.quiescent());
  EXPECT_EQ(h.master.completed().size(),
            static_cast<std::size_t>(expect_results));
}

}  // namespace
}  // namespace xpl::ni
