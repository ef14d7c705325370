#include "src/ocp/agents.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/text.hpp"

namespace xpl::ocp {

MasterCore::MasterCore(std::string name, const OcpWires& wires,
                       const Config& config)
    : sim::Module(std::move(name)),
      config_(config),
      req_(wires.req, config.req_credits),
      resp_(wires.resp, config.resp_fifo_depth) {
  req_.watch(*this);   // request credits returned by the NI/slave
  resp_.watch(*this);  // response beats
}

void MasterCore::push_transaction(Transaction txn) {
  push_transaction_at(std::move(txn), 0);
}

void MasterCore::push_transaction_at(Transaction txn,
                                     std::uint64_t release) {
  if (txn.cmd != Cmd::kRead) {
    require(txn.data.size() == txn.burst_len,
            "MasterCore: write burst_len must match data beats");
  }
  require(txn.burst_len >= 1, "MasterCore: burst_len must be >= 1");
  if (txn.thread_id >= text::kMaxOcpThreads) {
    throw Error("MasterCore: thread_id must be below " +
                std::to_string(text::kMaxOcpThreads));
  }
  if (on_push) on_push(txn, release);
  queue_.push_back({std::move(txn), release});
  // External injection: no signal write re-arms a sleeping master, so the
  // push itself must (wake-hazard regression: tests/wake_hazard_test.cpp).
  // A future release parks the master on the calendar until it arrives
  // (next_event); pre-release ticks change nothing.
  wake();
}

bool MasterCore::quiescent() const {
  return queue_.empty() && !active_.has_value() && awaiting_total_ == 0;
}

std::uint64_t MasterCore::next_event(std::uint64_t now) const {
  if (active_.has_value() || !resp_.empty() || !req_.gate_idle() ||
      !resp_.gate_idle()) {
    return now + 1;
  }
  // awaiting_ is sleepable: the response beat that advances it wakes us.
  if (queue_.empty()) return sim::kNever;
  // Pre-release ticks change nothing (the issue gate tests release
  // against the cycle), so the queued head's release is the next event.
  // A released head that did not issue is blocked on the outstanding
  // limit: only a response beat can free a slot, and that wakes us.
  const std::uint64_t release = queue_.front().release;
  return release > now ? release : sim::kNever;
}

void MasterCore::tick(sim::Kernel& kernel) {
  req_.begin_cycle();
  resp_.begin_cycle();

  // Response side: accumulate beats into the oldest pending transaction of
  // the response's thread (OCP responses are in order per thread).
  while (!resp_.empty()) {
    const RespBeat beat = resp_.front();
    resp_.pop();
    XPL_ASSERT(beat.valid);
    XPL_ASSERT(beat.thread_id < awaiting_.size() &&
               !awaiting_[beat.thread_id].empty());
    Ring<Pending>& thread = awaiting_[beat.thread_id];
    Pending& pending = thread.front();
    pending.result.resp = beat.resp;
    pending.result.thread_id = beat.thread_id;
    if (pending.txn.cmd == Cmd::kRead) {
      pending.result.data.push_back(beat.data);
    }
    if (beat.last) {
      pending.result.issue_cycle = pending.issue_cycle;
      pending.result.complete_cycle = kernel.cycle();
      completed_.push_back(std::move(pending.result));
      thread.pop_front();
      --awaiting_total_;
    }
  }

  // Request side: start the next transaction if allowed. The release
  // gate makes pre-rolled injections (lookahead epochs) issue on the
  // same cycle a per-cycle push schedule would.
  if (!active_.has_value() && !queue_.empty() &&
      queue_.front().release <= kernel.cycle()) {
    const Transaction& next = queue_.front().txn;
    const bool needs_slot = next.expects_response();
    if (!needs_slot || awaiting_total_ < config_.max_outstanding) {
      active_ = std::move(queue_.front().txn);
      queue_.pop_front();
      next_beat_ = 0;
      active_issue_cycle_ = kernel.cycle();
    }
  }

  // Stream one beat per cycle.
  if (active_.has_value() && req_.can_send()) {
    const Transaction& txn = *active_;
    ReqBeat beat;
    beat.valid = true;
    beat.cmd = txn.cmd;
    beat.addr = txn.addr;
    beat.burst_len = txn.burst_len;
    beat.burst_seq = txn.burst_seq;
    beat.beat_index = next_beat_;
    beat.thread_id = txn.thread_id;
    beat.sideband_flag = txn.sideband_flag;
    if (txn.cmd != Cmd::kRead) {
      beat.data = txn.data[next_beat_];
    }
    req_.send(beat);
    ++next_beat_;

    const std::uint32_t req_beats =
        (txn.cmd == Cmd::kRead) ? 1 : txn.burst_len;
    if (next_beat_ == req_beats) {
      ++issued_count_;
      if (txn.expects_response()) {
        Pending pending;
        pending.txn = txn;
        pending.issue_cycle = active_issue_cycle_;
        if (txn.thread_id >= awaiting_.size()) {
          awaiting_.resize(txn.thread_id + 1);
        }
        awaiting_[txn.thread_id].push_back(std::move(pending));
        ++awaiting_total_;
      } else {
        // Posted write: complete at issue.
        TransactionResult result;
        result.resp = Resp::kDva;
        result.thread_id = txn.thread_id;
        result.issue_cycle = active_issue_cycle_;
        result.complete_cycle = kernel.cycle();
        completed_.push_back(std::move(result));
      }
      active_.reset();
    }
  }

  req_.end_cycle();
  resp_.end_cycle();
}

SlaveCore::SlaveCore(std::string name, const OcpWires& wires,
                     const Config& config)
    : sim::Module(std::move(name)),
      config_(config),
      req_(wires.req, config.req_fifo_depth),
      resp_(wires.resp, config.resp_credits) {
  req_.watch(*this);   // request beats
  resp_.watch(*this);  // response credits returned by the NI/master
}

std::uint64_t SlaveCore::next_event(std::uint64_t now) const {
  // collecting_/responding_ are kept awake conservatively — both are
  // short-lived and always adjacent to wire activity.
  if (!req_.empty() || collecting_.has_value() || responding_.has_value() ||
      !req_.gate_idle() || !resp_.gate_idle()) {
    return now + 1;
  }
  if (jobs_.empty()) return sim::kNever;
  // Ticks before the front job's ready_cycle are no-ops (the promotion
  // gate tests it against the cycle); the service window is the wait.
  return std::max<std::uint64_t>(jobs_.front().ready_cycle, now + 1);
}

std::uint64_t SlaveCore::peek(std::uint64_t addr) const {
  auto it = memory_.find(addr / 8);
  return it == memory_.end() ? 0 : it->second;
}

void SlaveCore::poke(std::uint64_t addr, std::uint64_t value) {
  memory_[addr / 8] = value;
}

std::uint64_t SlaveCore::beat_address(const Job& job, std::uint32_t beat) {
  switch (job.burst_seq) {
    case BurstSeq::kIncr:
      return job.addr + 8ull * beat;
    case BurstSeq::kWrap: {
      // OCP WRAP: advance within the naturally aligned burst-sized block.
      const std::uint64_t block = 8ull * job.burst_len;
      const std::uint64_t base = job.addr & ~(block - 1);
      return base + (job.addr - base + 8ull * beat) % block;
    }
    case BurstSeq::kStream:
      return job.addr;
  }
  return job.addr;
}

void SlaveCore::tick(sim::Kernel& kernel) {
  req_.begin_cycle();
  resp_.begin_cycle();

  // Collect request beats into whole jobs.
  while (!req_.empty()) {
    const ReqBeat beat = req_.front();
    req_.pop();
    XPL_ASSERT(beat.valid);
    if (!collecting_.has_value()) {
      XPL_ASSERT(beat.beat_index == 0);
      Job job;
      job.cmd = beat.cmd;
      job.addr = beat.addr;
      job.burst_len = beat.burst_len;
      job.burst_seq = beat.burst_seq;
      job.thread_id = beat.thread_id;
      job.sideband = beat.sideband_flag;
      collecting_ = std::move(job);
    }
    Job& job = *collecting_;
    if (beat.cmd != Cmd::kRead) {
      job.data.push_back(beat.data);
    }
    const std::uint32_t req_beats =
        (job.cmd == Cmd::kRead) ? 1 : job.burst_len;
    const std::uint32_t have =
        (job.cmd == Cmd::kRead) ? 1 : static_cast<std::uint32_t>(job.data.size());
    if (have == req_beats) {
      job.ready_cycle = kernel.cycle() + config_.latency;
      // Execute writes immediately (memory is the architectural state).
      if (job.cmd != Cmd::kRead) {
        for (std::uint32_t i = 0; i < job.burst_len; ++i) {
          const std::uint64_t addr = beat_address(job, i);
          if (addr < config_.size_bytes) {
            memory_[addr / 8] = job.data[i];
          }
        }
      }
      if (job.cmd != Cmd::kWrite) {
        jobs_.push_back(std::move(job));  // needs a response
      } else {
        ++served_;
      }
      collecting_.reset();
    }
  }

  // Promote the next serviced job to the response streamer.
  if (!responding_.has_value() && !jobs_.empty() &&
      jobs_.front().ready_cycle <= kernel.cycle()) {
    responding_ = std::move(jobs_.front());
    jobs_.pop_front();
    resp_beat_ = 0;
  }

  // Stream response beats.
  if (responding_.has_value() && resp_.can_send()) {
    Job& job = *responding_;
    const bool in_range =
        job.burst_seq == BurstSeq::kIncr
            ? job.addr + 8ull * job.burst_len <= config_.size_bytes
            : job.addr < config_.size_bytes;
    RespBeat beat;
    beat.valid = true;
    beat.resp = in_range ? Resp::kDva : Resp::kErr;
    beat.thread_id = job.thread_id;
    beat.interrupt = job.sideband;  // loop sideband back for e2e checking
    const std::uint32_t resp_beats =
        (job.cmd == Cmd::kRead) ? job.burst_len : 1;
    if (job.cmd == Cmd::kRead && in_range) {
      auto it = memory_.find(beat_address(job, resp_beat_) / 8);
      beat.data = it == memory_.end() ? 0 : it->second;
    }
    beat.last = (resp_beat_ + 1 == resp_beats);
    resp_.send(beat);
    ++resp_beat_;
    if (beat.last) {
      responding_.reset();
      ++served_;
    }
  }

  req_.end_cycle();
  resp_.end_cycle();
}

}  // namespace xpl::ocp
