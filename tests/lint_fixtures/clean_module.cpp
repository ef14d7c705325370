// Fully conforming modules, as the signal/module checks see them:
// next_event() reads exactly the state tick() advances, every Signal write
// sits on the tick path, at most two watchers register per wire, and
// stored signal handles carry the passive-observer annotation.
// tests/lint_test.py asserts zero findings on this file.
#include <cstdint>

namespace fixture {

class Pulse : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (remaining_ > 0) {
      --remaining_;
      drive();
    }
  }

  // Quiescence is exactly "no pulses left": the same counter tick()
  // decrements.
  std::uint64_t next_event(std::uint64_t now) const override {
    return remaining_ == 0 ? sim::kNever : now + 1;
  }

  void watch_output(sim::Module* consumer, sim::Module* observer) {
    out_.watch(consumer);
    out_.watch(observer);  // two watchers: consumer + passive observer
  }

 private:
  void drive() { out_.write(1); }  // silent: tick -> drive

  sim::Signal<int> out_;
  std::uint64_t remaining_ = 4;
};

// The sanctioned passive-observer shape: a stored handle to a wire some
// other module owns, annotated with the reason.
class Scope : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (probe_->read() != 0) ++samples_;
  }
  std::uint64_t next_event(std::uint64_t now) const override {
    return samples_ == 0 ? sim::kNever : now + 1;
  }

 private:
  // xlint: signal-handle-ok(passive observer on an externally owned wire; uses Signal's second watcher slot)
  sim::Signal<int>* probe_ = nullptr;
  std::uint64_t samples_ = 0;
};

// An always-awake claim is a valid (conservative) contract, but it reads
// none of the tick state, so it documents why.
class Spinner : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override { ++cycles_; }
  // xlint: idle-ok(free-running heartbeat; never quiesces by design)
  std::uint64_t next_event(std::uint64_t now) const override {
    return now + 1;
  }

 private:
  std::uint64_t cycles_ = 0;
};

// The conforming time-driven shape: the same clock-comparing tick as
// the XL203 fixture, but the wake cycle is declared via next_event(),
// so the time-leap scheduler knows exactly when to revisit it.
class Alarm : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (kernel.cycle() >= fire_at_) fired_ = true;
  }
  std::uint64_t next_event(std::uint64_t now) const override {
    return fired_ ? sim::kNever : fire_at_;
  }

 private:
  std::uint64_t fire_at_ = 100;
  bool fired_ = false;
};

// A clock read whose only use is the whole argument of a link sender's
// begin_cycle() feeds the credit stall catch-up, not a deadline: the
// module is input-driven and may answer kNever.
class Sender : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    tx_.begin_cycle(kernel.cycle());
    tx_.end_cycle();
  }
  std::uint64_t next_event(std::uint64_t now) const override {
    return tx_.gate_idle() ? sim::kNever : now + 1;
  }

 private:
  link::LinkSender tx_;
};

// A due-tracking member is fine too once the wake is declared.
class Retry : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (pending_ > 0 && --resend_due_ == 0) --pending_;
  }
  std::uint64_t next_event(std::uint64_t now) const override {
    return pending_ == 0 ? sim::kNever : now + resend_due_;
  }

 private:
  std::uint64_t resend_due_ = 8;
  std::uint64_t pending_ = 1;
};

}  // namespace fixture
