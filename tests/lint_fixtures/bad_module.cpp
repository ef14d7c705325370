// Seeded violations for the module-contract checks (XL201, XL202,
// XL203). Never compiled; consumed by tests/lint_test.py.
#include <cstdint>

namespace fixture {

// A concrete module that never claims quiescence: the default
// next_event() keeps it awake every cycle, and nothing documents whether
// that is intended.
class Counter : public sim::Module {  // xlint-expect: XL201
 public:
  void tick(sim::Kernel& kernel) override { ++count_; }

 private:
  std::uint64_t count_ = 0;
};

// next_event() reads `done_`, which tick() never writes: the quiescence
// claim is decoupled from the state that actually advances.
class Drainer : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (pending_ > 0) --pending_;
  }
  std::uint64_t next_event(std::uint64_t now) const override {  // xlint-expect: XL202
    return done_ ? sim::kNever : now + 1;
  }

 private:
  std::uint64_t pending_ = 0;
  bool done_ = false;
};

// Time-driven sleeper without a declared wake: tick() compares the
// kernel clock against a stored cycle, and next_event() can only say
// kNever or now + 1 — under the time-leap scheduler nothing would ever
// revisit it at the cycle it is waiting for.
class Timer : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (kernel.cycle() >= fire_at_) fired_ = true;
  }
  std::uint64_t next_event(std::uint64_t now) const override {  // xlint-expect: XL203
    return fired_ ? sim::kNever : now + 1;
  }

 private:
  std::uint64_t fire_at_ = 100;
  bool fired_ = false;
};

// Same hazard advertised by the member name instead of a clock read: a
// due/deadline member is a self-scheduled future cycle, and a
// next_event() that never names it oversleeps it.
class Resender : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (pending_ > 0 && --resend_due_ == 0) --pending_;
  }
  std::uint64_t next_event(std::uint64_t now) const override {
    if (pending_ == 0) return sim::kNever;
    return now + 1;
  }

 private:
  std::uint64_t resend_due_ = 8;  // xlint-expect: XL203
  std::uint64_t pending_ = 1;
};

// Feeding the sender's begin_cycle() is exempt, but a second clock read
// that compares against a stored cycle still makes the module
// time-driven.
class Pacer : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    tx_.begin_cycle(kernel.cycle());
    if (kernel.cycle() >= release_at_) released_ = true;
    tx_.end_cycle();
  }
  std::uint64_t next_event(std::uint64_t now) const override {  // xlint-expect: XL203
    return released_ && tx_.gate_idle() ? sim::kNever : now + 1;
  }

 private:
  link::LinkSender tx_;
  std::uint64_t release_at_ = 100;
  bool released_ = false;
};

}  // namespace fixture
