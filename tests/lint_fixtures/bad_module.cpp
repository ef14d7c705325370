// Seeded violations for the module-contract checks (XL201, XL202,
// XL203). Never compiled; consumed by tests/lint_test.py.
#include <cstdint>

namespace fixture {

// A concrete module that never claims quiescence: the kernel loop could
// never let it sleep, and nothing documents whether that is intended.
class Counter : public sim::Module {  // xlint-expect: XL201
 public:
  void tick(sim::Kernel& kernel) override { ++count_; }

 private:
  std::uint64_t count_ = 0;
};

// is_idle() reads `done_`, which tick() never writes: the quiescence
// claim is decoupled from the state that actually advances.
class Drainer : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (pending_ > 0) --pending_;
  }
  bool is_idle() const override { return done_; }  // xlint-expect: XL202

 private:
  std::uint64_t pending_ = 0;
  bool done_ = false;
};

// Time-driven sleeper without a declared wake: tick() compares the
// kernel clock against a stored cycle, and is_idle() lets the module
// sleep — under the time-leap scheduler nothing would ever revisit it
// at the cycle it is waiting for.
class Timer : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (kernel.cycle() >= fire_at_) fired_ = true;
  }
  bool is_idle() const override { return fired_; }  // xlint-expect: XL203

 private:
  std::uint64_t fire_at_ = 100;
  bool fired_ = false;
};

// Same hazard advertised by the member name instead of a clock read: a
// due/deadline member is a self-scheduled future cycle, and sleeping on
// is_idle() without a next_event() override oversleeps it.
class Resender : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override {
    if (pending_ > 0 && --resend_due_ == 0) --pending_;
  }
  bool is_idle() const override { return pending_ == 0; }

 private:
  std::uint64_t resend_due_ = 8;  // xlint-expect: XL203
  std::uint64_t pending_ = 1;
};

}  // namespace fixture
