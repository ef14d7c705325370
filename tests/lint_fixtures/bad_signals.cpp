// Seeded violations for the signal-discipline checks (XL301-XL303).
// Never compiled; consumed by tests/lint_test.py.
#include <cstdint>

namespace fixture {

// Raw signal handle stored in a module outside the CutLink seam and
// without a passive-observer annotation.
class Probe : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override { last_ = wire_->read(); }
  std::uint64_t next_event(std::uint64_t now) const override {
    return last_ == 0 ? sim::kNever : now + 1;
  }

 private:
  sim::Signal<int>* wire_;  // xlint-expect: XL303
  int last_ = 0;
};

// Drives its output wire from a configuration call that no tick path
// reaches: the write lands outside the two-phase commit.
class Driver : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override { step(); }
  std::uint64_t next_event(std::uint64_t now) const override {
    return armed_ ? now + 1 : sim::kNever;
  }

  void arm(int value) {
    out_.write(value);  // xlint-expect: XL301
    armed_ = true;
  }

 private:
  void step() { out_.write(armed_ ? 1 : 0); }  // silent: tick -> step

  sim::Signal<int> out_;
  bool armed_ = false;
};

// A third watcher on one wire: Signal has exactly two slots (consumer +
// passive observer) and the third registration asserts at runtime.
class Fanout : public sim::Module {
 public:
  void attach(sim::Signal<int>& wire) {
    wire.watch(this);
    wire.watch(this);
    wire.watch(this);  // xlint-expect: XL302
  }
  void tick(sim::Kernel& kernel) override { ++beats_; }
  std::uint64_t next_event(std::uint64_t now) const override {
    return beats_ == 0 ? sim::kNever : now + 1;
  }

 private:
  std::uint64_t beats_ = 0;
};

// Namespace-scope helper pushing a beat outside any module tick.
inline void force_flush(sim::Signal<int>& wire) {
  wire.write(0);  // xlint-expect: XL301
}

}  // namespace fixture
