// Declaration half of the cross-file merge fixture; the bodies live in
// merge_a_impl.cpp, which sorts before this file.
#pragma once

#include <cstdint>

namespace fixture {

class Relay : public sim::Module {
 public:
  void tick(sim::Kernel& kernel) override;
  std::uint64_t next_event(std::uint64_t now) const override {
    return backlog_ == 0 ? sim::kNever : now + 1;
  }

 private:
  void forward();

  sim::Signal<int> out_;
  std::uint64_t backlog_ = 2;
};

}  // namespace fixture
