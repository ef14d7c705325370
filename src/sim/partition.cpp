#include "src/sim/partition.hpp"

#include "src/sim/kernel.hpp"

namespace xpl::sim {

PartitionPool::PartitionPool(Kernel& kernel, std::size_t threads)
    : kernel_(kernel), threads_(threads) {
  workers_.reserve(threads_ > 0 ? threads_ - 1 : 0);
  for (std::size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

PartitionPool::~PartitionPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void PartitionPool::run_slice(std::size_t worker, std::uint64_t k) {
  for (std::size_t p = worker; p < kernel_.partitions_.size();
       p += threads_) {
    kernel_.run_partition(p, k);
  }
}

void PartitionPool::run_epoch(std::uint64_t k) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_cycles_ = k;
    pending_ = threads_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();
  run_slice(0, k);  // the driving thread is worker 0
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

void PartitionPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t k = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock,
                     [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      k = epoch_cycles_;
    }
    run_slice(worker, k);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      if (pending_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace xpl::sim
