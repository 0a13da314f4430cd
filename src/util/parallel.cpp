#include "src/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/knob.hpp"

namespace cagnet {

namespace {

/// Extra concurrent claimants beyond the baseline single caller.
std::atomic<int> g_extra_shares{0};

/// Largest accepted CAGNET_THREADS.
constexpr int kMaxThreads = 4096;

/// override_thread_budget value; 0 means "use the environment default".
std::atomic<int> g_budget_override{0};

int env_thread_budget() {
  static const knob::Parsed<int> budget([] {
    if (const std::optional<std::string> env = knob::env("CAGNET_THREADS")) {
      return static_cast<int>(
          knob::parse_positive("CAGNET_THREADS", *env, kMaxThreads));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  });
  return budget.get();
}

/// One parallel_for_chunks invocation: a shared claim counter plus a
/// completion latch. Workers and the caller claim chunks with fetch_add,
/// so each chunk runs exactly once on whichever thread gets there first.
struct Batch {
  Batch(int n, const std::function<void(int)>& f)
      : fn(&f), chunks(n), remaining(n) {}

  const std::function<void(int)>* fn;
  const int chunks;
  std::atomic<int> next{0};
  std::atomic<int> remaining;
  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr error;  // guarded by mutex
};

/// The process-wide pool. Workers are lazily grown up to
/// thread_budget() - 1 (the caller is the remaining thread) and persist
/// for the process lifetime; the hot path never spawns threads.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void run(int chunks, const std::function<void(int)>& fn) {
    ensure_workers(std::min(chunks, thread_budget()) - 1);
    if (chunks <= 1 || workers_empty()) {
      for (int c = 0; c < chunks; ++c) fn(c);
      return;
    }
    auto batch = std::make_shared<Batch>(chunks, fn);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(batch);
    }
    cv_.notify_all();
    run_chunks(*batch);  // the caller works through its own batch too
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::erase(queue_, batch);
    }
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock,
                     [&] { return batch->remaining.load(
                               std::memory_order_acquire) == 0; });
    if (batch->error) std::rethrow_exception(batch->error);
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

 private:
  ThreadPool() = default;

  bool workers_empty() {
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_.empty();
  }

  void ensure_workers(int target) {
    if (target <= 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    while (static_cast<int>(workers_.size()) < target) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  static void run_chunks(Batch& batch) {
    for (;;) {
      const int c = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= batch.chunks) return;
      try {
        (*batch.fn)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch.mutex);
        if (!batch.error) batch.error = std::current_exception();
      }
      if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk: wake the waiter. The lock pairs with the waiter's
        // predicate check so the notify cannot be lost.
        std::lock_guard<std::mutex> lock(batch.mutex);
        batch.done.notify_all();
      }
    }
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and work drained
        batch = queue_.front();
        if (batch->next.load(std::memory_order_relaxed) >= batch->chunks) {
          queue_.pop_front();  // exhausted; retire it and look again
          continue;
        }
      }
      run_chunks(*batch);
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace

int thread_budget() {
  const int forced = g_budget_override.load(std::memory_order_relaxed);
  return forced > 0 ? forced : env_thread_budget();
}

int available_thread_budget() {
  const int claimants = 1 + g_extra_shares.load(std::memory_order_relaxed);
  return std::max(1, thread_budget() / claimants);
}

void override_thread_budget(int n) {
  g_budget_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ScopedThreadBudgetShare::ScopedThreadBudgetShare(int ways)
    : extra_(std::max(ways, 1) - 1) {
  g_extra_shares.fetch_add(extra_, std::memory_order_relaxed);
}

ScopedThreadBudgetShare::~ScopedThreadBudgetShare() {
  g_extra_shares.fetch_sub(extra_, std::memory_order_relaxed);
}

int plan_chunks(double total_work, double min_work_per_chunk,
                Index max_chunks) {
  const double by_work = min_work_per_chunk > 0
                             ? total_work / min_work_per_chunk
                             : static_cast<double>(available_thread_budget());
  int chunks = available_thread_budget();
  if (by_work < static_cast<double>(chunks)) {
    chunks = static_cast<int>(by_work) + 1;
  }
  if (max_chunks < static_cast<Index>(chunks)) {
    chunks = static_cast<int>(std::max<Index>(max_chunks, 1));
  }
  return std::max(chunks, 1);
}

void parallel_for_chunks(int chunks, const std::function<void(int)>& fn) {
  if (chunks <= 1) {
    if (chunks == 1) fn(0);
    return;
  }
  ThreadPool::instance().run(chunks, fn);
}

void parallel_for(Index n, int chunks,
                  const std::function<void(Index, Index)>& body) {
  if (n <= 0) return;
  const int c = static_cast<int>(std::min<Index>(std::max(chunks, 1), n));
  if (c <= 1) {
    body(0, n);
    return;
  }
  parallel_for_chunks(c, [&](int i) {
    const Index lo = n * i / c;
    const Index hi = n * (i + 1) / c;
    if (lo < hi) body(lo, hi);
  });
}

}  // namespace cagnet
