// Coalescing async request scheduler.
//
// A fixed set of request pumps (one std::thread each) drains a priority
// queue of keyed work items. The piece that makes it a serving
// component rather than a thread pool wrapper is in-flight deduplication:
// submitting a key that is already queued *or* running returns the
// existing shared future instead of scheduling a second computation, so N
// identical concurrent requests cost one synthesis (the classic
// cache-stampede / thundering-herd guard). Keys are the content addresses
// of serve/serialize.hpp; an empty key opts out of coalescing.
//
// Ordering: higher priority first, FIFO (submission sequence) within a
// priority. Per-request timeouts bound *queue* time: a request whose
// deadline has passed when a pump picks it up fails with scl::Error
// instead of running; a computation already underway is never interrupted
// (callers own cancellation above this layer, if they need it).
//
// Shutdown is a graceful drain: the destructor stops accepting work,
// lets the pumps finish everything already queued, then joins them.
// submit() after shutdown began throws.
//
// This is where the process's parallelism lives: each pump runs whole
// requests (a synthesis searches its design space on the pump's own
// thread), so N pumps serve N requests at once.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/observability/observability.hpp"

namespace scl::serve {

/// Resolves a requested worker count: `requested` >= 1 wins, else the
/// SCL_THREADS environment variable (when it parses as an integer >= 1),
/// else hardware concurrency (>= 1). Clamped to 256: more pumps never
/// help and would fail thread creation with an obscure system error.
inline int resolve_threads(int requested) {
  constexpr int kMaxThreads = 256;
  if (requested >= 1) return std::min(requested, kMaxThreads);
  if (const char* env = std::getenv("SCL_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<int>(std::min<long>(parsed, kMaxThreads));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

struct SchedulerStats {
  std::int64_t submitted = 0;  ///< requests accepted (incl. coalesced)
  std::int64_t coalesced = 0;  ///< requests served by an in-flight twin
  std::int64_t executed = 0;   ///< work functions actually run
  std::int64_t completed = 0;  ///< work functions that returned a value
  std::int64_t failed = 0;     ///< work functions that threw
  std::int64_t timed_out = 0;  ///< requests expired while queued
  std::int64_t shed = 0;       ///< requests removed by shed_expired()
  std::int64_t max_queue_depth = 0;
};

template <typename Result>
class Scheduler {
 public:
  struct Submission {
    std::shared_future<Result> future;
    /// True when this request was coalesced onto an in-flight twin.
    bool coalesced = false;
  };

  /// The scheduler owns `threads` request pumps; `threads` <= 0
  /// resolves via resolve_threads().
  explicit Scheduler(int threads = 0)
      : pump_count_(resolve_threads(threads)) {
    pumps_.reserve(static_cast<std::size_t>(pump_count_));
    try {
      for (int p = 0; p < pump_count_; ++p) {
        pumps_.emplace_back([this] { pump(); });
      }
    } catch (...) {
      shutdown();  // join the pumps already started
      throw;
    }
  }

  ~Scheduler() { shutdown(); }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Schedules `work` under `key`. Identical keys already in flight
  /// coalesce; `timeout` <= 0 means no deadline.
  Submission submit(const std::string& key, std::function<Result()> work,
                    int priority = 0,
                    std::chrono::milliseconds timeout =
                        std::chrono::milliseconds::zero()) {
    SCL_CHECK(work != nullptr, "Scheduler::submit needs a work function");
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      throw Error("Scheduler::submit after shutdown began");
    }
    ++stats_.submitted;
    if (!key.empty()) {
      const auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        ++stats_.coalesced;
        return {it->second->future, true};
      }
    }
    auto request = std::make_shared<Request>();
    request->key = key;
    request->priority = priority;
    request->seq = ++next_seq_;
    if (timeout.count() > 0) {
      request->has_deadline = true;
      request->deadline = std::chrono::steady_clock::now() + timeout;
    }
    request->work = std::move(work);
    request->future = request->promise.get_future().share();
    pending_.insert(request);
    if (!key.empty()) inflight_[key] = request;
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth,
                 static_cast<std::int64_t>(pending_.size()));
    lock.unlock();
    work_cv_.notify_one();
    return {request->future, false};
  }

  /// Load shedding: removes every *queued* request whose deadline has
  /// already passed and fails its future with scl::Error immediately,
  /// instead of letting it occupy a pump slot later only to expire there.
  /// Running work is never touched. Returns the number of requests shed;
  /// coalesced waiters ride the same future and observe the same error.
  /// The admission layer calls this when the queue is over its bound, so
  /// over-deadline work is shed before fresh work is rejected.
  std::size_t shed_expired() {
    const auto now = std::chrono::steady_clock::now();
    std::vector<RequestPtr> doomed;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = pending_.begin(); it != pending_.end();) {
        if ((*it)->has_deadline && now > (*it)->deadline) {
          doomed.push_back(*it);
          if (!(*it)->key.empty()) inflight_.erase((*it)->key);
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
      stats_.shed += static_cast<std::int64_t>(doomed.size());
      if (!doomed.empty() && pending_.empty() && running_ == 0) {
        idle_cv_.notify_all();
      }
    }
    // Promises are fulfilled outside the lock: a waiter's continuation
    // may immediately resubmit, which takes mutex_ again.
    for (const RequestPtr& request : doomed) {
      request->promise.set_exception(std::make_exception_ptr(Error(
          "request '" + request->key + "' shed: over deadline in queue")));
    }
    return doomed.size();
  }

  /// Queued + running requests right now (the admission layer's
  /// backpressure signal).
  std::int64_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::int64_t>(pending_.size()) + running_;
  }

  /// Blocks until every accepted request has completed (or expired).
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return pending_.empty() && running_ == 0; });
  }

  /// Stops accepting work, drains the queue, joins the pumps. Idempotent.
  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& pump : pumps_) {
      if (pump.joinable()) pump.join();
    }
  }

  int worker_count() const { return pump_count_; }

  SchedulerStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  struct Request {
    std::string key;
    int priority = 0;
    std::uint64_t seq = 0;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::function<Result()> work;
    std::optional<Result> result;  ///< staged until the key is released
    std::promise<Result> promise;
    std::shared_future<Result> future;
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// Dispatch order: priority descending, then submission order. seq is
  /// unique, so the comparator is a strict weak order with no ties.
  struct DispatchOrder {
    bool operator()(const RequestPtr& a, const RequestPtr& b) const {
      if (a->priority != b->priority) return a->priority > b->priority;
      return a->seq < b->seq;
    }
  };

  void pump() {
    while (true) {
      RequestPtr request;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock,
                      [&] { return stopping_ || !pending_.empty(); });
        if (pending_.empty()) {
          if (stopping_) break;  // drained; exit
          continue;
        }
        request = *pending_.begin();
        pending_.erase(pending_.begin());
        ++running_;
      }
      const bool expired =
          request->has_deadline &&
          std::chrono::steady_clock::now() > request->deadline;
      bool completed = false;
      std::exception_ptr error;
      if (!expired) {
        try {
          const auto span =
              support::obs::tracer().span("serve/execute", "serve");
          request->result = request->work();
          completed = true;
        } catch (...) {
          error = std::current_exception();
        }
      }
      // Un-register the key BEFORE fulfilling the promise: once a waiter
      // can observe the future as ready, a new identical request must
      // schedule fresh work, not coalesce onto a finished twin.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!request->key.empty()) inflight_.erase(request->key);
      }
      if (expired) {
        request->promise.set_exception(std::make_exception_ptr(Error(
            "request '" + request->key + "' timed out in the queue")));
      } else if (completed) {
        request->promise.set_value(std::move(*request->result));
      } else {
        request->promise.set_exception(error);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --running_;
        if (expired) {
          ++stats_.timed_out;
        } else {
          ++stats_.executed;
          completed ? ++stats_.completed : ++stats_.failed;
        }
        if (pending_.empty() && running_ == 0) idle_cv_.notify_all();
      }
    }
  }

  const int pump_count_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::set<RequestPtr, DispatchOrder> pending_;
  std::unordered_map<std::string, RequestPtr> inflight_;
  int running_ = 0;
  bool stopping_ = false;
  std::uint64_t next_seq_ = 0;
  SchedulerStats stats_;
  /// Declared last: the pumps start once every other member exists.
  std::vector<std::thread> pumps_;
};

}  // namespace scl::serve
