// Tests for the coalescing async scheduler (serve/scheduler.hpp).
//
// Synchronization discipline: gates are std::latch (a pump parked on a
// latch is *provably* parked once `started` trips — no sleep can race),
// and deadline tests spin a clock condition past a timestamp captured
// after submit instead of sleeping and hoping the scheduler caught up.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace scl::serve {
namespace {

using namespace std::chrono_literals;

/// Busy-waits until steady_clock is strictly past `when`: every queue
/// deadline captured at or before the call site's submit has then
/// objectively expired.
void spin_past(std::chrono::steady_clock::time_point when) {
  while (std::chrono::steady_clock::now() <= when) {
    std::this_thread::yield();
  }
}

TEST(SchedulerTest, RunsSubmittedWork) {
  Scheduler<int> scheduler(2);
  auto submission = scheduler.submit("", [] { return 41 + 1; });
  EXPECT_FALSE(submission.coalesced);
  EXPECT_EQ(submission.future.get(), 42);
}

TEST(SchedulerTest, PropagatesExceptionsThroughTheFuture) {
  Scheduler<int> scheduler(2);
  auto submission =
      scheduler.submit("", []() -> int { throw Error("boom"); });
  EXPECT_THROW(submission.future.get(), Error);
  scheduler.drain();
  EXPECT_EQ(scheduler.stats().failed, 1);
}

TEST(SchedulerTest, CoalescesIdenticalConcurrentRequests) {
  Scheduler<int> scheduler(4);
  std::atomic<int> executions{0};
  std::latch release{1};

  // First request under the key parks in a pump until released, so the
  // next N requests are guaranteed to find it in flight.
  auto first = scheduler.submit("stencil-key", [&] {
    ++executions;
    release.wait();
    return 7;
  });
  EXPECT_FALSE(first.coalesced);

  constexpr int kTwins = 16;
  std::vector<Scheduler<int>::Submission> twins;
  for (int i = 0; i < kTwins; ++i) {
    twins.push_back(scheduler.submit("stencil-key", [&] {
      ++executions;
      return -1;  // must never run
    }));
  }
  release.count_down();

  for (auto& twin : twins) {
    EXPECT_TRUE(twin.coalesced);
    EXPECT_EQ(twin.future.get(), 7);
  }
  EXPECT_EQ(first.future.get(), 7);
  EXPECT_EQ(executions.load(), 1) << "N identical requests, 1 execution";

  // The future is fulfilled before the pump's bookkeeping; drain() is
  // the barrier that makes the stats read race-free.
  scheduler.drain();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, kTwins + 1);
  EXPECT_EQ(stats.coalesced, kTwins);
  EXPECT_EQ(stats.executed, 1);
}

TEST(SchedulerTest, EmptyKeyNeverCoalesces) {
  Scheduler<int> scheduler(2);
  std::atomic<int> executions{0};
  std::vector<Scheduler<int>::Submission> submissions;
  for (int i = 0; i < 8; ++i) {
    submissions.push_back(scheduler.submit("", [&] {
      return ++executions;
    }));
  }
  for (auto& submission : submissions) {
    EXPECT_FALSE(submission.coalesced);
    submission.future.get();
  }
  EXPECT_EQ(executions.load(), 8);
}

TEST(SchedulerTest, DistinctKeysDoNotCoalesce) {
  Scheduler<int> scheduler(2);
  auto a = scheduler.submit("key-a", [] { return 1; });
  auto b = scheduler.submit("key-b", [] { return 2; });
  EXPECT_FALSE(b.coalesced);
  EXPECT_EQ(a.future.get(), 1);
  EXPECT_EQ(b.future.get(), 2);
}

TEST(SchedulerTest, CompletedKeyRunsAgain) {
  // Coalescing spans the in-flight window only; a key resubmitted after
  // completion is fresh work (the artifact store handles caching).
  Scheduler<int> scheduler(2);
  std::atomic<int> executions{0};
  EXPECT_EQ(scheduler.submit("key", [&] { return ++executions; })
                .future.get(),
            1);
  scheduler.drain();
  EXPECT_EQ(scheduler.submit("key", [&] { return ++executions; })
                .future.get(),
            2);
}

TEST(SchedulerTest, HigherPriorityDispatchesFirst) {
  // One pump, blocked; everything else queues behind it so dispatch
  // order is fully observable.
  Scheduler<int> scheduler(1);
  std::latch started{1};
  std::latch release{1};
  std::mutex order_mutex;
  std::vector<int> order;
  auto note = [&](int id) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(id);
    return id;
  };

  auto gate = scheduler.submit("", [&] {
    started.count_down();
    release.wait();
    return 0;
  });
  started.wait();  // the single pump is now provably occupied
  auto low1 = scheduler.submit("", [&] { return note(1); }, /*priority=*/0);
  auto high = scheduler.submit("", [&] { return note(2); }, /*priority=*/5);
  auto low2 = scheduler.submit("", [&] { return note(3); }, /*priority=*/0);
  release.count_down();
  gate.future.get();
  low1.future.get();
  high.future.get();
  low2.future.get();

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2) << "priority 5 before priority 0";
  EXPECT_EQ(order[1], 1) << "FIFO within a priority";
  EXPECT_EQ(order[2], 3);
}

TEST(SchedulerTest, QueueTimeoutExpiresRequests) {
  Scheduler<int> scheduler(1);
  std::latch started{1};
  std::latch release{1};
  auto gate = scheduler.submit("", [&] {
    started.count_down();
    release.wait();
    return 0;
  });
  started.wait();
  auto doomed = scheduler.submit(
      "doomed", [] { return 1; }, /*priority=*/0, /*timeout=*/1ms);
  // Captured *after* submit, so the internal deadline is <= this one;
  // once we spin past it the request has objectively expired.
  spin_past(std::chrono::steady_clock::now() + 1ms);
  release.count_down();
  gate.future.get();
  EXPECT_THROW(doomed.future.get(), Error);
  scheduler.drain();
  EXPECT_EQ(scheduler.stats().timed_out, 1);
}

TEST(SchedulerTest, ShedExpiredFailsOnlyOverDeadlineQueuedWork) {
  Scheduler<int> scheduler(1);
  std::latch started{1};
  std::latch release{1};
  auto gate = scheduler.submit("", [&] {
    started.count_down();
    release.wait();
    return 0;
  });
  started.wait();
  auto doomed = scheduler.submit(
      "doomed", [] { return 1; }, /*priority=*/0, /*timeout=*/1ms);
  auto healthy = scheduler.submit(
      "healthy", [] { return 2; }, /*priority=*/0, /*timeout=*/60s);
  auto eternal = scheduler.submit("eternal", [] { return 3; });
  spin_past(std::chrono::steady_clock::now() + 1ms);

  // Load shedding is selective: only the over-deadline request dies; a
  // far-future deadline and a no-deadline request ride out the purge.
  EXPECT_EQ(scheduler.shed_expired(), 1u);
  EXPECT_EQ(scheduler.shed_expired(), 0u) << "idempotent once shed";

  release.count_down();
  gate.future.get();
  EXPECT_THROW(doomed.future.get(), Error);
  EXPECT_EQ(healthy.future.get(), 2);
  EXPECT_EQ(eternal.future.get(), 3);
  scheduler.drain();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.timed_out, 0)
      << "shed work is accounted as shed, not timed out";
}

TEST(SchedulerTest, ShedReleasesTheCoalescingKey) {
  Scheduler<int> scheduler(1);
  std::latch started{1};
  std::latch release{1};
  auto gate = scheduler.submit("", [&] {
    started.count_down();
    release.wait();
    return 0;
  });
  started.wait();
  auto doomed = scheduler.submit(
      "key", [] { return 1; }, /*priority=*/0, /*timeout=*/1ms);
  spin_past(std::chrono::steady_clock::now() + 1ms);
  ASSERT_EQ(scheduler.shed_expired(), 1u);

  // The key is free again: a resubmit is fresh work, not a twin riding
  // a corpse.
  auto retry = scheduler.submit("key", [] { return 2; });
  EXPECT_FALSE(retry.coalesced);
  release.count_down();
  gate.future.get();
  EXPECT_THROW(doomed.future.get(), Error);
  EXPECT_EQ(retry.future.get(), 2);
}

TEST(SchedulerTest, DepthCountsQueuedAndRunningWork) {
  Scheduler<int> scheduler(1);
  EXPECT_EQ(scheduler.depth(), 0);
  std::latch started{1};
  std::latch release{1};
  auto gate = scheduler.submit("", [&] {
    started.count_down();
    release.wait();
    return 0;
  });
  started.wait();
  auto queued = scheduler.submit("", [] { return 1; });
  EXPECT_EQ(scheduler.depth(), 2) << "1 running + 1 queued";
  release.count_down();
  gate.future.get();
  queued.future.get();
  scheduler.drain();
  EXPECT_EQ(scheduler.depth(), 0);
}

TEST(SchedulerTest, DrainWaitsForAllWork) {
  Scheduler<int> scheduler(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    scheduler.submit("", [&] { return ++done; });
  }
  scheduler.drain();
  EXPECT_EQ(done.load(), 32);
}

TEST(SchedulerTest, ShutdownDrainsQueuedWork) {
  std::atomic<int> done{0};
  std::vector<std::shared_future<int>> futures;
  {
    Scheduler<int> scheduler(2);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(scheduler.submit("", [&] { return ++done; }).future);
    }
    // Destructor shuts down gracefully: queued work still runs.
  }
  EXPECT_EQ(done.load(), 16);
  for (auto& future : futures) EXPECT_GT(future.get(), 0);
}

TEST(SchedulerTest, SubmitAfterShutdownThrows) {
  Scheduler<int> scheduler(2);
  scheduler.shutdown();
  EXPECT_THROW(scheduler.submit("", [] { return 1; }), Error);
}

TEST(SchedulerTest, ShutdownIsIdempotent) {
  Scheduler<int> scheduler(2);
  scheduler.shutdown();
  scheduler.shutdown();  // second call is a no-op
}

TEST(SchedulerTest, StressManyKeysManyTwins) {
  Scheduler<int> scheduler(8);
  std::atomic<int> executions{0};
  std::vector<Scheduler<int>::Submission> submissions;
  for (int round = 0; round < 50; ++round) {
    const std::string key = "key-" + std::to_string(round % 10);
    submissions.push_back(scheduler.submit(key, [&] {
      return ++executions;
    }));
  }
  for (auto& submission : submissions) {
    EXPECT_GT(submission.future.get(), 0);
  }
  scheduler.drain();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.executed + stats.coalesced, 50);
  EXPECT_EQ(executions.load(), stats.executed);
}

// resolve_threads only computes a count; these cases start no threads.
TEST(SchedulerTest, ResolveThreadsPrefersExplicitCount) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
}

TEST(SchedulerTest, ResolveThreadsReadsEnvironment) {
  ::setenv("SCL_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5);
  ::setenv("SCL_THREADS", "not-a-number", 1);
  EXPECT_GE(resolve_threads(0), 1);  // falls back to hardware
  ::setenv("SCL_THREADS", "0", 1);
  EXPECT_GE(resolve_threads(0), 1);
  ::setenv("SCL_THREADS", "100000", 1);
  EXPECT_EQ(resolve_threads(0), 256);  // clamped, not fatal
  EXPECT_EQ(resolve_threads(100000), 256);
  ::unsetenv("SCL_THREADS");
  EXPECT_GE(resolve_threads(0), 1);
}

}  // namespace
}  // namespace scl::serve
