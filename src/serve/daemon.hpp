// stencild daemon: long-running multi-tenant synthesis server over a
// Unix-domain socket.
//
// Composition of the serve subsystem into one process boundary:
//
//   accept loop (poll: listen fd + stop latch)
//     -> per connection: reader thread + writer thread
//          reader: FrameReader over recv() chunks
//                    -> parse WireRequest (malformed -> structured error)
//                    -> AdmissionController.try_admit(tenant)
//                         shed?  Scheduler::shed_expired() first, retry
//                                once, then bounce with status "shed"
//                    -> SynthesisService::submit (coalescing, tiered
//                       store, deadlines) -> queue (id, PendingJob)
//          writer: pops in request order, waits the job future, writes
//                  exactly one response frame per ingested frame,
//                  releases the admission slot
//
// Drain protocol (SIGTERM or request_stop()): the listener closes, every
// reader stops consuming new frames immediately, every writer finishes
// its queue — so each *accepted* request still gets its response — then
// connections close. wait_drained() bounds the wait by drain_timeout and
// reports whether the drain was clean; an unclean drain force-closes the
// sockets and still joins everything (synthesis jobs are finite), so the
// daemon never leaks a thread.
//
// Responses per connection come back in request order: pipelined clients
// match responses by position or by id, both work. One slow cold
// synthesis delays later responses on the *same* connection only; other
// connections proceed independently.
//
// Observability: the daemon registers its counters on the service's
// always-on registry (scl_serve_admitted_total, scl_serve_shed_total,
// scl_serve_quota_rejected_total, scl_serve_frames_total,
// scl_serve_malformed_total, and the scl_serve_queue_depth gauge), wraps
// each frame in a "serve/request" span, and mirrors per-tenant admission
// counts into gauges at scrape time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/admission.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "support/shutdown.hpp"

namespace scl::serve {

struct DaemonOptions {
  /// Filesystem path of the Unix-domain listening socket. An existing
  /// socket file at the path is replaced.
  std::string socket_path;
  /// Bound on a clean drain; past it wait_drained() force-closes.
  std::chrono::milliseconds drain_timeout{10000};
  /// Concurrent client connections; extras are accepted and immediately
  /// closed (the client sees EOF before any response).
  int max_connections = 64;
  std::size_t max_frame_bytes = kMaxFrameBytes;
  AdmissionOptions admission;
  /// Test seam: fake clock for the admission token buckets.
  AdmissionController::Clock admission_clock;
  ServiceOptions service;
};

struct DaemonStats {
  std::int64_t connections_accepted = 0;
  std::int64_t connections_rejected = 0;
  std::int64_t frames = 0;     ///< complete frames ingested by readers
  std::int64_t malformed = 0;  ///< frames answered with a parse error
  std::int64_t admitted = 0;
  std::int64_t shed = 0;            ///< bounced by the global queue bound
  std::int64_t quota_rejected = 0;  ///< tenant quota + rate-limit bounces
  std::int64_t completed = 0;       ///< "ok" responses written
  std::int64_t failed = 0;          ///< "error" responses for admitted work
  std::int64_t responses = 0;       ///< all response frames written
  bool drained_clean = false;       ///< set by a successful wait_drained()
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket and starts the accept loop. Throws scl::Error when
  /// the socket cannot be created/bound.
  void start();

  /// Begins the drain: stop accepting connections and frames. Idempotent
  /// and safe from any thread (not from signal handlers — route signals
  /// through a ShutdownLatch and run()).
  void request_stop();

  /// Blocks until every connection drained (or drain_timeout passed,
  /// then force-closes and joins). Returns true iff the drain finished
  /// inside the timeout with every accepted request answered.
  bool wait_drained();

  /// Convenience loop for stencild: start(), block until `latch` trips
  /// (or a fatal accept error), drain. Returns 0 on a clean drain.
  int run(support::ShutdownLatch& latch);

  const std::string& socket_path() const { return options_.socket_path; }
  SynthesisService& service() { return *service_; }
  const SynthesisService& service() const { return *service_; }
  AdmissionController& admission() { return *admission_; }

  DaemonStats stats() const;
  std::string render_stats_json() const;
  /// Service + daemon + per-tenant admission families, one exposition.
  std::string render_metrics_exposition() const;

 private:
  struct PendingResponse {
    WireResponse immediate;  ///< complete response (bounce / malformed)
    bool has_job = false;    ///< when set, wait `job` and build from it
    bool admitted = false;   ///< holds an admission slot to release
    std::string tenant;
    std::int64_t id = 0;
    SynthesisService::PendingJob job;
  };

  struct Connection {
    int fd = -1;
    std::thread reader;
    std::thread writer;
    std::mutex mutex;
    std::condition_variable cv;
    std::list<PendingResponse> queue;
    bool reader_done = false;
    bool write_broken = false;  ///< client hung up; keep draining jobs
    std::atomic<bool> finished{false};
  };

  void accept_loop();
  void reader_loop(Connection* connection);
  void writer_loop(Connection* connection);
  /// Parses + admits + submits one frame, enqueueing exactly one
  /// pending response on `connection`.
  void handle_frame(Connection* connection, const std::string& frame);
  /// Counts a malformed frame and answers it with a structured error.
  void bounce_malformed(Connection* connection, const std::string& error);
  void enqueue(Connection* connection, PendingResponse response);
  void write_frame(Connection* connection, const WireResponse& response);
  void register_metrics();

  DaemonOptions options_;
  std::unique_ptr<SynthesisService> service_;
  std::unique_ptr<AdmissionController> admission_;
  support::ShutdownLatch stop_latch_;  ///< wakes poll loops on drain

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> fatal_error_{false};

  mutable std::mutex mutex_;  ///< connections_ + stats_
  std::condition_variable drained_cv_;
  std::list<std::unique_ptr<Connection>> connections_;
  DaemonStats stats_;

  support::obs::Counter* frames_total_ = nullptr;
  support::obs::Counter* malformed_total_ = nullptr;
  support::obs::Counter* admitted_total_ = nullptr;
  support::obs::Counter* shed_total_ = nullptr;
  support::obs::Counter* quota_rejected_total_ = nullptr;
  support::obs::Gauge* queue_depth_ = nullptr;
};

}  // namespace scl::serve
