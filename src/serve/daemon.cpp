#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace scl::serve {

namespace {

/// Tenant ids become metric-name suffixes; anything outside the metric
/// charset folds to '_'.
std::string sanitize_metric_suffix(const std::string& tenant) {
  std::string out = tenant;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

/// Builds the service job for a validated wire request. Throws scl::Error
/// on an unknown benchmark or unparseable stencil text.
JobRequest to_job(const WireRequest& wire) {
  JobRequest job;
  if (!wire.benchmark.empty()) {
    const stencil::BenchmarkInfo& info =
        stencil::find_benchmark(wire.benchmark);
    std::array<std::int64_t, 3> extents = info.input_size;
    const std::int64_t iterations =
        wire.iterations > 0 ? wire.iterations : info.iterations;
    if (wire.grid_dims > 0) {
      extents = {1, 1, 1};
      for (int d = 0; d < wire.grid_dims; ++d) extents[d] = wire.grid[d];
    }
    job.name = wire.benchmark;
    job.program = std::make_shared<stencil::StencilProgram>(
        info.make_scaled(extents, iterations));
  } else {
    stencil::StencilProgram program =
        stencil::parse_program(wire.stencil_text);
    job.name = program.name();
    job.program =
        std::make_shared<stencil::StencilProgram>(std::move(program));
  }
  job.priority = wire.priority;
  job.timeout = std::chrono::milliseconds(wire.timeout_ms);
  return job;
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  if (options_.socket_path.empty()) {
    throw Error("Daemon: socket_path must be set");
  }
  service_ = std::make_unique<SynthesisService>(options_.service);
  admission_ = std::make_unique<AdmissionController>(
      options_.admission, options_.admission_clock);
  register_metrics();
}

void Daemon::register_metrics() {
  auto& registry = service_->metrics();
  frames_total_ = &registry.counter("scl_serve_frames_total",
                                    "complete wire frames ingested");
  malformed_total_ = &registry.counter(
      "scl_serve_malformed_total", "frames answered with a parse error");
  admitted_total_ = &registry.counter("scl_serve_admitted_total",
                                      "requests past admission control");
  shed_total_ = &registry.counter(
      "scl_serve_shed_total", "requests bounced by the global queue bound");
  quota_rejected_total_ =
      &registry.counter("scl_serve_quota_rejected_total",
                        "tenant quota and rate-limit bounces");
  queue_depth_ = &registry.gauge("scl_serve_queue_depth",
                                 "admitted-but-unanswered requests");
}

Daemon::~Daemon() {
  if (started_.load()) {
    request_stop();
    wait_drained();
  }
}

void Daemon::start() {
  SCL_CHECK(!started_.load(), "Daemon::start called twice");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw Error("Daemon: cannot create socket");
  sockaddr_un address = {};
  address.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(address.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("Daemon: socket path too long: " + options_.socket_path);
  }
  std::memcpy(address.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  ::unlink(options_.socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("Daemon: cannot bind/listen on " + options_.socket_path);
  }
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::request_stop() {
  draining_.store(true);
  stop_latch_.trigger();
}

void Daemon::accept_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                     {stop_latch_.fd(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fatal_error_.store(true);
      stop_latch_.trigger();
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || draining_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      fatal_error_.store(true);
      stop_latch_.trigger();
      break;
    }
    std::vector<std::unique_ptr<Connection>> reaped;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Move finished connections out under the lock, join them outside
      // it (their last act is a notify that takes this mutex).
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->finished.load()) {
          reaped.push_back(std::move(*it));
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      const bool full =
          static_cast<int>(connections_.size()) >= options_.max_connections;
      if (draining_.load() || full) {
        ::close(fd);
        ++stats_.connections_rejected;
      } else {
        auto connection = std::make_unique<Connection>();
        Connection* raw = connection.get();
        raw->fd = fd;
        connections_.push_back(std::move(connection));
        ++stats_.connections_accepted;
        raw->reader = std::thread([this, raw] { reader_loop(raw); });
        raw->writer = std::thread([this, raw] { writer_loop(raw); });
      }
    }
    for (auto& connection : reaped) {
      if (connection->reader.joinable()) connection->reader.join();
      if (connection->writer.joinable()) connection->writer.join();
      ::close(connection->fd);
    }
  }
}

void Daemon::reader_loop(Connection* connection) {
  FrameReader reader(options_.max_frame_bytes);
  while (!draining_.load()) {
    pollfd fds[2] = {{connection->fd, POLLIN, 0},
                     {stop_latch_.fd(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // drain began
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char chunk[8192];
    const ssize_t n = ::recv(connection->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF or error: client is gone
    reader.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    while (true) {
      std::optional<std::string> frame;
      try {
        frame = reader.next();
      } catch (const Error& e) {
        // Over-long frame: answer with a structured error, then keep
        // decoding (the reader skips to the next newline itself).
        bounce_malformed(connection, e.what());
        continue;
      }
      if (!frame) break;
      handle_frame(connection, *frame);
    }
  }
  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->reader_done = true;
  }
  connection->cv.notify_all();
}

void Daemon::handle_frame(Connection* connection, const std::string& frame) {
  const auto span = support::obs::tracer().span("serve/request", "serve");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.frames;
  }
  frames_total_->increment();

  WireRequest wire;
  try {
    wire = parse_request(frame);
  } catch (const Error& e) {
    bounce_malformed(connection, e.what());
    return;
  }

  // Admission runs before the (possibly attacker-controlled) program is
  // even parsed: quota'd tenants cannot buy parser time either.
  AdmissionVerdict verdict = admission_->try_admit(wire.tenant);
  if (verdict == AdmissionVerdict::kShed) {
    // Over-deadline queued work is doomed anyway — shed it first, then
    // give this request one more chance at the freed capacity.
    service_->shed_expired();
    verdict = admission_->try_admit(wire.tenant);
  }
  if (verdict != AdmissionVerdict::kAdmitted) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (verdict == AdmissionVerdict::kShed) {
        ++stats_.shed;
      } else {
        ++stats_.quota_rejected;
      }
    }
    if (verdict == AdmissionVerdict::kShed) {
      shed_total_->increment();
    } else {
      quota_rejected_total_->increment();
    }
    PendingResponse bounce;
    bounce.immediate.id = wire.id;
    bounce.immediate.status = to_string(verdict);
    bounce.immediate.error =
        verdict == AdmissionVerdict::kShed
            ? "queue full: request shed"
            : str_cat("tenant '", wire.tenant, "' over ",
                      verdict == AdmissionVerdict::kQuotaExceeded
                          ? "concurrency quota"
                          : "request rate");
    enqueue(connection, std::move(bounce));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.admitted;
  }
  admitted_total_->increment();
  queue_depth_->set(static_cast<double>(admission_->depth()));

  PendingResponse pending;
  pending.id = wire.id;
  pending.tenant = wire.tenant;
  pending.admitted = true;
  try {
    pending.job = service_->submit(to_job(wire));
    pending.has_job = true;
  } catch (const Error& e) {
    // Unknown benchmark / bad stencil text / service shutting down: the
    // admission slot is released by the writer like any other response.
    pending.immediate.id = wire.id;
    pending.immediate.status = "error";
    pending.immediate.error = e.what();
  }
  enqueue(connection, std::move(pending));
}

void Daemon::bounce_malformed(Connection* connection,
                              const std::string& error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.malformed;
  }
  malformed_total_->increment();
  PendingResponse bounce;
  bounce.immediate.status = "error";
  bounce.immediate.error = error;
  enqueue(connection, std::move(bounce));
}

void Daemon::enqueue(Connection* connection, PendingResponse response) {
  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->queue.push_back(std::move(response));
  }
  connection->cv.notify_all();
}

void Daemon::write_frame(Connection* connection,
                         const WireResponse& response) {
  if (connection->write_broken) return;
  const std::string frame = serialize_response(response) + "\n";
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(connection->fd, frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      // Client hung up mid-drain; jobs still complete and release their
      // admission slots, the bytes just have nowhere to go.
      connection->write_broken = true;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Daemon::writer_loop(Connection* connection) {
  while (true) {
    PendingResponse item;
    {
      std::unique_lock<std::mutex> lock(connection->mutex);
      connection->cv.wait(lock, [&] {
        return !connection->queue.empty() || connection->reader_done;
      });
      if (connection->queue.empty()) break;  // reader done, all answered
      item = std::move(connection->queue.front());
      connection->queue.pop_front();
    }
    WireResponse response = item.immediate;
    if (item.has_job) {
      const JobResult result = service_->wait(item.job);
      response.id = item.id;
      response.name = result.name;
      response.key = result.key;
      if (result.ok) {
        response.status = "ok";
        response.from_cache = result.from_cache;
        response.from_memory = result.from_memory;
        response.coalesced = result.coalesced;
        response.speedup = result.artifact->speedup;
        response.latency_ms = result.latency_ms;
      } else if (result.error.find("shed: over deadline") !=
                 std::string::npos) {
        response.status = "shed";
        response.error = result.error;
      } else {
        response.status = "error";
        response.error = result.error;
        // Verification failures carry structured SCL diagnostics; forward
        // the error-severity entries so the client sees which checks the
        // design failed (warnings stay server-side).
        for (const support::Diagnostic& diag : result.diagnostics) {
          if (diag.severity != support::Severity::kError) continue;
          response.diagnostics.push_back(
              {diag.code, support::to_string(diag.severity), diag.message});
        }
      }
    }
    if (item.admitted) {
      admission_->release(item.tenant);
      queue_depth_->set(static_cast<double>(admission_->depth()));
    }
    write_frame(connection, response);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.responses;
      if (item.has_job || item.admitted) {
        response.ok() ? ++stats_.completed : ++stats_.failed;
      }
    }
  }
  connection->finished.store(true);
  {
    std::lock_guard<std::mutex> lock(mutex_);
  }
  drained_cv_.notify_all();
}

bool Daemon::wait_drained() {
  if (!started_.load()) return true;
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();

  const auto deadline =
      std::chrono::steady_clock::now() + options_.drain_timeout;
  bool clean;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    clean = drained_cv_.wait_until(lock, deadline, [&] {
      for (const auto& connection : connections_) {
        if (!connection->finished.load()) return false;
      }
      return true;
    });
    if (!clean) {
      // Past the drain budget: force the sockets down so blocked I/O
      // unblocks. Jobs still run to completion below — the join is
      // unconditional, only the "clean" verdict is lost.
      for (const auto& connection : connections_) {
        ::shutdown(connection->fd, SHUT_RDWR);
      }
    }
  }

  std::list<std::unique_ptr<Connection>> remaining;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    remaining.swap(connections_);
  }
  for (auto& connection : remaining) {
    if (connection->reader.joinable()) connection->reader.join();
    if (connection->writer.joinable()) connection->writer.join();
    ::close(connection->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  started_.store(false);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.drained_clean = clean;
  }
  return clean;
}

int Daemon::run(support::ShutdownLatch& latch) {
  start();
  SCL_INFO() << "stencild listening on " << options_.socket_path;
  while (true) {
    pollfd fds[2] = {{latch.fd(), POLLIN, 0},
                     {stop_latch_.fd(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) {
      fatal_error_.store(true);
      break;
    }
    if ((fds[0].revents & POLLIN) != 0 ||
        (fds[1].revents & POLLIN) != 0) {
      break;
    }
  }
  SCL_INFO() << "stencild draining (timeout "
             << options_.drain_timeout.count() << " ms)";
  const bool clean = wait_drained();
  SCL_INFO() << "stencild drain " << (clean ? "clean" : "FORCED") << ", "
             << stats().responses << " response(s) written";
  return clean && !fatal_error_.load() ? 0 : 1;
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string Daemon::render_stats_json() const {
  const DaemonStats daemon = stats();
  const AdmissionStats admission = admission_->stats();
  support::JsonWriter json(support::JsonStyle::kSpaced);
  json.begin_object();
  json.key("daemon").begin_object();
  json.member("connections_accepted", daemon.connections_accepted);
  json.member("connections_rejected", daemon.connections_rejected);
  json.member("frames", daemon.frames);
  json.member("malformed", daemon.malformed);
  json.member("admitted", daemon.admitted);
  json.member("shed", daemon.shed);
  json.member("quota_rejected", daemon.quota_rejected);
  json.member("completed", daemon.completed);
  json.member("failed", daemon.failed);
  json.member("responses", daemon.responses);
  json.member("drained_clean", daemon.drained_clean);
  json.end_object();
  json.key("admission").begin_object();
  json.member("admitted", admission.admitted);
  json.member("shed", admission.shed);
  json.member("quota_rejected", admission.quota_rejected);
  json.member("depth", admission.depth);
  json.member("max_depth", admission.max_depth);
  json.key("tenants").begin_object();
  for (const auto& [tenant, t] : admission.tenants) {
    json.key(tenant).begin_object();
    json.member("admitted", t.admitted);
    json.member("quota_rejected", t.quota_rejected);
    json.member("rate_limited", t.rate_limited);
    json.member("in_flight", t.in_flight);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  json.key("service").raw(service_->render_stats_json());
  json.end_object();
  return json.take();
}

std::string Daemon::render_metrics_exposition() const {
  // Per-tenant admission counts become gauges at scrape time (the
  // registry has no labels; the tenant id is folded into the name).
  const AdmissionStats admission = admission_->stats();
  auto& registry = service_->metrics();
  for (const auto& [tenant, t] : admission.tenants) {
    const std::string suffix = sanitize_metric_suffix(tenant);
    registry
        .gauge("scl_serve_tenant_admitted_total_" + suffix,
               "requests admitted for tenant " + tenant)
        .set(static_cast<double>(t.admitted));
    registry
        .gauge("scl_serve_tenant_quota_rejected_total_" + suffix,
               "quota bounces for tenant " + tenant)
        .set(static_cast<double>(t.quota_rejected));
    registry
        .gauge("scl_serve_tenant_rate_limited_total_" + suffix,
               "rate-limit bounces for tenant " + tenant)
        .set(static_cast<double>(t.rate_limited));
  }
  return service_->render_metrics_exposition();
}

}  // namespace scl::serve
