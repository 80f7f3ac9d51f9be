// Shared pieces of the stencilcl benchmark: the command line, the seeded
// workloads, one daemon session over its Unix socket, the cold and warm
// drivers, artifact read-back, statistics and the result line. Used by both benchmark programs:
// perfbench_e2e (gated end-to-end numbers, tracing off) and
// perfbench_trace (per-layer numbers).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/daemon.hpp"
#include "serve/serialize.hpp"
#include "serve/wire.hpp"
#include "stencil/program.hpp"

namespace perfbench {

inline constexpr const char* kDdrDevice = "xc7vx690t";
inline constexpr const char* kHbmDevice = "xcu280";

/// Directory for stores and sockets, relative to the working directory
/// (the checkout root). Each run removes its own subdirectory.
inline constexpr const char* kWorkDir = ".bench_run";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
};

/// Parses `--workload <name> --seed <n> --seconds <s>`; throws scl::Error
/// on anything else.
Args parse_args(int argc, char** argv);

/// One request of a workload: the wire frame the daemon receives, the
/// program it will synthesize and the content address it must answer
/// with.
struct Item {
  std::string label;
  std::string device;
  scl::serve::WireRequest request;
  std::shared_ptr<const scl::stencil::StencilProgram> program;
  std::string key;
  /// The seeded, fixed-width part of the program's name
  /// (`<kernel>-<tag>`); it makes the content address distinct per seed
  /// and pass while the generated code keeps the same length.
  std::string tag;
};

/// The daemon settings every workload uses: default options plus device,
/// one synthesis worker with one DSE thread, store dir and (when > 0) the
/// memory-tier size.
scl::serve::DaemonOptions daemon_options(const std::string& device,
                                         const std::string& store_dir,
                                         const std::string& socket_path,
                                         std::int64_t memory_bytes = 0);

/// Every request is a `.stencil` text (`stencil_text`) under a seeded
/// name, so each (seed, pass) gives every item a distinct content address
/// and each request of a run is a store miss, although one daemon per
/// device serves the whole run. The programs themselves, and so the
/// designs, are the same for every seed and pass.
///
/// cold_paper: the seven Table-2 kernels at paper scale, for the DDR part
/// and then the HBM part.
std::vector<Item> cold_paper_items(std::uint64_t seed, int pass);

/// Small-grid requests on the DDR part (cold_small and the serve_warm
/// catalog): a fixed stratified set of shapes, extents and iteration
/// counts, so every seed yields the same design mix.
std::vector<Item> small_grid_items(std::uint64_t seed, int pass);
std::vector<Item> warm_catalog_items(std::uint64_t seed);

/// The distinct devices of `items`, in order of first appearance.
std::vector<std::string> devices_of(const std::vector<Item>& items);

/// Seeded Zipf(s = 1) draws over [0, n): index i is drawn with
/// probability proportional to 1 / (rank(i) + 1), where rank is a fixed
/// permutation of [0, n).
std::vector<int> zipf_sequence(std::uint64_t seed, int n, std::size_t count);

/// Seeded permutation of [0, n).
std::vector<int> permutation(std::uint64_t seed, int n);

/// A response with its client-observed latency.
struct Reply {
  scl::serve::WireResponse response;
  double client_ms = 0.0;
};

/// One in-process daemon plus one WireClient connection. The constructor
/// times Daemon construction + start() + connect().
class Session {
 public:
  explicit Session(const scl::serve::DaemonOptions& options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  double setup_seconds() const { return setup_seconds_; }

  /// Closed loop: sends one frame and blocks for its response.
  Reply call(const scl::serve::WireRequest& request);

  /// Closes the connection and drains the daemon; throws scl::Error when
  /// the drain is not clean.
  void close();

 private:
  std::unique_ptr<scl::serve::Daemon> daemon_;
  scl::serve::WireClient client_;
  double setup_seconds_ = 0.0;
};

/// Collects correctness failures; a run with any is reported incorrect.
class Checks {
 public:
  void fail(const std::string& what);
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

/// Removes its directory (recursively) on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Payloads of `keys` read back from the store at `store_dir` through
/// ArtifactStore::load (checksummed). Throws scl::Error when one is
/// missing.
std::map<std::string, std::string> read_artifacts(
    const std::string& store_dir, const std::vector<std::string>& keys);

/// Checks one reply: `ok`, the expected content address, a store hit or
/// miss as expected and no diagnostics.
void check_reply(Checks* checks, const Item& item, const Reply& reply,
                 bool expect_cached);

/// Called for every reply a driver receives; `timed` is false during the
/// discarded warm-up.
using OnReply =
    std::function<void(const Item& item, const Reply& reply, bool timed)>;

/// What a driver measured itself.
struct Drive {
  double wall_ms = 0.0;  ///< timed request loops only (starts excluded)
  double cpu_s = 0.0;    ///< process CPU, all threads, during those loops
  std::map<std::string, std::string> stores;  ///< drive_cold: device -> store
};

/// Cold workloads. One daemon per device serves the whole run from a
/// store under `dir`; `passes[p]` are the requests of pass p (pass 0 is
/// the warm-up), each a store miss. Passes go round-robin over every
/// item, alternating which device opens a pass. The order within a pass
/// is fixed per pass and not seeded: it decides how the daemon's allocator
/// reuses freed EvalCaches, and a seeded order moved cold_paper's peak RSS
/// by up to 15% from seed to seed.
Drive drive_cold(const ScratchDir& dir,
                 const std::vector<std::vector<Item>>& passes,
                 const OnReply& on_reply);

/// Synthesizes the serve_warm catalog into `store` in a child process, so
/// the calling process never synthesizes and its peak RSS and CPU belong
/// to the warm traffic alone. Call it before the process starts any
/// thread. Returns false when a request failed its checks.
bool populate_catalog(const ScratchDir& dir, const std::string& store,
                      std::uint64_t seed, const std::vector<Item>& catalog);

/// serve_warm: one daemon on the catalog's `store` with a memory tier of
/// `memory_bytes` replays `segments` (segment 0 is the warm-up) of
/// indexes into `catalog`.
Drive drive_warm(const ScratchDir& dir, const std::string& store,
                 std::int64_t memory_bytes, const std::vector<Item>& catalog,
                 const std::vector<std::vector<int>>& segments,
                 const OnReply& on_reply);

/// The emitted design of one artifact.
struct DesignFacts {
  std::int64_t simulated_cycles = 0;
  double predicted_cycles = 0.0;
  std::int64_t code_bytes = 0;  ///< kernel + host source
  bool temporal = false;
  std::int64_t error_diagnostics = 0;
};
DesignFacts design_facts(const scl::serve::SynthesisArtifact& artifact);

/// Exact design-quality metrics over a set of designs. Each is computed in
/// an order-independent way, so the same designs give the same bits.
struct QualityMetrics {
  double cycles_geomean = 0.0;
  double model_error_pct = 0.0;
  double code_kb_mean = 0.0;
};
QualityMetrics quality_metrics(const std::vector<DesignFacts>& designs);

double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

double process_cpu_seconds();
double peak_rss_mb();

using Clock = std::chrono::steady_clock;
double elapsed_ms(Clock::time_point from, Clock::time_point to);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints one readable line per metric, then `reported` (readable lines
/// only), then the result object with `metrics` as the last line of
/// stdout.
void print_result(const std::string& workload, bool correct,
                  std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& reported = {});

/// Shortest round-trip spelling of a double.
std::string format_double(double value);

}  // namespace perfbench
