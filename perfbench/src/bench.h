#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

// Shared declarations of the freshsel benchmark. The benchmark is a
// separate program: it links the repo's libraries to generate scenarios,
// compute reference answers and (in traced mode) host an in-process server,
// but measures the product binaries (`freshsel select` / `freshsel serve`)
// as child processes when tracing is off.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/ingest.h"
#include "serve/protocol.h"

namespace freshsel::serve {
class Client;
}  // namespace freshsel::serve

namespace perfbench {

using freshsel::Result;
using freshsel::Status;
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::uint64_t ToNs(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;           ///< Tiny scenario, for the self-test.
  std::string freshsel;         ///< Path of the product binary.
  std::string work_root;        ///< Scratch directory inside the checkout.
  std::map<std::string, std::string> labels;

  /// BL scale: the `freshsel simulate` default (43 sources, ~85k
  /// entities), or a tiny world in smoke mode.
  double scale() const { return smoke ? 0.03 : 0.5; }
  /// Scenarios per run. A run spreads its work over several seeded
  /// scenarios so its numbers do not hinge on one scenario draw; a batch
  /// select costs the whole ingest of its scenario, so batch_select's
  /// median needs more draws. The serve workloads keep four, so their hot
  /// shapes stay well inside the daemon's 32-entry prepared cache.
  int scenarios() const {
    if (smoke) return 2;
    return workload == "batch_select" ? kMaxScenarios : 4;
  }
  static constexpr int kMaxScenarios = 8;
};

/// Everything one run prints: the contract's result line plus the
/// request accounting the doc page asks for.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t shed = 0;
  std::vector<std::string> errors;
  /// Context printed before the result line (not metrics).
  std::map<std::string, double> info;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness failure; the run's result reads incorrect.
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

// ---- stats.cc ------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Samples that lie strictly beyond the nearest-rank percentile `p`.
std::size_t CountBeyond(std::size_t n, double p);

// ---- scenario.cc ---------------------------------------------------------

/// A generated scenario on disk, in the `freshsel simulate` layout.
struct ScenarioFiles {
  std::string name;  ///< Resident name in the daemon ("s0", "s1", ...).
  std::uint64_t seed = 0;  ///< Its BL generator seed.
  std::string dir;
  std::vector<std::string> source_names;
  std::uint64_t bytes = 0;
};

/// Generates scenario `index` of the run (BL seed
/// `seed * Options::kMaxScenarios + index`, so runs never share one) with
/// workloads::GenerateBlScenario and writes it under `work` exactly as
/// `freshsel simulate` does.
Result<ScenarioFiles> GenerateAndWrite(const Options& options, int index,
                                       const std::string& work);

/// One query shape: the parameters plus the layer family it exercises
/// (greedy, maxsub, budgeted, grasp or matroid).
struct Shape {
  std::string label;
  std::string family;
  freshsel::serve::QueryParams params;
  double weight = 1.0;
};

/// The serve_hot shapes, covering every served algorithm family.
std::vector<Shape> HotShapes();
/// serve_mixed's hot shapes: greedy and maxsub, one prepared key.
std::vector<Shape> MixedHotShapes();
/// serve_mixed's cold pool for one scenario: budget sweeps, points/stride
/// variants and roster subsets in two orders. Over the run's scenarios the
/// pool holds more keys than the prepared cache.
std::vector<Shape> MixedPoolShapes(const std::vector<std::string>& sources,
                                   std::uint64_t seed);
/// `shapes` aimed at scenario `files` (label prefixed with its name).
std::vector<Shape> ForScenario(const std::vector<Shape>& shapes,
                               const ScenarioFiles& files);

/// The expected answer of one shape, from serve::ExecuteSelect.
struct Reference {
  std::string text;
  std::uint64_t oracle_calls = 0;
};

/// Ingests `dir` in-process through serve::IngestScenario (the daemon's
/// own path).
Result<std::shared_ptr<const freshsel::serve::ResidentScenario>> Ingest(
    const std::string& dir);

Result<Reference> ComputeReference(
    const std::shared_ptr<const freshsel::serve::ResidentScenario>& scenario,
    const freshsel::serve::QueryParams& params);

/// Ingests each scenario once and computes the reference of every shape
/// aimed at it; references are returned in `shapes` order.
Result<std::vector<Reference>> ComputeReferences(
    const std::vector<ScenarioFiles>& scenarios,
    const std::vector<Shape>& shapes);

// ---- proc.cc -------------------------------------------------------------

struct ChildResult {
  int exit_code = -1;
  std::string out;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< ru_maxrss: the child's VmHWM.
};

/// Runs `argv` to completion, capturing stdout (stderr is discarded).
Result<ChildResult> RunChild(const std::vector<std::string>& argv);

/// `freshsel serve` as a child daemon on a unix socket. Stop() (also run
/// by the destructor) sends SIGTERM and waits for the process to end.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts an empty daemon and blocks until it answers a ping.
  Status Start(const std::string& freshsel, const std::string& socket,
               const std::string& log);
  void Stop();
  /// Peak resident set of the running daemon (VmHWM), in MB.
  double PeakRssMb() const;
  const std::string& socket() const { return socket_; }

 private:
  int pid_ = -1;
  std::string socket_;
};

// ---- e2e.cc --------------------------------------------------------------

/// This run's private scratch directory under the work root (created).
std::string WorkDir(const Options& options);

/// Round trip (s) of one op:"load" of `files` over `client`. Every load of
/// a run goes over one connection, so ingest always runs on the same
/// daemon thread (and malloc arena), which keeps peak RSS repeatable.
Result<double> LoadScenario(freshsel::serve::Client* client,
                            const ScenarioFiles& files);

/// The end-to-end metrics every workload reports (trace off).
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  ///< Successful operations only.
  double window_s = 0.0;
  double completed = 0.0;  ///< Correct answers received within the window.
  double slo_ms = 0.0;
  std::vector<double> reload_s;
  double peak_rss_mb = 0.0;
};
void EmitEndToEnd(const EndToEnd& e2e, RunResult* result);

// ---- workloads -----------------------------------------------------------

class Tracer;

/// Each workload runs untraced against the product binaries, or (when
/// options.trace) traced in-process, recording spans into `tracer`.
RunResult RunBatchSelect(const Options& options, Tracer* tracer);
RunResult RunServe(const Options& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
