#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

// The traced run's per-layer measurements. Every number here comes from
// timing a call into a module's public function from the benchmark's side
// of the call; nothing is instrumented inside the library.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "tracer.h"

namespace perfbench {

/// Everything the per-layer metrics are computed from.
struct LayerSamples {
  // io (serve::ReadScenarioDir) and estimation learning.
  std::vector<double> io_read_s, io_mb_per_s, io_rows;
  std::vector<double> world_learn_s, profiles_learn_s, km_fits, fitted_ratio;
  // serve.engine.
  std::vector<double> prepare_ms, query_ms, prepare_wait_ms;
  double prepared_hit_ratio = 0.0;
  // selection, per algorithm family, and per-request work counts.
  std::map<std::string, std::vector<double>> execute_ms;
  std::vector<double> oracle_calls, cache_hit_rate;
  std::vector<double> delta_evals, full_evals;
  // serve.protocol and transport.
  std::vector<double> parse_us, serialize_us, response_bytes;
  std::vector<double> transport_overhead_ms;
  double overloaded = 0.0;
  // Generator validity and tracing cost.
  std::vector<double> late_ms;
  std::vector<double> traced_latency_ms, untraced_latency_ms;
};

/// Value of a global obs counter (for before/after deltas).
double CounterValue(const char* name);

/// The traced run's RequestHandler: forwards to EngineHandler and times
/// Engine::ExecuteQuery, the request's own select stage (from a forced
/// per-request report) and serve::SerializeQueryOutcome.
class TimingHandler : public freshsel::serve::RequestHandler {
 public:
  TimingHandler(freshsel::serve::Engine* engine, Tracer* tracer)
      : inner_(engine), tracer_(tracer) {}

  Result<freshsel::serve::QueryOutcome> HandleQuery(
      const freshsel::serve::QueryParams& params) override;
  Result<freshsel::serve::ScenarioInfo> HandleLoad(
      const freshsel::serve::LoadParams& params) override {
    return inner_.HandleLoad(params);
  }
  std::vector<freshsel::serve::ScenarioInfo> ListScenarios() override {
    return inner_.ListScenarios();
  }
  std::string MetricsText() override { return inner_.MetricsText(); }

  /// Moves this handler's samples into `samples`.
  void DrainInto(LayerSamples* samples);

 private:
  freshsel::serve::EngineHandler inner_;
  Tracer* const tracer_;
  std::mutex mutex_;
  /// Connection thread -> (connection index, next request sequence).
  std::map<std::thread::id, std::pair<int, std::int64_t>> conns_;
  LayerSamples samples_;
};

/// A daemon in the benchmark's own process (registry, engine, timing
/// handler, server) for the traced run.
class InProcessServer {
 public:
  /// Loads `scenarios` and starts serving on `socket`.
  Status Start(const std::vector<ScenarioFiles>& scenarios,
               const std::string& socket, Tracer* tracer);
  ~InProcessServer();
  freshsel::serve::Engine& engine() { return *engine_; }
  TimingHandler& handler() { return *handler_; }

 private:
  freshsel::serve::ScenarioRegistry registry_;
  std::unique_ptr<freshsel::serve::Engine> engine_;
  std::unique_ptr<TimingHandler> handler_;
  std::unique_ptr<freshsel::serve::Server> server_;
};

/// Reads and learns `dir` through the public io / estimation calls that
/// serve::LearnScenario makes, timing each; spans go under `parent`.
Result<std::shared_ptr<const freshsel::serve::ResidentScenario>> TimedIngest(
    const std::string& dir, std::uint64_t dir_bytes, Tracer* tracer,
    std::int64_t parent, LayerSamples* samples);

/// Times serve::PrepareQuery once and serve::ExecutePrepared `repeats`
/// times for each shape; `selection.<family>.execute` spans.
Status ProbeSelection(
    const std::shared_ptr<const freshsel::serve::ResidentScenario>& scenario,
    const std::vector<Shape>& shapes, int repeats, Tracer* tracer,
    LayerSamples* samples);

/// Runs `spec` against an in-process server and folds the generator's and
/// the handler's samples, the prepared-cache hit ratio and the per-request
/// evaluation counts into `samples`.
LoadResult TracedLoad(InProcessServer* server, const LoadSpec& spec,
                      LayerSamples* samples);

/// Appends every per-layer metric to `result`.
void EmitLayerMetrics(const LayerSamples& samples, RunResult* result);

/// Every shape of `a` followed by the shapes of `b` whose label is new.
std::vector<Shape> UnionByLabel(std::vector<Shape> a,
                                const std::vector<Shape>& b);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
