// serve_hot and serve_mixed: traffic from one generator process against a
// `freshsel serve` daemon on a unix socket, over the run's scenarios.

#include <filesystem>

#include "bench.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/client.h"

namespace perfbench {

namespace {

namespace fsv = freshsel::serve;

/// Latency limits for slo_ratio (BENCHMARK.json states them).
constexpr double kHotSloMs = 100.0;
constexpr double kMixedSloMs = 150.0;
/// serve_mixed's open loop: arrival rate, the pool's share of arrivals
/// and the reload period.
constexpr double kMixedRateQps = 220.0;
constexpr double kMixedPoolShare = 0.05;
constexpr double kMixedReloadPeriodS = 2.5;
/// Closed-loop connections (serve_hot) and query connections (serve_mixed,
/// whose reloads use one more): at most nproc = 4 in all.
constexpr int kQueryConnections = 3;
/// serve_hot's window is cut into this many slices, one reload after each.
constexpr int kHotSlices = 8;

bool Mixed(const Options& options) {
  return options.workload == "serve_mixed";
}

/// The hot shapes aimed at one scenario; warmed during set-up.
std::vector<Shape> HotFor(const Options& options, const ScenarioFiles& files) {
  return ForScenario(Mixed(options) ? MixedHotShapes() : HotShapes(), files);
}

/// Every shape of the run with its share of arrivals: the hot shapes of
/// each scenario, plus (serve_mixed) each scenario's pool.
std::vector<Shape> WorkloadShapes(const Options& options,
                                  const std::vector<ScenarioFiles>& scenarios) {
  std::vector<Shape> hot;
  std::vector<Shape> pool;
  for (const ScenarioFiles& files : scenarios) {
    for (Shape& shape : HotFor(options, files)) hot.push_back(std::move(shape));
    if (!Mixed(options)) continue;
    for (Shape& shape :
         ForScenario(MixedPoolShapes(files.source_names, files.seed), files)) {
      pool.push_back(std::move(shape));
    }
  }
  const double hot_share = pool.empty() ? 1.0 : 1.0 - kMixedPoolShare;
  double hot_total = 0.0;
  for (const Shape& shape : hot) hot_total += shape.weight;
  for (Shape& shape : hot) shape.weight *= hot_share / hot_total;
  for (Shape& shape : pool) {
    shape.weight = kMixedPoolShare / static_cast<double>(pool.size());
    hot.push_back(std::move(shape));
  }
  return hot;
}

/// Sends each shape once so the prepared cache holds it.
Status Warm(fsv::Client* client, const std::vector<Shape>& shapes) {
  for (const Shape& shape : shapes) {
    FRESHSEL_ASSIGN_OR_RETURN(
        const std::string response,
        client->Call(fsv::SerializeQueryRequest(true, 1, shape.params)));
    if (response.find("\"ok\":true") == std::string::npos) {
      return Status::Internal("warm-up query failed: " + response);
    }
  }
  return Status::OK();
}

LoadSpec MakeSpec(const Options& options, const std::string& socket,
                  const std::vector<Shape>* shapes,
                  const std::vector<Reference>* references,
                  const std::vector<ScenarioFiles>* scenarios) {
  LoadSpec spec;
  spec.socket = socket;
  spec.shapes = shapes;
  spec.references = references;
  spec.connections = kQueryConnections;
  spec.seconds = options.seconds;
  spec.seed = options.seed;
  if (Mixed(options)) {
    spec.open_loop = true;
    spec.rate_qps = kMixedRateQps;
    spec.reloads = scenarios;
    spec.reload_period_s = kMixedReloadPeriodS;
  }
  return spec;
}

/// serve_hot's window: kHotSlices closed-loop slices of equal length, each
/// followed by one op:"load" over `admin` with no query in flight. Every
/// query stays a prepared-cache hit because each reload loads the next
/// scenario under a spare name; reloading a queried scenario would bump
/// its epoch. Slicing spreads the reloads over the run like the queries.
Status HotSlices(const LoadSpec& spec, fsv::Client* admin,
                 const std::vector<ScenarioFiles>& scenarios,
                 LoadResult* load, std::vector<double>* reload_s) {
  LoadSpec slice = spec;
  slice.seconds = spec.seconds / kHotSlices;
  for (int k = 0; k < kHotSlices; ++k) {
    slice.seed = spec.seed * kHotSlices + static_cast<std::uint64_t>(k);
    LoadResult part = RunLoad(slice);
    load->samples.insert(load->samples.end(), part.samples.begin(),
                         part.samples.end());
    load->sent += part.sent;
    load->unsent += part.unsent;
    load->succeeded += part.succeeded;
    load->failed += part.failed;
    load->shed += part.shed;
    load->completed_in_window += part.completed_in_window;
    load->window_s += part.window_s;
    load->errors.insert(load->errors.end(), part.errors.begin(),
                        part.errors.end());
    ScenarioFiles target = scenarios[static_cast<std::size_t>(k) %
                                     scenarios.size()];
    target.name = "reload";
    FRESHSEL_ASSIGN_OR_RETURN(const double round_trip,
                              LoadScenario(admin, target));
    reload_s->push_back(round_trip);
  }
  return Status::OK();
}

void Account(const LoadResult& load, RunResult* result) {
  result->sent += load.sent;
  result->attempted += load.sent + load.unsent;
  result->succeeded += load.succeeded;
  result->failed += load.failed;
  result->shed += load.shed;
  for (const std::string& error : load.errors) result->Fail(error);
}

RunResult Untraced(const Options& options, const std::string& work) {
  RunResult result;
  const std::string socket = work + "/d.sock";
  EndToEnd e2e;
  e2e.slo_ms = Mixed(options) ? kMixedSloMs : kHotSloMs;
  Daemon daemon;
  Status status =
      daemon.Start(options.freshsel, socket, work + "/daemon.log");
  Result<fsv::Client> admin =
      status.ok() ? fsv::Client::ConnectUnix(socket) : status;
  status = admin.status();
  // Set-up per scenario: generate + write it, op:"load" it into the
  // daemon (ingest), warm its hot shapes.
  std::vector<ScenarioFiles> scenarios;
  for (int i = 0; status.ok() && i < options.scenarios(); ++i) {
    const Clock::time_point start = Clock::now();
    Result<ScenarioFiles> files = GenerateAndWrite(options, i, work);
    status = files.status();
    if (status.ok()) status = LoadScenario(&*admin, *files).status();
    if (status.ok()) status = Warm(&*admin, HotFor(options, *files));
    if (status.ok()) {
      e2e.setup_s.push_back(SecondsBetween(start, Clock::now()));
      scenarios.push_back(*files);
    }
  }
  const std::vector<Shape> shapes = WorkloadShapes(options, scenarios);
  Result<std::vector<Reference>> references =
      status.ok() ? ComputeReferences(scenarios, shapes) : status;
  if (!references.ok()) {
    result.Fail("set-up: " + references.status().ToString());
    return result;
  }
  const LoadSpec spec =
      MakeSpec(options, socket, &shapes, &*references, &scenarios);
  LoadResult load;
  if (Mixed(options)) {
    load = RunLoad(spec);
  } else {
    status = HotSlices(spec, &*admin, scenarios, &load, &e2e.reload_s);
    if (!status.ok()) result.Fail("reload: " + status.ToString());
  }
  Account(load, &result);
  std::vector<double> late;
  for (const Sample& sample : load.samples) {
    late.push_back(sample.late_ms);
    if (sample.ok) e2e.latency_ms.push_back(sample.latency_ms);
  }
  e2e.window_s = load.window_s;
  e2e.completed = static_cast<double>(load.completed_in_window);
  e2e.peak_rss_mb = daemon.PeakRssMb();
  if (Mixed(options)) e2e.reload_s = load.reload_s;
  daemon.Stop();
  result.info["loadgen.late_p99_ms"] = Percentile(late, 0.99);
  EmitEndToEnd(e2e, &result);
  return result;
}

RunResult Traced(const Options& options, const std::string& work,
                 Tracer* tracer) {
  RunResult result;
  const std::string socket = work + "/p.sock";
  // Per scenario: generate it, replay the daemon's ingest through the
  // public io / estimation calls, and prepare + execute each of its shapes
  // (and each algorithm family) outside the server.
  std::vector<ScenarioFiles> scenarios;
  for (int i = 0; i < options.scenarios(); ++i) {
    Result<ScenarioFiles> files = GenerateAndWrite(options, i, work);
    if (!files.ok()) {
      result.Fail("set-up: " + files.status().ToString());
      return result;
    }
    scenarios.push_back(*files);
  }
  const std::vector<Shape> shapes = WorkloadShapes(options, scenarios);
  LayerSamples samples;
  for (const ScenarioFiles& files : scenarios) {
    const std::int64_t root = tracer->Open("serve.ingest", Clock::now());
    Result<std::shared_ptr<const fsv::ResidentScenario>> learned =
        TimedIngest(files.dir, files.bytes, tracer, root, &samples);
    tracer->Close(root, Clock::now());
    // Every algorithm family, then the rest of this scenario's shapes.
    std::vector<Shape> own;
    for (const Shape& shape : shapes) {
      if (shape.params.scenario == files.name) own.push_back(shape);
    }
    const Status probe =
        learned.ok()
            ? ProbeSelection(*learned,
                             UnionByLabel(ForScenario(HotShapes(), files), own),
                             3, tracer, &samples)
            : learned.status();
    if (!probe.ok()) {
      result.Fail("probe: " + probe.ToString());
      return result;
    }
  }
  Result<std::vector<Reference>> references =
      ComputeReferences(scenarios, shapes);
  InProcessServer server;
  Status status = references.ok() ? server.Start(scenarios, socket, tracer)
                                  : references.status();
  if (status.ok()) {
    tracer->SetActive(false);
    Result<fsv::Client> client = fsv::Client::ConnectUnix(socket);
    status = client.status();
    for (const ScenarioFiles& files : scenarios) {
      if (status.ok()) status = Warm(&*client, HotFor(options, files));
    }
    tracer->SetActive(true);
  }
  if (!status.ok()) {
    result.Fail("in-process server: " + status.ToString());
    return result;
  }
  LoadSpec spec = MakeSpec(options, socket, &shapes, &*references, &scenarios);
  spec.tracer = tracer;
  spec.trace_phase_s = 0.5;
  const LoadResult load = TracedLoad(&server, spec, &samples);
  Account(load, &result);
  EmitLayerMetrics(samples, &result);
  return result;
}

}  // namespace

RunResult RunServe(const Options& options, Tracer* tracer) {
  const std::string work = WorkDir(options);
  RunResult result = options.trace ? Traced(options, work, tracer)
                                   : Untraced(options, work);
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  return result;
}

}  // namespace perfbench
