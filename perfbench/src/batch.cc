// batch_select: repeated default `freshsel select` runs (maxsub, coverage,
// linear), each a child process that loads, learns, prepares and selects.
// Runs cycle over the run's scenarios.

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "bench.h"
#include "layers.h"
#include "obs/report.h"
#include "serve/client.h"
#include "serve/engine.h"

namespace perfbench {

namespace {

namespace fsv = freshsel::serve;

/// Latency limit of one batch select for slo_ratio (BENCHMARK.json).
constexpr double kBatchSloMs = 2000.0;
/// One op:"load" reload after this many selects.
constexpr std::size_t kSelectsPerReload = 3;
/// Scenarios the traced run's selection and served probes cover.
constexpr std::size_t kProbeScenarios = 4;

/// The default `freshsel select`, once per scenario.
std::vector<Shape> DefaultSelects(const std::vector<ScenarioFiles>& scenarios) {
  std::vector<Shape> shapes;
  for (const ScenarioFiles& files : scenarios) {
    const std::vector<Shape> one =
        ForScenario({Shape{"maxsub", "maxsub", fsv::QueryParams(), 1}}, files);
    shapes.push_back(one.front());
  }
  return shapes;
}

Clock::time_point Deadline(const Options& options) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(options.seconds));
}

RunResult Untraced(const Options& options, const std::string& work) {
  RunResult result;
  EndToEnd e2e;
  e2e.slo_ms = kBatchSloMs;
  // Set-up per scenario: generate + write it, one warm select.
  std::vector<ScenarioFiles> scenarios;
  for (int i = 0; i < options.scenarios(); ++i) {
    const Clock::time_point start = Clock::now();
    Result<ScenarioFiles> files = GenerateAndWrite(options, i, work);
    Result<ChildResult> warm =
        files.ok() ? RunChild({options.freshsel, "select", "--dir", files->dir})
                   : files.status();
    if (!warm.ok() || warm->exit_code != 0) {
      result.Fail("set-up: " + (warm.ok() ? "select exit " +
                                                std::to_string(warm->exit_code)
                                          : warm.status().ToString()));
      return result;
    }
    e2e.setup_s.push_back(SecondsBetween(start, Clock::now()));
    scenarios.push_back(*files);
  }
  Result<std::vector<Reference>> references =
      ComputeReferences(scenarios, DefaultSelects(scenarios));
  if (!references.ok()) {
    result.Fail("reference: " + references.status().ToString());
    return result;
  }

  // reload_s: op:"load" round trips into an idle daemon (batch has no
  // daemon of its own), one after every kSelectsPerReload selects, so they
  // sample the same stretch of time as the selects. Each loads the next
  // scenario under one name, so the daemon holds a single scenario.
  Daemon daemon;
  const std::string socket = work + "/d.sock";
  const Status started =
      daemon.Start(options.freshsel, socket, work + "/daemon.log");
  Result<fsv::Client> admin =
      started.ok() ? fsv::Client::ConnectUnix(socket) : started;
  if (!admin.ok()) {
    result.Fail("reload daemon: " + admin.status().ToString());
    return result;
  }

  std::vector<std::string> first_output(scenarios.size());
  std::vector<double> rss;
  std::size_t reloads = 0;
  const Clock::time_point deadline = Deadline(options);
  for (std::size_t n = 0; Clock::now() < deadline || n < kSelectsPerReload;
       ++n) {
    const std::size_t i = n % scenarios.size();
    Result<ChildResult> run =
        RunChild({options.freshsel, "select", "--dir", scenarios[i].dir});
    ++result.attempted;
    ++result.sent;
    std::string error;
    if (!run.ok()) {
      error = run.status().ToString();
    } else if (run->exit_code != 0) {
      error = "select exit " + std::to_string(run->exit_code);
    } else {
      if (first_output[i].empty()) first_output[i] = run->out;
      if (run->out != first_output[i]) {
        error = "batch output differs across repeats on " + scenarios[i].name;
      } else if (!run->out.ends_with((*references)[i].text)) {
        error = "batch output differs from serve::ExecuteSelect on " +
                scenarios[i].name;
      }
    }
    if (!error.empty()) {
      ++result.failed;
      result.Fail(error);
    } else {
      ++result.succeeded;
      e2e.latency_ms.push_back(run->wall_s * 1e3);
      // Selects run one at a time, so busy time is the sum of their walls.
      e2e.window_s += run->wall_s;
      rss.push_back(run->peak_rss_mb);
    }
    if ((n + 1) % kSelectsPerReload != 0) continue;
    ScenarioFiles target = scenarios[reloads++ % scenarios.size()];
    target.name = "reload";
    Result<double> load = LoadScenario(&*admin, target);
    if (!load.ok()) {
      result.Fail("reload: " + load.status().ToString());
      return result;
    }
    e2e.reload_s.push_back(*load);
  }
  daemon.Stop();
  e2e.completed = static_cast<double>(e2e.latency_ms.size());
  e2e.peak_rss_mb = Median(rss);
  EmitEndToEnd(e2e, &result);
  return result;
}

/// One in-process batch select: the io, estimation, engine and selection
/// calls `freshsel select` makes, timed from outside; spans when traced.
Status BatchOp(const ScenarioFiles& files, Tracer* tracer, std::int64_t root,
               LayerSamples* samples, std::string* text,
               fsv::QueryOutcome* outcome, freshsel::obs::RunReport* report) {
  FRESHSEL_ASSIGN_OR_RETURN(
      const std::shared_ptr<const fsv::ResidentScenario> learned,
      TimedIngest(files.dir, files.bytes, tracer, root, samples));
  const fsv::QueryParams params;
  const Clock::time_point prepare_start = Clock::now();
  FRESHSEL_ASSIGN_OR_RETURN(const std::shared_ptr<const fsv::PreparedQuery>
                                prepared,
                            fsv::PrepareQuery(learned, params));
  const Clock::time_point prepare_end = Clock::now();
  std::ostringstream out;
  FRESHSEL_RETURN_IF_ERROR(
      fsv::ExecutePrepared(*prepared, params, out, report, outcome));
  if (tracer != nullptr) {
    tracer->Record("engine.prepare", prepare_start, prepare_end, root);
    tracer->Record("selection.maxsub.execute", prepare_end, Clock::now(),
                   root);
  }
  *text = out.str();
  return Status::OK();
}

RunResult Traced(const Options& options, const std::string& work,
                 Tracer* tracer) {
  RunResult result;
  std::vector<ScenarioFiles> scenarios;
  for (int i = 0; i < options.scenarios(); ++i) {
    Result<ScenarioFiles> files = GenerateAndWrite(options, i, work);
    if (!files.ok()) {
      result.Fail("set-up: " + files.status().ToString());
      return result;
    }
    scenarios.push_back(*files);
  }
  const std::vector<Shape> selects = DefaultSelects(scenarios);
  Result<std::vector<Reference>> references =
      ComputeReferences(scenarios, selects);
  if (!references.ok()) {
    result.Fail("reference: " + references.status().ToString());
    return result;
  }

  // The batch pipeline in-process, op by op; every other pass over the
  // scenarios records spans, so the same run measures the tracing cost.
  LayerSamples samples;
  const Clock::time_point deadline = Deadline(options);
  Clock::time_point due = Clock::now();
  for (std::size_t op = 0;
       Clock::now() < deadline || op < 2 * scenarios.size(); ++op) {
    const std::size_t i = op % scenarios.size();
    const bool traced = (op / scenarios.size()) % 2 == 1;
    ++result.attempted;
    ++result.sent;
    const Clock::time_point start = Clock::now();
    samples.late_ms.push_back(SecondsBetween(due, start) * 1e3);
    const std::int64_t root = traced ? tracer->Open("batch.op", start) : -1;
    const double delta_before = CounterValue("estimation.delta.evals");
    const double full_before = CounterValue("estimation.full.evals");
    std::string text;
    fsv::QueryOutcome outcome;
    freshsel::obs::RunReport report;
    const Status status = BatchOp(scenarios[i], traced ? tracer : nullptr,
                                  root, &samples, &text, &outcome, &report);
    const Clock::time_point end = Clock::now();
    due = end;
    if (traced) tracer->Close(root, end);
    if (!status.ok() || text != (*references)[i].text) {
      ++result.failed;
      result.Fail(status.ok() ? "in-process batch text differs on " +
                                    scenarios[i].name
                              : status.ToString());
      continue;
    }
    ++result.succeeded;
    (traced ? samples.traced_latency_ms : samples.untraced_latency_ms)
        .push_back(SecondsBetween(start, end) * 1e3);
    samples.oracle_calls.push_back(static_cast<double>(outcome.oracle_calls));
    samples.cache_hit_rate.push_back(report.values["cache_hit_rate"]);
    samples.delta_evals.push_back(CounterValue("estimation.delta.evals") -
                                  delta_before);
    samples.full_evals.push_back(CounterValue("estimation.full.evals") -
                                 full_before);
  }

  // Layers batch does not drive itself: every algorithm family on the
  // first scenarios, and a short served probe for engine, protocol and
  // transport.
  const std::vector<ScenarioFiles> probed(
      scenarios.begin(),
      scenarios.begin() + std::min(kProbeScenarios, scenarios.size()));
  std::vector<Shape> probe_shapes;
  for (const ScenarioFiles& files : probed) {
    Result<std::shared_ptr<const fsv::ResidentScenario>> scenario =
        Ingest(files.dir);
    const std::vector<Shape> shapes = ForScenario(HotShapes(), files);
    const Status probe =
        scenario.ok() ? ProbeSelection(*scenario, shapes, 3, tracer, &samples)
                      : scenario.status();
    if (!probe.ok()) {
      result.Fail("probe: " + probe.ToString());
      return result;
    }
    probe_shapes.insert(probe_shapes.end(), shapes.begin(), shapes.end());
  }
  Result<std::vector<Reference>> probe_references =
      ComputeReferences(probed, probe_shapes);
  InProcessServer server;
  const std::string socket = work + "/p.sock";
  const Status started = probe_references.ok()
                             ? server.Start(probed, socket, tracer)
                             : probe_references.status();
  if (!started.ok()) {
    result.Fail("served probe: " + started.ToString());
    return result;
  }
  LoadSpec spec;
  spec.socket = socket;
  spec.shapes = &probe_shapes;
  spec.references = &*probe_references;
  spec.connections = 1;
  spec.seed = options.seed;
  spec.requests_per_connection = 3 * probe_shapes.size();
  spec.tracer = tracer;
  LayerSamples served;
  const LoadResult load = TracedLoad(&server, spec, &served);
  if (load.failed > 0) {
    result.Fail("served probe: " +
                (load.errors.empty() ? std::string("failed") : load.errors[0]));
  }
  samples.query_ms = served.query_ms;
  samples.prepare_wait_ms = served.prepare_wait_ms;
  samples.prepared_hit_ratio = served.prepared_hit_ratio;
  samples.parse_us = served.parse_us;
  samples.serialize_us = served.serialize_us;
  samples.response_bytes = served.response_bytes;
  samples.transport_overhead_ms = served.transport_overhead_ms;
  samples.overloaded = served.overloaded;
  EmitLayerMetrics(samples, &result);
  return result;
}

}  // namespace

RunResult RunBatchSelect(const Options& options, Tracer* tracer) {
  const std::string work = WorkDir(options);
  RunResult result = options.trace ? Traced(options, work, tracer)
                                   : Untraced(options, work);
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  return result;
}

}  // namespace perfbench
