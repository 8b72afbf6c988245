#include "layers.h"

#include <charconv>
#include <sstream>
#include <string_view>

#include "estimation/degradation.h"
#include "estimation/world_change_model.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace perfbench {

namespace fsv = freshsel::serve;

double CounterValue(const char* name) {
  return static_cast<double>(
      freshsel::obs::MetricsRegistry::Global().GetCounter(name).Value());
}

namespace {

/// Seconds in the report's "select/*" stages and its cache hit rate.
void ReadReport(const std::string& report_json, double* select_s,
                double* hit_rate) {
  *select_s = 0.0;
  *hit_rate = 0.0;
  Result<freshsel::obs::JsonValue> doc =
      freshsel::obs::ParseJson(report_json);
  if (!doc.ok()) return;
  if (const freshsel::obs::JsonValue* stages = doc->Find("stages")) {
    for (const freshsel::obs::JsonValue& stage : stages->items()) {
      if (stage.StringOr("name", "").rfind("select/", 0) == 0) {
        *select_s += stage.NumberOr("seconds", 0.0);
      }
    }
  }
  if (const freshsel::obs::JsonValue* values = doc->Find("values")) {
    *hit_rate = values->NumberOr("cache_hit_rate", 0.0);
  }
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e3;
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

Result<fsv::QueryOutcome> TimingHandler::HandleQuery(
    const fsv::QueryParams& params) {
  const Clock::time_point start = Clock::now();
  const std::string bind = BindScenario(0);
  const std::string_view prefix(bind.data(), bind.size() - 1);
  if (params.scenario.rfind(prefix, 0) == 0) {
    int conn = -1;
    std::from_chars(params.scenario.data() + prefix.size(),
                    params.scenario.data() + params.scenario.size(), conn);
    std::lock_guard<std::mutex> lock(mutex_);
    conns_[std::this_thread::get_id()] = {conn, 0};
    return Status::NotFound("bind probe");
  }
  int conn = -1;
  std::int64_t seq = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = conns_.find(std::this_thread::get_id());
    if (it != conns_.end()) {
      conn = it->second.first;
      seq = it->second.second++;
    }
  }
  if (!tracer_->active()) return inner_.HandleQuery(params);

  fsv::QueryParams forced = params;
  forced.include_report = true;
  const Clock::time_point query_start = Clock::now();
  Result<fsv::QueryOutcome> outcome = inner_.HandleQuery(forced);
  const Clock::time_point query_end = Clock::now();
  double select_s = 0.0;
  double hit_rate = 0.0;
  Clock::time_point serialize_start = query_end;
  Clock::time_point serialize_end = query_end;
  std::size_t bytes = 0;
  if (outcome.ok()) {
    ReadReport(outcome->report_json, &select_s, &hit_rate);
    if (!params.include_report) outcome->report_json.clear();
    serialize_start = Clock::now();
    bytes = fsv::SerializeQueryOutcome(true, 0, *outcome).size();
    serialize_end = Clock::now();
  }
  Span handle;
  handle.name = "server.handle";
  handle.start_ns = ToNs(start);
  handle.end_ns = ToNs(Clock::now());
  handle.conn = conn;
  handle.seq = seq;
  const std::int64_t parent = tracer_->Record(std::move(handle));
  tracer_->Record("engine.query", query_start, query_end, parent);
  tracer_->Record("protocol.serialize", serialize_start, serialize_end,
                  parent);
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.query_ms.push_back(Ms(query_start, query_end));
  if (outcome.ok()) {
    samples_.prepare_wait_ms.push_back(Ms(query_start, query_end) -
                                       select_s * 1e3);
    samples_.serialize_us.push_back(Ms(serialize_start, serialize_end) * 1e3);
    samples_.response_bytes.push_back(static_cast<double>(bytes));
    samples_.oracle_calls.push_back(static_cast<double>(outcome->oracle_calls));
    samples_.cache_hit_rate.push_back(hit_rate);
  }
  return outcome;
}

void TimingHandler::DrainInto(LayerSamples* samples) {
  std::lock_guard<std::mutex> lock(mutex_);
  Append(&samples->query_ms, samples_.query_ms);
  Append(&samples->prepare_wait_ms, samples_.prepare_wait_ms);
  Append(&samples->serialize_us, samples_.serialize_us);
  Append(&samples->response_bytes, samples_.response_bytes);
  Append(&samples->oracle_calls, samples_.oracle_calls);
  Append(&samples->cache_hit_rate, samples_.cache_hit_rate);
  samples_ = LayerSamples();
}

Status InProcessServer::Start(const std::vector<ScenarioFiles>& scenarios,
                              const std::string& socket, Tracer* tracer) {
  engine_ = std::make_unique<fsv::Engine>(&registry_);
  for (const ScenarioFiles& files : scenarios) {
    FRESHSEL_RETURN_IF_ERROR(
        registry_.Load(files.name, files.dir, fsv::IngestOptions()).status());
  }
  handler_ = std::make_unique<TimingHandler>(engine_.get(), tracer);
  fsv::Server::Options options;
  options.unix_socket = socket;
  server_ = std::make_unique<fsv::Server>(handler_.get(), options);
  return server_->Start();
}

InProcessServer::~InProcessServer() {
  if (server_ != nullptr) server_->Stop();
}

Result<std::shared_ptr<const fsv::ResidentScenario>> TimedIngest(
    const std::string& dir, std::uint64_t dir_bytes, Tracer* tracer,
    std::int64_t parent, LayerSamples* samples) {
  const double rows_before = CounterValue("io.world_rows.read") +
                             CounterValue("io.source_rows.read");
  const double fits_before = CounterValue("estimation.km.fits");
  const Clock::time_point read_start = Clock::now();
  FRESHSEL_ASSIGN_OR_RETURN(
      fsv::ScenarioDirData data,
      fsv::ReadScenarioDir(dir, freshsel::fault::RetryPolicy()));
  const Clock::time_point world_start = Clock::now();
  const freshsel::TimePoint t0 = data.manifest_t0;
  FRESHSEL_ASSIGN_OR_RETURN(
      freshsel::estimation::WorldChangeModel world_model,
      freshsel::estimation::WorldChangeModel::Learn(data.world, t0));
  const Clock::time_point profiles_start = Clock::now();
  FRESHSEL_ASSIGN_OR_RETURN(
      freshsel::estimation::RobustProfiles robust,
      freshsel::estimation::LearnSourceProfilesRobust(
          data.world, data.sources, t0,
          freshsel::estimation::DegradationMode::kDegrade));
  const Clock::time_point end = Clock::now();
  if (tracer != nullptr) {
    tracer->Record("io.read", read_start, world_start, parent);
    tracer->Record("estimation.world_learn", world_start, profiles_start,
                   parent);
    tracer->Record("estimation.profiles_learn", profiles_start, end, parent);
  }
  const double read_s = SecondsBetween(read_start, world_start);
  samples->io_read_s.push_back(read_s);
  samples->io_mb_per_s.push_back(static_cast<double>(dir_bytes) / 1e6 / read_s);
  samples->io_rows.push_back(CounterValue("io.world_rows.read") +
                             CounterValue("io.source_rows.read") - rows_before);
  samples->world_learn_s.push_back(SecondsBetween(world_start, profiles_start));
  samples->profiles_learn_s.push_back(SecondsBetween(profiles_start, end));
  samples->km_fits.push_back(CounterValue("estimation.km.fits") - fits_before);
  const double total = static_cast<double>(robust.report.total_sources);
  samples->fitted_ratio.push_back(
      total > 0 ? (total - static_cast<double>(robust.report.degraded.size())) /
                      total
                : 0.0);
  return std::make_shared<const fsv::ResidentScenario>(fsv::ResidentScenario{
      "default", 0, std::move(data.world), t0, std::move(world_model),
      std::move(robust.profiles), std::move(robust.report)});
}

Status ProbeSelection(
    const std::shared_ptr<const fsv::ResidentScenario>& scenario,
    const std::vector<Shape>& shapes, int repeats, Tracer* tracer,
    LayerSamples* samples) {
  for (const Shape& shape : shapes) {
    const Clock::time_point prepare_start = Clock::now();
    FRESHSEL_ASSIGN_OR_RETURN(const std::shared_ptr<const fsv::PreparedQuery>
                                  prepared,
                              fsv::PrepareQuery(scenario, shape.params));
    const Clock::time_point prepare_end = Clock::now();
    samples->prepare_ms.push_back(Ms(prepare_start, prepare_end));
    const std::int64_t parent =
        tracer != nullptr
            ? tracer->Record("engine.prepare", prepare_start, prepare_end)
            : -1;
    for (int r = 0; r < repeats; ++r) {
      std::ostringstream text;
      freshsel::obs::RunReport report;
      const Clock::time_point start = Clock::now();
      FRESHSEL_RETURN_IF_ERROR(
          fsv::ExecutePrepared(*prepared, shape.params, text, &report));
      const Clock::time_point end = Clock::now();
      samples->execute_ms[shape.family].push_back(Ms(start, end));
      if (tracer != nullptr) {
        tracer->Record("selection." + shape.family + ".execute", start, end,
                       parent);
      }
    }
  }
  return Status::OK();
}

LoadResult TracedLoad(InProcessServer* server, const LoadSpec& spec,
                      LayerSamples* samples) {
  const fsv::Engine::CacheStats before = server->engine().prepared_cache_stats();
  const double delta_before = CounterValue("estimation.delta.evals");
  const double full_before = CounterValue("estimation.full.evals");
  LoadResult load = RunLoad(spec);
  const double queries = static_cast<double>(load.samples.size());
  if (queries > 0) {
    samples->delta_evals.push_back(
        (CounterValue("estimation.delta.evals") - delta_before) / queries);
    samples->full_evals.push_back(
        (CounterValue("estimation.full.evals") - full_before) / queries);
  }
  const fsv::Engine::CacheStats after = server->engine().prepared_cache_stats();
  const double lookups =
      static_cast<double>(after.hits + after.misses - before.hits - before.misses);
  samples->prepared_hit_ratio =
      lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0;
  server->handler().DrainInto(samples);
  Append(&samples->parse_us, load.parse_us);
  for (const Sample& sample : load.samples) {
    samples->late_ms.push_back(sample.late_ms);
    if (!sample.ok) continue;
    (sample.traced ? samples->traced_latency_ms : samples->untraced_latency_ms)
        .push_back(sample.latency_ms);
  }
  // Transport overhead: the client's Call minus the server-side handler
  // span of the same request.
  spec.tracer->LinkRequests();
  Append(&samples->transport_overhead_ms,
         spec.tracer->ParentGapsMs("transport.call", "server.handle"));
  samples->overloaded += static_cast<double>(load.shed);
  return load;
}

void EmitLayerMetrics(const LayerSamples& s, RunResult* result) {
  result->Add("io.read_s", Median(s.io_read_s), "s");
  result->Add("io.mb_per_s", Median(s.io_mb_per_s), "MB/s");
  result->Add("io.rows", Median(s.io_rows), "count");
  result->Add("estimation.world_learn_s", Median(s.world_learn_s), "s");
  result->Add("estimation.profiles_learn_s", Median(s.profiles_learn_s), "s");
  result->Add("estimation.km_fits", Median(s.km_fits), "count");
  result->Add("estimation.fitted_ratio", Median(s.fitted_ratio), "ratio");
  result->Add("engine.prepare_ms", Median(s.prepare_ms), "ms");
  result->Add("engine.query_ms.p50", Percentile(s.query_ms, 0.5), "ms");
  result->Add("engine.query_ms.p99", Percentile(s.query_ms, 0.99), "ms");
  result->Add("engine.prepare_wait_ms.p50", Percentile(s.prepare_wait_ms, 0.5),
              "ms");
  result->Add("engine.prepare_wait_ms.p99",
              Percentile(s.prepare_wait_ms, 0.99), "ms");
  result->Add("engine.prepared_hit_ratio", s.prepared_hit_ratio, "ratio");
  for (const char* family : {"greedy", "maxsub", "budgeted", "grasp", "matroid"}) {
    const auto it = s.execute_ms.find(family);
    result->Add(std::string("selection.") + family + ".execute_ms",
                it == s.execute_ms.end() ? 0.0 : Median(it->second), "ms");
  }
  result->Add("selection.oracle_calls", Median(s.oracle_calls), "count");
  double hit_sum = 0.0;
  for (double rate : s.cache_hit_rate) hit_sum += rate;
  result->Add("selection.cache_hit_rate",
              s.cache_hit_rate.empty()
                  ? 0.0
                  : hit_sum / static_cast<double>(s.cache_hit_rate.size()),
              "ratio");
  result->Add("estimation.delta_evals", Median(s.delta_evals), "count");
  result->Add("estimation.full_evals", Median(s.full_evals), "count");
  result->Add("protocol.parse_us", Median(s.parse_us), "us");
  result->Add("protocol.serialize_us", Median(s.serialize_us), "us");
  result->Add("protocol.response_bytes", Median(s.response_bytes), "bytes");
  result->Add("transport.overhead_ms.p50",
              Percentile(s.transport_overhead_ms, 0.5), "ms");
  result->Add("transport.overhead_ms.p99",
              Percentile(s.transport_overhead_ms, 0.99), "ms");
  result->Add("transport.overloaded", s.overloaded, "count");
  result->Add("loadgen.late_p99_ms", Percentile(s.late_ms, 0.99), "ms");
  const double untraced = Percentile(s.untraced_latency_ms, 0.5);
  result->Add("obs.trace_overhead",
              untraced > 0 ? Percentile(s.traced_latency_ms, 0.5) / untraced
                           : 0.0,
              "ratio");
}

std::vector<Shape> UnionByLabel(std::vector<Shape> a,
                                const std::vector<Shape>& b) {
  for (const Shape& shape : b) {
    bool seen = false;
    for (const Shape& have : a) seen = seen || have.label == shape.label;
    if (!seen) a.push_back(shape);
  }
  return a;
}

}  // namespace perfbench
