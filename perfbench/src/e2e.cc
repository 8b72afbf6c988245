#include <unistd.h>

#include <filesystem>

#include "bench.h"
#include "serve/client.h"

namespace perfbench {

std::string WorkDir(const Options& options) {
  const std::string dir = options.work_root + "/" + options.workload + "-" +
                          std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

Result<double> LoadScenario(freshsel::serve::Client* client,
                            const ScenarioFiles& files) {
  freshsel::serve::LoadParams load;
  load.scenario = files.name;
  load.dir = files.dir;
  const Clock::time_point start = Clock::now();
  FRESHSEL_ASSIGN_OR_RETURN(
      const std::string response,
      client->Call(freshsel::serve::SerializeLoadRequest(true, 1, load)));
  const double round_trip = SecondsBetween(start, Clock::now());
  if (response.find("\"ok\":true") == std::string::npos) {
    return Status::Internal("op:\"load\" failed: " + response);
  }
  return round_trip;
}

void EmitEndToEnd(const EndToEnd& e2e, RunResult* result) {
  std::size_t within = 0;
  for (double ms : e2e.latency_ms) within += ms <= e2e.slo_ms ? 1 : 0;
  const double attempted = static_cast<double>(std::max<std::uint64_t>(result->attempted, 1));
  result->info["latency.samples"] = static_cast<double>(e2e.latency_ms.size());
  result->info["latency.beyond_p99"] =
      static_cast<double>(CountBeyond(e2e.latency_ms.size(), 0.99));
  result->Add("setup_s", Median(e2e.setup_s), "s");
  result->Add("latency_p50_ms", Percentile(e2e.latency_ms, 0.5), "ms");
  result->Add("latency_p99_ms", Percentile(e2e.latency_ms, 0.99), "ms");
  result->Add("throughput_qps", e2e.completed / e2e.window_s, "1/s");
  // A failed or refused operation counts as a miss.
  result->Add("slo_ratio", static_cast<double>(within) / attempted, "ratio");
  result->Add("reload_s", Median(e2e.reload_s), "s");
  result->Add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  result->Add("success_ratio",
              1.0 - static_cast<double>(result->failed) / attempted, "ratio");
}

}  // namespace perfbench
