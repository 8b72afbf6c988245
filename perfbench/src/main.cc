// freshsel benchmark. Usage:
//   perfbench --workload batch_select|serve_hot|serve_mixed
//       --seed N --seconds S --trace 0|1 --freshsel PATH --work-root DIR
//       [--smoke] [--label key=value ...]
// Prints labels, request accounting and context lines, then one JSON
// result line: {"correct", "attempted", "failed", "metrics"}.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "common/simd.h"
#include "obs/json.h"
#include "tracer.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options->seconds = std::stod(value);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--freshsel") {
      options->freshsel = value;
    } else if (flag == "--work-root") {
      options->work_root = value;
    } else if (flag == "--label") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) return false;
      options->labels[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      return false;
    }
  }
  return (options->workload == "batch_select" ||
          options->workload == "serve_hot" ||
          options->workload == "serve_mixed") &&
         !options->freshsel.empty() && !options->work_root.empty() &&
         options->seconds > 0;
}

std::string LabelsJson(const std::map<std::string, std::string>& labels) {
  freshsel::obs::JsonWriter json;
  json.BeginObject();
  for (const auto& [key, value] : labels) json.Field(key, value);
  json.EndObject();
  return json.TakeString();
}

int Main(int argc, char** argv) {
  Options options;
  try {
    if (!ParseArgs(argc, argv, &options)) {
      std::cerr << "usage: perfbench --workload batch_select|serve_hot|"
                   "serve_mixed --seed N --seconds S --trace 0|1 --freshsel "
                   "PATH --work-root DIR [--smoke] [--label k=v ...]\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << "perfbench: malformed numeric flag\n";
    return 2;
  }
  options.labels["compiler"] = PERFBENCH_COMPILER;
  options.labels["build_type"] = PERFBENCH_BUILD_TYPE;
  options.labels["simd_backend"] = freshsel::simd::kBackendName;
  options.labels["nproc"] = std::to_string(std::thread::hardware_concurrency());
  options.labels["cpu_model"] = CpuModel();
  options.labels["seed"] = std::to_string(options.seed);
  options.labels["workload"] = options.workload;
  options.labels["scale"] = options.smoke ? "smoke" : "bl-default";
  options.labels["mode"] = options.trace ? "traced" : "untraced";
  std::error_code ec;
  std::filesystem::create_directories(options.work_root + "/traces", ec);

  Tracer tracer;
  const RunResult result = options.workload == "batch_select"
                               ? RunBatchSelect(options, &tracer)
                               : RunServe(options, &tracer);

  std::cout << "labels " << LabelsJson(options.labels) << "\n";
  if (options.trace) {
    tracer.LinkRequests();
    const std::string path = options.work_root + "/traces/" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    const Status written = tracer.Write(path, options.labels);
    std::cout << "trace " << (written.ok() ? path : written.ToString()) << "\n";
    for (const auto& [name, entry] : tracer.SelfTimes()) {
      std::cout << "self_time " << name << " count " << entry.count
                << " total_ms " << entry.total_ms << " self_ms "
                << entry.self_ms << "\n";
    }
  }
  std::cout << "requests sent " << result.sent << " succeeded "
            << result.succeeded << " failed " << result.failed << " shed "
            << result.shed << " attempted " << result.attempted << "\n";
  for (const auto& [key, value] : result.info) {
    std::cout << "info " << key << " " << value << "\n";
  }
  for (const std::string& error : result.errors) {
    std::cerr << "error: " << error << "\n";
  }
  freshsel::obs::JsonWriter json;
  json.BeginObject();
  json.Key("correct");
  json.Bool(result.correct);
  json.Field("attempted", std::max<std::uint64_t>(result.attempted, 1));
  json.Field("failed", result.failed);
  json.Key("metrics");
  json.BeginObject();
  for (const RunResult::Metric& metric : result.metrics) {
    json.Key(metric.name);
    json.BeginObject();
    json.Field("value", metric.value);
    json.Field("unit", metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::cout << json.str() << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
