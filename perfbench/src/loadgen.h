#ifndef PERFBENCH_SRC_LOADGEN_H_
#define PERFBENCH_SRC_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "tracer.h"

namespace perfbench {

/// One load generator process's worth of traffic against a daemon socket.
struct LoadSpec {
  std::string socket;
  const std::vector<Shape>* shapes = nullptr;
  const std::vector<Reference>* references = nullptr;  ///< Per shape.
  int connections = 3;
  double seconds = 10.0;
  std::uint64_t seed = 1;
  /// Open loop: arrivals every 1/`rate_qps` s, shapes drawn by the seed;
  /// each request is timed from its due time. Closed loop otherwise:
  /// timed from send.
  bool open_loop = false;
  double rate_qps = 0.0;
  /// Closed loop: stop after this many requests per connection (0: run
  /// for `seconds`).
  std::size_t requests_per_connection = 0;
  /// When set, an extra connection re-loads these scenarios in turn, one
  /// op:"load" every `reload_period_s`, while queries run.
  const std::vector<ScenarioFiles>* reloads = nullptr;
  double reload_period_s = 0.0;
  /// Traced mode: client-side spans, plus the per-connection bind probe
  /// that lets server-side spans find their request. Tracing is switched
  /// on and off every `trace_phase_s` so one run yields both latencies.
  Tracer* tracer = nullptr;
  double trace_phase_s = 0.0;
};

struct Sample {
  std::uint32_t shape = 0;
  double latency_ms = 0.0;
  double late_ms = 0.0;
  bool ok = false;
  bool traced = false;
};

struct LoadResult {
  std::vector<Sample> samples;
  std::vector<double> reload_s;
  std::vector<double> parse_us;  ///< serve::ParseRequest on sent lines.
  std::uint64_t sent = 0;
  std::uint64_t unsent = 0;  ///< Failed before sending (connect, backlog).
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;  ///< Includes shed and wrong answers.
  std::uint64_t shed = 0;    ///< `overloaded` / `draining` refusals.
  /// Correct answers received before the window closed.
  std::uint64_t completed_in_window = 0;
  std::vector<std::string> errors;
  double window_s = 0.0;
};

/// Drives the load and checks every answer against its reference.
LoadResult RunLoad(const LoadSpec& spec);

/// The scenario name a connection's bind probe queries ("not found" by
/// design); the traced handler learns the connection's thread from it.
std::string BindScenario(int conn);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOADGEN_H_
