#include "serve/ingest.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "io/scenario_io.h"
#include "obs/macros.h"

namespace freshsel::serve {

namespace fs = std::filesystem;

namespace {

/// The `retry`-driven failpoint plus open of one file, appended to
/// `streams` on success.
Status OpenWithRetry(const std::string& path, std::string_view op_name,
                     const fault::RetryPolicy& retry,
                     std::vector<std::ifstream>* streams) {
  FRESHSEL_ASSIGN_OR_RETURN(
      std::ifstream in,
      retry.RunResult<std::ifstream>(
          op_name, [&path]() { return io::OpenScenarioCsv(path); }));
  streams->push_back(std::move(in));
  return Status::OK();
}

}  // namespace

Result<ScenarioDirData> ReadScenarioDir(const std::string& dir,
                                        const fault::RetryPolicy& retry) {
  FRESHSEL_TRACE_SPAN("serve/read_scenario_dir");
  const fs::path root(dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return Status::NotFound("not a directory: " + dir);
  }
  // Serial gate: every failpoint hit and retry happens here, world.csv
  // first and then the sources in sorted order, so fault sequences
  // (`nth:N`, `prob:P:SEED`) and the io.retry.* counters match a serial
  // read file for file. It stops at the first file that cannot be opened.
  std::vector<std::string> paths{(root / "world.csv").string()};
  std::vector<std::ifstream> streams;
  Status gate = OpenWithRetry(paths[0], "io.read_world", retry, &streams);
  if (gate.ok()) {
    std::vector<std::string> source_files;
    for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("source_", 0) == 0) {
        source_files.push_back(entry.path().string());
      }
    }
    std::sort(source_files.begin(), source_files.end());
    paths.insert(paths.end(), source_files.begin(), source_files.end());
    for (std::size_t i = 1; i < paths.size() && gate.ok(); ++i) {
      gate = OpenWithRetry(paths[i], "io.read_source", retry, &streams);
    }
  }

  // Parallel parse of every opened file, the world alongside the sources,
  // largest file first; results land by index.
  const std::size_t opened = streams.size();
  std::vector<std::uint64_t> sizes(opened);
  for (std::size_t i = 0; i < opened; ++i) {
    const std::uintmax_t size = fs::file_size(paths[i], ec);
    sizes[i] = ec ? 0 : static_cast<std::uint64_t>(size);
  }
  Result<world::World> world = Status::Internal("world.csv not parsed");
  std::vector<Result<source::SourceHistory>> sources;
  sources.reserve(opened > 0 ? opened - 1 : 0);
  for (std::size_t i = 1; i < opened; ++i) {
    sources.emplace_back(Status::Internal("source file not parsed"));
  }
  RunLargestFirst(sizes, [&](std::size_t i) {
    if (i == 0) {
      world = io::ParseWorldCsv(streams[0], paths[0]);
    } else {
      sources[i - 1] = io::ParseSourceHistoryCsv(streams[i], paths[i]);
    }
  });

  // The first error in file order: a file's parse error comes before the
  // gate failure of a later file, as in a one-file-at-a-time read.
  if (opened > 0 && !world.ok()) return world.status();
  for (const Result<source::SourceHistory>& history : sources) {
    if (!history.ok()) return history.status();
  }
  FRESHSEL_RETURN_IF_ERROR(gate);
  if (sources.empty()) {
    return Status::NotFound("no source_*.csv files in " + dir);
  }
  ScenarioDirData data{std::move(world).value(), {}, 0};
  data.sources.reserve(sources.size());
  for (Result<source::SourceHistory>& history : sources) {
    data.sources.push_back(std::move(history).value());
  }
  // Optional manifest: its first line is "t0,<value>".
  std::ifstream manifest(root / "manifest.csv");
  std::string first_line;
  if (manifest && std::getline(manifest, first_line)) {
    const std::vector<std::string> fields = Split(first_line, ',');
    if (fields.size() == 2 && fields[0] == "t0") {
      const char* begin = fields[1].data();
      const char* end = begin + fields[1].size();
      std::int64_t value = 0;
      auto [ptr, errc] = std::from_chars(begin, end, value);
      if (errc == std::errc() && ptr == end) data.manifest_t0 = value;
    }
  }
  return data;
}

Result<ResidentScenario> LearnScenario(const std::string& name,
                                       ScenarioDirData data,
                                       const IngestOptions& options) {
  const TimePoint t0 = options.t0 > 0 ? options.t0 : data.manifest_t0;
  if (t0 <= 0) {
    return Status::InvalidArgument(
        "no t0 given and the scenario has no manifest t0");
  }
  if (t0 > data.world.horizon()) {
    return Status::InvalidArgument("t0 beyond the scenario horizon");
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      estimation::WorldChangeModel world_model,
      estimation::WorldChangeModel::Learn(data.world, t0));
  FRESHSEL_ASSIGN_OR_RETURN(
      estimation::RobustProfiles robust,
      estimation::LearnSourceProfilesRobust(data.world, data.sources, t0,
                                            options.degradation_mode));
  {
    // Nothing reads a history after the fits; free them here, under a span,
    // rather than unspanned when `data` goes out of scope.
    FRESHSEL_TRACE_SPAN("serve/drop_histories");
    std::vector<source::SourceHistory>().swap(data.sources);
  }
  ResidentScenario scenario{name,
                            /*epoch=*/0,
                            std::move(data.world),
                            t0,
                            std::move(world_model),
                            std::move(robust.profiles),
                            std::move(robust.report)};
  FRESHSEL_OBS_COUNT("serve.scenarios.ingested", 1);
  return scenario;
}

Result<ResidentScenario> IngestScenario(const std::string& name,
                                        const std::string& dir,
                                        const IngestOptions& options) {
  FRESHSEL_ASSIGN_OR_RETURN(ScenarioDirData data,
                            ReadScenarioDir(dir, options.retry));
  return LearnScenario(name, std::move(data), options);
}

}  // namespace freshsel::serve
