#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "bench.h"
#include "common/string_util.h"
#include "io/scenario_io.h"
#include "obs/report.h"
#include "serve/engine.h"
#include "workloads/bl_generator.h"

namespace perfbench {

namespace fs = std::filesystem;
using freshsel::serve::QueryParams;

Result<ScenarioFiles> GenerateAndWrite(const Options& options, int index,
                                       const std::string& work) {
  const std::string dir = work + "/scenario-" + std::to_string(index);
  freshsel::workloads::BlConfig config;
  config.seed = options.seed * Options::kMaxScenarios +
                static_cast<std::uint64_t>(index);
  config.scale = options.scale();
  FRESHSEL_ASSIGN_OR_RETURN(freshsel::workloads::Scenario scenario,
                            freshsel::workloads::GenerateBlScenario(config));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);
  FRESHSEL_RETURN_IF_ERROR(
      freshsel::io::WriteWorldCsv(scenario.world, dir + "/world.csv"));
  ScenarioFiles files;
  files.name = "s";
  files.name += std::to_string(index);
  files.seed = config.seed;
  files.dir = dir;
  std::ofstream manifest(dir + "/manifest.csv");
  if (!manifest) return Status::IoError("cannot write manifest in " + dir);
  manifest << "t0," << scenario.t0 << "\n";
  for (std::size_t i = 0; i < scenario.sources.size(); ++i) {
    const std::string stem = freshsel::StringPrintf("source_%03zu", i);
    FRESHSEL_RETURN_IF_ERROR(freshsel::io::WriteSourceHistoryCsv(
        scenario.sources[i], dir + "/" + stem + ".csv"));
    manifest << stem << ',' << scenario.sources[i].name() << ','
             << freshsel::workloads::SourceClassName(scenario.classes[i])
             << "\n";
    files.source_names.push_back(scenario.sources[i].name());
  }
  manifest.close();
  if (!manifest) return Status::IoError("failed writing manifest in " + dir);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files.bytes += entry.file_size();
  }
  return files;
}

namespace {

Shape MakeShape(std::string label, std::string family, double weight,
                QueryParams params) {
  return Shape{std::move(label), std::move(family), std::move(params),
               weight};
}

QueryParams WithAlgorithm(const std::string& algorithm) {
  QueryParams params;
  params.algorithm = algorithm;
  return params;
}

QueryParams Budgeted(double budget) {
  QueryParams params = WithAlgorithm("budgeted");
  params.budget = budget;
  return params;
}

QueryParams ReducedGrasp(std::int64_t seed) {
  QueryParams params = WithAlgorithm("grasp");
  params.restarts = 2;
  params.kappa = 3;
  params.seed = seed;
  return params;
}

QueryParams MatroidGreedy() {
  QueryParams params = WithAlgorithm("greedy");
  params.max_divisor = 3;
  return params;
}

}  // namespace

// Weights keep every shape under half of serve_hot's busy time: measured
// per-request costs of roughly 2.5 / 5 / 10 / 12 / 50 ms give matroid ~30%
// and grasp ~14%. Maxsub holds the 25th-65th percentile of requests, so the
// median lands inside one shape's spread rather than on a boundary between
// two. Grasp is 2% of requests, so serve_hot's p99 sits near the middle of
// its cost spread; eight GRASP seeds (one prepared entry) widen that spread
// beyond one seed's path and fill it with more distinct costs, so p99 does
// not jump between a few of them.
std::vector<Shape> HotShapes() {
  std::vector<Shape> shapes = {
      MakeShape("greedy", "greedy", 25, WithAlgorithm("greedy")),
      MakeShape("maxsub", "maxsub", 40, WithAlgorithm("maxsub")),
      MakeShape("budgeted-0.3", "budgeted", 15, Budgeted(0.3)),
      MakeShape("greedy-div3", "matroid", 18, MatroidGreedy())};
  for (std::int64_t seed = 1; seed <= 8; ++seed) {
    shapes.push_back(MakeShape(
        freshsel::StringPrintf("grasp-r2-k3-seed%lld",
                               static_cast<long long>(seed)),
        "grasp", 0.25, ReducedGrasp(seed)));
  }
  return shapes;
}

// One prepared key per scenario (greedy and maxsub share it), so a
// reload's rebuild is one prepare and the tail comes from the pool's many
// misses and evictions. Maxsub holds the 30th-90th percentile of hot
// requests, so the median lands inside one shape's spread.
std::vector<Shape> MixedHotShapes() {
  return {MakeShape("greedy", "greedy", 30, WithAlgorithm("greedy")),
          MakeShape("maxsub", "maxsub", 70, WithAlgorithm("maxsub"))};
}

std::vector<Shape> MixedPoolShapes(const std::vector<std::string>& sources,
                                   std::uint64_t seed) {
  std::vector<Shape> pool;
  // Budget sweep, none equal to the hot 0.3.
  for (const double budget : {0.1, 0.2, 0.45, 0.6}) {
    pool.push_back(MakeShape(freshsel::StringPrintf("budgeted-%.2f", budget),
                             "budgeted", 1, Budgeted(budget)));
  }
  // Eval-grid variants, none the default 10 points / stride 7.
  for (const auto& [points, stride] :
       {std::pair<std::int64_t, std::int64_t>{4, 5}, {6, 9}, {12, 14}}) {
    QueryParams params = WithAlgorithm("greedy");
    params.points = points;
    params.stride = stride;
    pool.push_back(MakeShape(
        freshsel::StringPrintf("greedy-p%lld-s%lld",
                               static_cast<long long>(points),
                               static_cast<long long>(stride)),
        "greedy", 1, params));
  }
  // Roster subsets, each listed in two orders (two distinct cache keys).
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::size_t subset = std::min<std::size_t>(10, sources.size());
  for (int r = 0; r < 2; ++r) {
    std::vector<std::string> names = sources;
    for (std::size_t i = 0; i < subset; ++i) {
      std::swap(names[i], names[i + rng() % (names.size() - i)]);
    }
    names.resize(subset);
    std::sort(names.begin(), names.end());
    for (int order = 0; order < 2; ++order) {
      QueryParams params = WithAlgorithm("greedy");
      params.roster = names;
      if (order == 1) std::reverse(params.roster.begin(), params.roster.end());
      pool.push_back(MakeShape(
          freshsel::StringPrintf("roster-%d-%s", r, order ? "desc" : "asc"),
          "greedy", 1, params));
    }
  }
  return pool;
}

Result<std::shared_ptr<const freshsel::serve::ResidentScenario>> Ingest(
    const std::string& dir) {
  FRESHSEL_ASSIGN_OR_RETURN(
      freshsel::serve::ResidentScenario scenario,
      freshsel::serve::IngestScenario("default", dir,
                                      freshsel::serve::IngestOptions()));
  return std::make_shared<const freshsel::serve::ResidentScenario>(
      std::move(scenario));
}

Result<Reference> ComputeReference(
    const std::shared_ptr<const freshsel::serve::ResidentScenario>& scenario,
    const QueryParams& params) {
  std::ostringstream text;
  freshsel::obs::RunReport report;
  freshsel::serve::QueryOutcome outcome;
  FRESHSEL_RETURN_IF_ERROR(freshsel::serve::ExecuteSelect(
      scenario, params, text, &report, &outcome));
  return Reference{text.str(), outcome.oracle_calls};
}

std::vector<Shape> ForScenario(const std::vector<Shape>& shapes,
                               const ScenarioFiles& files) {
  std::vector<Shape> out = shapes;
  for (Shape& shape : out) {
    shape.label.insert(0, files.name + '/');
    shape.params.scenario = files.name;
  }
  return out;
}

Result<std::vector<Reference>> ComputeReferences(
    const std::vector<ScenarioFiles>& scenarios,
    const std::vector<Shape>& shapes) {
  std::vector<Reference> references(shapes.size());
  for (const ScenarioFiles& files : scenarios) {
    FRESHSEL_ASSIGN_OR_RETURN(
        const std::shared_ptr<const freshsel::serve::ResidentScenario>
            scenario,
        Ingest(files.dir));
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (shapes[i].params.scenario != files.name) continue;
      FRESHSEL_ASSIGN_OR_RETURN(references[i],
                                ComputeReference(scenario, shapes[i].params));
    }
  }
  return references;
}

}  // namespace perfbench
