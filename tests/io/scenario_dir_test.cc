// serve::ReadScenarioDir against one-file-at-a-time reads: the serial open
// gate plus parallel parse must return the same data, the same first error
// in file order, and the same failpoint / retry sequence as reading
// world.csv and then each sorted source file with the single-file readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "fault/failpoint.h"
#include "fault/retry.h"
#include "io/scenario_io.h"
#include "obs/macros.h"
#include "obs/trace.h"
#include "serve/ingest.h"
#include "testing/scratch.h"
#include "workloads/bl_generator.h"

namespace freshsel::io {
namespace {

workloads::BlConfig TinyBl() {
  workloads::BlConfig config;
  config.locations = 6;
  config.categories = 3;
  config.horizon = 160;
  config.t0 = 90;
  config.scale = 0.2;
  config.n_uniform = 2;
  config.n_location_specialists = 4;
  config.n_category_specialists = 3;
  config.n_medium = 2;
  return config;
}

class ScenarioDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const workloads::Scenario scenario =
        workloads::GenerateBlScenario(TinyBl()).value();
    ASSERT_TRUE(WriteWorldCsv(scenario.world, WorldPath()).ok());
    for (std::size_t i = 0; i < scenario.sources.size(); ++i) {
      source_paths_.push_back(
          scratch_.file(StringPrintf("source_%03zu.csv", i)));
      ASSERT_TRUE(
          WriteSourceHistoryCsv(scenario.sources[i], source_paths_.back())
              .ok());
    }
    std::ofstream manifest(scratch_.file("manifest.csv"));
    manifest << "t0," << scenario.t0 << "\n";
  }

  void TearDown() override {
    fault::FailpointRegistry::Global().DisarmAll();
  }

  std::string WorldPath() const { return scratch_.file("world.csv"); }

  static void WriteFile(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }

  /// A retry policy that never sleeps and logs every retry as
  /// "<op>#<retry>:<message>".
  static fault::RetryPolicy LoggingRetry(std::vector<std::string>* log) {
    fault::RetryOptions options;
    options.max_attempts = 5;
    fault::RetryPolicy retry(options);
    retry.set_sleep_fn([](double) {});
    retry.set_on_retry(
        [log](std::string_view op, int index, const Status& status) {
          log->push_back(std::string(op) + "#" + std::to_string(index) + ":" +
                         status.message());
        });
    return retry;
  }

  /// The reference: world.csv, then each sorted source file, read one at a
  /// time with the single-file readers, stopping at the first error.
  Status ReadOneByOne(const fault::RetryPolicy& retry) const {
    FRESHSEL_RETURN_IF_ERROR(ReadWorldCsv(WorldPath(), retry).status());
    for (const std::string& path : source_paths_) {
      FRESHSEL_RETURN_IF_ERROR(ReadSourceHistoryCsv(path, retry).status());
    }
    return Status::OK();
  }

  testing::ScratchDir scratch_{"scenario_dir"};
  std::vector<std::string> source_paths_;
};

TEST_F(ScenarioDirTest, MatchesPerFileReads) {
  const fault::RetryPolicy retry;
  const Result<serve::ScenarioDirData> data =
      serve::ReadScenarioDir(scratch_.path(), retry);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->manifest_t0, TinyBl().t0);

  const world::World world = ReadWorldCsv(WorldPath()).value();
  ASSERT_EQ(data->world.entity_count(), world.entity_count());
  EXPECT_EQ(data->world.horizon(), world.horizon());
  for (std::size_t i = 0; i < world.entity_count(); ++i) {
    const world::EntityRow& a = data->world.entity(i);
    const world::EntityRow& b = world.entity(i);
    EXPECT_EQ(a.subdomain, b.subdomain);
    EXPECT_EQ(a.birth, b.birth);
    EXPECT_EQ(a.death, b.death);
    EXPECT_TRUE(std::ranges::equal(data->world.update_times(i),
                                   world.update_times(i)));
  }

  ASSERT_EQ(data->sources.size(), source_paths_.size());
  for (std::size_t s = 0; s < source_paths_.size(); ++s) {
    const source::SourceHistory history =
        ReadSourceHistoryCsv(source_paths_[s]).value();
    const source::SourceHistory& got = data->sources[s];
    EXPECT_EQ(got.name(), history.name());
    EXPECT_EQ(got.spec().scope, history.spec().scope);
    EXPECT_EQ(got.schedule().period, history.schedule().period);
    EXPECT_EQ(got.schedule().phase, history.schedule().phase);
    EXPECT_EQ(got.world_entity_count(), history.world_entity_count());
    ASSERT_EQ(got.records().size(), history.records().size());
    for (std::size_t r = 0; r < history.records().size(); ++r) {
      const source::CaptureRow& a = got.records()[r];
      const source::CaptureRow& b = history.records()[r];
      EXPECT_EQ(a.entity, b.entity);
      EXPECT_EQ(a.subdomain, b.subdomain);
      EXPECT_EQ(a.inserted, b.inserted);
      EXPECT_EQ(a.deleted, b.deleted);
      EXPECT_TRUE(std::ranges::equal(got.captures(a), history.captures(b)));
    }
  }
}

TEST_F(ScenarioDirTest, FirstErrorInFileOrderWins) {
  // Two broken sources; the later one is made the largest file so it is
  // parsed first. The error must still name the earlier one.
  WriteFile(source_paths_[2],
            "#source,s,1,0,10\n#scope,0\n"
            "entity,subdomain,inserted,deleted,captures\n3,0,5,,0-5\n");
  std::string big =
      "#source,t,1,0,10\n#scope,0\n"
      "entity,subdomain,inserted,deleted,captures\n";
  big.append(200000, '\n');
  big += "1,2,3\n";
  WriteFile(source_paths_[5], big);

  const Result<serve::ScenarioDirData> data =
      serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy());
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().ToString(), "InvalidArgument: bad capture pair: 0-5");
  EXPECT_EQ(data.status().ToString(), ReadOneByOne(fault::RetryPolicy())
                                          .ToString());
}

TEST_F(ScenarioDirTest, WorldErrorComesBeforeSourceErrors) {
  WriteFile(WorldPath(), "#world,loc,2,cat,2\n");
  WriteFile(source_paths_[0], "");
  const Result<serve::ScenarioDirData> data =
      serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy());
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().ToString(),
            "InvalidArgument: bad world header: #world,loc,2,cat,2");
}

TEST_F(ScenarioDirTest, ParseErrorBeforeUnopenableFileWins) {
  // source_001 is broken and source_004 (a dangling link) cannot be
  // opened at all: a one-by-one read stops at source_001 first.
  WriteFile(source_paths_[1], "#source,s,1,0\n");
  std::filesystem::remove(source_paths_[4]);
  std::filesystem::create_symlink(scratch_.file("missing"), source_paths_[4]);
  const Result<serve::ScenarioDirData> data =
      serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy());
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().ToString(),
            "InvalidArgument: bad source header: #source,s,1,0");
  // Without the broken file, the unopenable one is the error.
  std::filesystem::remove(source_paths_[1]);
  EXPECT_EQ(serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy())
                .status()
                .ToString(),
            "IoError: cannot open for reading: " + source_paths_[4]);
}

TEST_F(ScenarioDirTest, NoSourcesStillReportsWorldErrorFirst) {
  for (const std::string& path : source_paths_) std::remove(path.c_str());
  EXPECT_EQ(serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy())
                .status()
                .code(),
            StatusCode::kNotFound);
  WriteFile(WorldPath(), "");
  EXPECT_EQ(serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy())
                .status()
                .ToString(),
            "InvalidArgument: empty world file: " + WorldPath());
}

TEST_F(ScenarioDirTest, DirectoryNamedLikeSourceIsAReadError) {
  std::filesystem::remove(source_paths_[1]);
  std::filesystem::create_directory(source_paths_[1]);
  const Result<serve::ScenarioDirData> data =
      serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy());
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().ToString(),
            "IoError: read failed: " + source_paths_[1]);
  EXPECT_EQ(ReadSourceHistoryCsv(source_paths_[1]).status().ToString(),
            "IoError: read failed: " + source_paths_[1]);
}

TEST_F(ScenarioDirTest, DirectoryNamedWorldCsvIsAReadError) {
  std::filesystem::remove(WorldPath());
  std::filesystem::create_directory(WorldPath());
  const Result<serve::ScenarioDirData> data =
      serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy());
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().ToString(), "IoError: read failed: " + WorldPath());
  EXPECT_EQ(ReadWorldCsv(WorldPath()).status().ToString(),
            "IoError: read failed: " + WorldPath());
}

#if FRESHSEL_OBS_ACTIVE

TEST_F(ScenarioDirTest, ParseSpansNestUnderTheDirectorySpan) {
  obs::ClearTrace();
  obs::SetTraceEnabled(true);
  const Result<serve::ScenarioDirData> data =
      serve::ReadScenarioDir(scratch_.path(), fault::RetryPolicy());
  obs::SetTraceEnabled(false);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  std::uint64_t dir_span = 0;
  for (const obs::TraceEvent& event : events) {
    if (std::string_view(event.name) == "serve/read_scenario_dir") {
      dir_span = event.id;
    }
  }
  ASSERT_NE(dir_span, 0u);
  std::size_t world_spans = 0;
  std::size_t source_spans = 0;
  for (const obs::TraceEvent& event : events) {
    const std::string_view name(event.name);
    if (name == "io/parse_world_csv") ++world_spans;
    if (name == "io/parse_source_csv") ++source_spans;
    if (name.rfind("io/parse_", 0) == 0) {
      EXPECT_EQ(event.parent, dir_span);
    }
  }
  EXPECT_EQ(world_spans, 1u);
  EXPECT_EQ(source_spans, source_paths_.size());
  obs::ClearTrace();
}

#endif  // FRESHSEL_OBS_ACTIVE

#if FRESHSEL_FAULT_ACTIVE

TEST_F(ScenarioDirTest, RetrySequenceMatchesSerialFileOrder) {
  std::vector<std::string> specs;
  for (int k = 1; k <= 4; ++k) {
    specs.push_back("io.read=nth:" + std::to_string(k));
  }
  specs.push_back("io.read=prob:0.3:99");
  fault::FailpointRegistry& registry = fault::FailpointRegistry::Global();
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    std::vector<std::string> expected;
    ASSERT_TRUE(registry.ArmFromSpec(spec).ok());
    const Status serial = ReadOneByOne(LoggingRetry(&expected));
    ASSERT_FALSE(expected.empty());
    for (int repeat = 0; repeat < 20; ++repeat) {
      std::vector<std::string> log;
      ASSERT_TRUE(registry.ArmFromSpec(spec).ok());
      const Result<serve::ScenarioDirData> data =
          serve::ReadScenarioDir(scratch_.path(), LoggingRetry(&log));
      EXPECT_EQ(log, expected) << "repeat " << repeat;
      EXPECT_EQ(data.status().ToString(), serial.ToString());
    }
  }
}

#endif  // FRESHSEL_FAULT_ACTIVE

}  // namespace
}  // namespace freshsel::io
