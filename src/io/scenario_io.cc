#include "io/scenario_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <span>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "fault/failpoint.h"
#include "obs/macros.h"

namespace freshsel::io {

namespace {

Status ParseInt(std::string_view text, std::int64_t* out) {
  if (text.empty()) {
    return Status::InvalidArgument("expected integer, got empty field");
  }
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("malformed integer: " + std::string(text));
  }
  return Status::OK();
}

/// Splits `text` on `separator` into views over `text`: stores the first
/// `fields->size()` fields and returns how many fields the text has (which
/// may exceed that). An empty text is one empty field.
template <std::size_t N>
std::size_t SplitFields(std::string_view text, char separator,
                        std::array<std::string_view, N>* fields) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(separator, start);
    // For the last field pos is npos, and pos - start runs past the end.
    if (count < N) (*fields)[count] = text.substr(start, pos - start);
    ++count;
    if (pos == std::string_view::npos) return count;
    start = pos + 1;
  }
}

/// Calls `part_fn(part)` on each `separator`-delimited part of `text`,
/// stopping at the first error.
template <typename PartFn>
Status ForEachPart(std::string_view text, char separator, PartFn part_fn) {
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) return part_fn(text.substr(start));
    FRESHSEL_RETURN_IF_ERROR(part_fn(text.substr(start, pos - start)));
    start = pos + 1;
  }
}

/// Reads '\n'-terminated lines into one reused buffer with std::getline
/// semantics: a '\r' stays in the line and a last line without '\n' is
/// still read. Tells a read error apart from the end of the file.
class LineReader {
 public:
  LineReader(std::istream& in, const std::string& path)
      : in_(in), path_(path) {}

  /// Reads the next line; false at the end of the file or on a read error.
  bool Next() { return static_cast<bool>(std::getline(in_, line_)); }

  const std::string& line() const { return line_; }

  /// IoError when the last failed Next() stopped on a read error.
  Status ReadStatus() const {
    if (in_.bad()) return Status::IoError("read failed: " + path_);
    return Status::OK();
  }

 private:
  std::istream& in_;
  const std::string& path_;
  std::string line_;
};

std::string JoinTimes(std::span<const TimePoint> times) {
  std::vector<std::string> parts;
  parts.reserve(times.size());
  for (TimePoint t : times) parts.push_back(std::to_string(t));
  return Join(parts, "|");
}

Status ParseTimes(std::string_view text, std::vector<TimePoint>* times) {
  if (text.empty()) return Status::OK();
  return ForEachPart(text, '|', [times](std::string_view part) {
    std::int64_t value = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(part, &value));
    times->push_back(value);
    return Status::OK();
  });
}

Status ParseCaptures(std::string_view text,
                     std::vector<source::VersionCapture>* captures) {
  if (text.empty()) return Status::OK();
  return ForEachPart(text, '|', [captures](std::string_view pair) {
    std::array<std::string_view, 2> parts;
    if (SplitFields(pair, ':', &parts) != 2) {
      return Status::InvalidArgument("bad capture pair: " +
                                     std::string(pair));
    }
    std::int64_t version = 0;
    std::int64_t day = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(parts[0], &version));
    FRESHSEL_RETURN_IF_ERROR(ParseInt(parts[1], &day));
    captures->emplace_back(static_cast<std::uint32_t>(version), day);
    return Status::OK();
  });
}

/// Parses a world file; `*rows` counts the entity rows added, also when a
/// later row fails.
Result<world::World> ParseWorld(std::istream& in, const std::string& path,
                                std::uint64_t* rows) {
  LineReader reader(in, path);
  if (!reader.Next()) {
    FRESHSEL_RETURN_IF_ERROR(reader.ReadStatus());
    return Status::InvalidArgument("empty world file: " + path);
  }
  std::array<std::string_view, 6> header;
  if (SplitFields(reader.line(), ',', &header) != 6 ||
      header[0] != "#world") {
    return Status::InvalidArgument("bad world header: " + reader.line());
  }
  std::int64_t dim1_size = 0;
  std::int64_t dim2_size = 0;
  std::int64_t horizon = 0;
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[2], &dim1_size));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[4], &dim2_size));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[5], &horizon));
  FRESHSEL_ASSIGN_OR_RETURN(
      world::DataDomain domain,
      world::DataDomain::Create(std::string(header[1]),
                                static_cast<std::uint32_t>(dim1_size),
                                std::string(header[3]),
                                static_cast<std::uint32_t>(dim2_size)));
  world::World world(std::move(domain), horizon);

  if (!reader.Next() || reader.line() != "id,subdomain,birth,death,updates") {
    FRESHSEL_RETURN_IF_ERROR(reader.ReadStatus());
    return Status::InvalidArgument("bad world column header");
  }
  std::array<std::string_view, 5> fields;
  // One scratch record for the whole file: AddEntity copies its update
  // times into the world's flat array, so a row allocates nothing once the
  // scratch vector has grown to the longest row.
  world::EntityRecord record;
  while (reader.Next()) {
    const std::string& line = reader.line();
    if (line.empty()) continue;
    if (SplitFields(line, ',', &fields) != 5) {
      return Status::InvalidArgument("bad world row: " + line);
    }
    record.update_times.clear();
    std::int64_t value = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[0], &value));
    record.id = static_cast<world::EntityId>(value);
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[1], &value));
    record.subdomain = static_cast<world::SubdomainId>(value);
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[2], &record.birth));
    if (fields[3].empty()) {
      record.death = world::kNever;
    } else {
      FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[3], &record.death));
    }
    FRESHSEL_RETURN_IF_ERROR(ParseTimes(fields[4], &record.update_times));
    FRESHSEL_RETURN_IF_ERROR(world.AddEntity(record));
    ++*rows;
  }
  FRESHSEL_RETURN_IF_ERROR(reader.ReadStatus());
  FRESHSEL_RETURN_IF_ERROR(world.Finalize());
  return world;
}

/// Parses a source file; `*rows` counts the capture rows added, also when a
/// later row fails.
Result<source::SourceHistory> ParseSourceHistory(std::istream& in,
                                                 const std::string& path,
                                                 std::uint64_t* rows) {
  LineReader reader(in, path);
  if (!reader.Next()) {
    FRESHSEL_RETURN_IF_ERROR(reader.ReadStatus());
    return Status::InvalidArgument("empty source file: " + path);
  }
  std::array<std::string_view, 5> header;
  if (SplitFields(reader.line(), ',', &header) != 5 ||
      header[0] != "#source") {
    return Status::InvalidArgument("bad source header: " + reader.line());
  }
  source::SourceSpec spec;
  spec.name = std::string(header[1]);
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[2], &spec.schedule.period));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[3], &spec.schedule.phase));
  std::int64_t entity_count = 0;
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[4], &entity_count));

  if (!reader.Next()) {
    FRESHSEL_RETURN_IF_ERROR(reader.ReadStatus());
    return Status::InvalidArgument("missing scope line");
  }
  std::array<std::string_view, 2> scope_fields;
  if (SplitFields(reader.line(), ',', &scope_fields) != 2 ||
      scope_fields[0] != "#scope") {
    return Status::InvalidArgument("bad scope line: " + reader.line());
  }
  if (!scope_fields[1].empty()) {
    FRESHSEL_RETURN_IF_ERROR(
        ForEachPart(scope_fields[1], '|', [&spec](std::string_view part) {
          std::int64_t sub = 0;
          FRESHSEL_RETURN_IF_ERROR(ParseInt(part, &sub));
          spec.scope.push_back(static_cast<world::SubdomainId>(sub));
          return Status::OK();
        }));
  }

  source::SourceHistory history(std::move(spec),
                                static_cast<std::size_t>(entity_count));
  if (!reader.Next() ||
      reader.line() != "entity,subdomain,inserted,deleted,captures") {
    FRESHSEL_RETURN_IF_ERROR(reader.ReadStatus());
    return Status::InvalidArgument("bad source column header");
  }
  std::array<std::string_view, 5> fields;
  // One scratch record for the whole file, as in ParseWorld.
  source::CaptureRecord record;
  while (reader.Next()) {
    const std::string& line = reader.line();
    if (line.empty()) continue;
    if (SplitFields(line, ',', &fields) != 5) {
      return Status::InvalidArgument("bad source row: " + line);
    }
    record.version_captures.clear();
    std::int64_t value = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[0], &value));
    record.entity = static_cast<world::EntityId>(value);
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[1], &value));
    record.subdomain = static_cast<world::SubdomainId>(value);
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[2], &record.inserted));
    if (fields[3].empty()) {
      record.deleted = world::kNever;
    } else {
      FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[3], &record.deleted));
    }
    FRESHSEL_RETURN_IF_ERROR(
        ParseCaptures(fields[4], &record.version_captures));
    FRESHSEL_RETURN_IF_ERROR(history.AddRecord(record));
    ++*rows;
  }
  FRESHSEL_RETURN_IF_ERROR(reader.ReadStatus());
  return history;
}

}  // namespace

Status WriteWorldCsv(const world::World& world, const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/write_world_csv");
  FRESHSEL_OBS_SCOPED_LATENCY("io.write_world.seconds");
  FRESHSEL_FAILPOINT_RETURN(
      "io.write", Status::Unavailable("injected fault: io.write " + path));
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const world::DataDomain& domain = world.domain();
  out << "#world," << domain.dim1_name() << ',' << domain.dim1_size() << ','
      << domain.dim2_name() << ',' << domain.dim2_size() << ','
      << world.horizon() << '\n';
  out << "id,subdomain,birth,death,updates\n";
  for (const world::EntityRow& entity : world.entities()) {
    // A record violating the lifespan invariant means the in-memory world is
    // corrupt; refuse to persist it rather than round-trip garbage.
    FRESHSEL_DCHECK(entity.death == world::kNever ||
                    entity.death >= entity.birth);
    out << entity.id << ',' << entity.subdomain << ',' << entity.birth
        << ',';
    if (entity.death != world::kNever) out << entity.death;
    out << ',' << JoinTimes(world.update_times(entity.id)) << '\n';
    FRESHSEL_OBS_COUNT("io.world_rows.written", 1);
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::ifstream> OpenScenarioCsv(const std::string& path) {
  FRESHSEL_FAILPOINT_RETURN(
      "io.read", Status::Unavailable("injected fault: io.read " + path));
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return in;
}

Result<world::World> ParseWorldCsv(std::istream& in, const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/parse_world_csv");
  FRESHSEL_OBS_SCOPED_LATENCY("io.read_world.seconds");
  std::uint64_t rows = 0;
  Result<world::World> world = ParseWorld(in, path, &rows);
  // One counter bump per file; a file with no rows leaves the counter
  // unregistered, as a per-row bump would.
  if (rows > 0) FRESHSEL_OBS_COUNT("io.world_rows.read", rows);
  return world;
}

Result<world::World> ReadWorldCsv(const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/read_world_csv");
  FRESHSEL_ASSIGN_OR_RETURN(std::ifstream in, OpenScenarioCsv(path));
  return ParseWorldCsv(in, path);
}

Status WriteSourceHistoryCsv(const source::SourceHistory& history,
                             const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/write_source_csv");
  FRESHSEL_FAILPOINT_RETURN(
      "io.write", Status::Unavailable("injected fault: io.write " + path));
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const source::SourceSpec& spec = history.spec();
  out << "#source," << spec.name << ',' << spec.schedule.period << ','
      << spec.schedule.phase << ',' << history.world_entity_count() << '\n';
  {
    std::vector<std::string> scope;
    for (world::SubdomainId sub : spec.scope) {
      scope.push_back(std::to_string(sub));
    }
    out << "#scope," << Join(scope, "|") << '\n';
  }
  out << "entity,subdomain,inserted,deleted,captures\n";
  for (const source::CaptureRow& rec : history.records()) {
    out << rec.entity << ',' << rec.subdomain << ',' << rec.inserted << ',';
    if (rec.deleted != world::kNever) out << rec.deleted;
    out << ',';
    std::vector<std::string> captures;
    captures.reserve(rec.capture_count);
    for (const auto& [version, day] : history.captures(rec)) {
      captures.push_back(std::to_string(version) + ':' +
                         std::to_string(day));
    }
    out << Join(captures, "|") << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<source::SourceHistory> ParseSourceHistoryCsv(std::istream& in,
                                                    const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/parse_source_csv");
  std::uint64_t rows = 0;
  Result<source::SourceHistory> history = ParseSourceHistory(in, path, &rows);
  if (rows > 0) FRESHSEL_OBS_COUNT("io.source_rows.read", rows);
  return history;
}

Result<source::SourceHistory> ReadSourceHistoryCsv(const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/read_source_csv");
  FRESHSEL_ASSIGN_OR_RETURN(std::ifstream in, OpenScenarioCsv(path));
  return ParseSourceHistoryCsv(in, path);
}

Result<world::World> ReadWorldCsv(const std::string& path,
                                  const fault::RetryPolicy& retry) {
  return retry.RunResult<world::World>(
      "io.read_world", [&path]() { return ReadWorldCsv(path); });
}

Result<source::SourceHistory> ReadSourceHistoryCsv(
    const std::string& path, const fault::RetryPolicy& retry) {
  return retry.RunResult<source::SourceHistory>(
      "io.read_source", [&path]() { return ReadSourceHistoryCsv(path); });
}

Status WriteWorldCsv(const world::World& world, const std::string& path,
                     const fault::RetryPolicy& retry) {
  return retry.Run("io.write_world",
                   [&]() { return WriteWorldCsv(world, path); });
}

Status WriteSourceHistoryCsv(const source::SourceHistory& history,
                             const std::string& path,
                             const fault::RetryPolicy& retry) {
  return retry.Run("io.write_source",
                   [&]() { return WriteSourceHistoryCsv(history, path); });
}

}  // namespace freshsel::io
