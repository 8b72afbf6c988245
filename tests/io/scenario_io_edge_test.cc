// Characterization of the CSV readers on malformed and edge inputs: every
// row of the tables pins either the exact Status (code and message) or a
// canonical rendering of the parsed world / source history. The tables
// describe the reader contract (line splitting on '\n' only, '\r' kept in
// the field, blank lines skipped, a final line without '\n' still read,
// strict integer fields), so any tokenizer must pass them unchanged.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "io/scenario_io.h"

namespace freshsel::io {
namespace {

struct EdgeCase {
  const char* name;
  std::string contents;
  /// "ok <rendering>" or "<StatusCode>: <message>"; "{path}" stands for the
  /// file the case is written to.
  std::string expected;
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/edge_" + name + ".csv";
}

std::string Substitute(std::string text, const std::string& path) {
  const std::string token = "{path}";
  const std::size_t pos = text.find(token);
  if (pos != std::string::npos) text.replace(pos, token.size(), path);
  return text;
}

std::string TimeText(TimePoint t) {
  return t == world::kNever ? std::string("never") : std::to_string(t);
}

std::string Render(const world::World& w) {
  std::ostringstream out;
  const world::DataDomain& d = w.domain();
  out << "ok " << d.dim1_name() << '=' << d.dim1_size() << ' '
      << d.dim2_name() << '=' << d.dim2_size() << " h=" << w.horizon();
  for (const world::EntityRow& e : w.entities()) {
    out << " [" << e.id << ' ' << e.subdomain << ' ' << e.birth << ' '
        << TimeText(e.death) << ' ';
    const std::span<const TimePoint> update_times = w.update_times(e.id);
    for (std::size_t i = 0; i < update_times.size(); ++i) {
      out << (i > 0 ? "|" : "") << update_times[i];
    }
    out << ']';
  }
  return out.str();
}

std::string Render(const source::SourceHistory& h) {
  std::ostringstream out;
  out << "ok " << h.name() << " p=" << h.schedule().period
      << " ph=" << h.schedule().phase << " n=" << h.world_entity_count()
      << " scope=";
  for (std::size_t i = 0; i < h.spec().scope.size(); ++i) {
    out << (i > 0 ? "|" : "") << h.spec().scope[i];
  }
  for (const source::CaptureRow& r : h.records()) {
    out << " [" << r.entity << ' ' << r.subdomain << ' ' << r.inserted << ' '
        << TimeText(r.deleted) << ' ';
    const std::span<const source::VersionCapture> captures = h.captures(r);
    for (std::size_t i = 0; i < captures.size(); ++i) {
      out << (i > 0 ? "|" : "") << captures[i].first << ':'
          << captures[i].second;
    }
    out << ']';
  }
  return out.str();
}

template <typename T>
std::string Outcome(const Result<T>& result) {
  return result.ok() ? Render(*result) : result.status().ToString();
}

const char kWorldHead[] = "#world,loc,2,cat,2,100\n";
const char kWorldCols[] = "id,subdomain,birth,death,updates\n";

std::string WorldFile(const std::string& rows) {
  return std::string(kWorldHead) + kWorldCols + rows;
}

const char kSourceHead[] = "#source,s,3,1,4\n#scope,0|2\n";
const char kSourceCols[] = "entity,subdomain,inserted,deleted,captures\n";

std::string SourceFile(const std::string& rows) {
  return std::string(kSourceHead) + kSourceCols + rows;
}

std::vector<EdgeCase> WorldCases() {
  return {
      {"empty", "", "InvalidArgument: empty world file: {path}"},
      {"header_only", kWorldHead,
       "InvalidArgument: bad world column header"},
      {"header_no_newline", "#world,loc,2,cat,2,100",
       "InvalidArgument: bad world column header"},
      {"no_rows", WorldFile(""), "ok loc=2 cat=2 h=100"},
      {"columns_no_newline",
       std::string(kWorldHead) + "id,subdomain,birth,death,updates",
       "ok loc=2 cat=2 h=100"},
      {"header_5_fields", "#world,loc,2,cat,2\n",
       "InvalidArgument: bad world header: #world,loc,2,cat,2"},
      {"header_7_fields", "#world,loc,2,cat,2,100,7\n",
       "InvalidArgument: bad world header: #world,loc,2,cat,2,100,7"},
      {"header_wrong_tag", "#wrld,loc,2,cat,2,100\n",
       "InvalidArgument: bad world header: #wrld,loc,2,cat,2,100"},
      {"header_plus", "#world,loc,+2,cat,2,100\n",
       "InvalidArgument: malformed integer: +2"},
      {"header_space", "#world,loc, 2,cat,2,100\n",
       "InvalidArgument: malformed integer:  2"},
      {"header_empty_size", "#world,loc,,cat,2,100\n",
       "InvalidArgument: expected integer, got empty field"},
      {"header_crlf", "#world,loc,2,cat,2,100\r\n" + std::string(kWorldCols),
       "InvalidArgument: malformed integer: 100\r"},
      {"columns_crlf",
       std::string(kWorldHead) + "id,subdomain,birth,death,updates\r\n",
       "InvalidArgument: bad world column header"},
      {"rows", WorldFile("0,1,5,50,10|20\n1,3,0,,\n"),
       "ok loc=2 cat=2 h=100 [0 1 5 50 10|20] [1 3 0 never ]"},
      {"last_row_no_newline", WorldFile("0,1,5,,\n1,0,7,9,8"),
       "ok loc=2 cat=2 h=100 [0 1 5 never ] [1 0 7 9 8]"},
      {"blank_lines", WorldFile("\n0,1,5,,\n\n\n1,0,7,,\n\n"),
       "ok loc=2 cat=2 h=100 [0 1 5 never ] [1 0 7 never ]"},
      {"negative_birth", WorldFile("0,1,-5,,\n"),
       "ok loc=2 cat=2 h=100 [0 1 -5 never ]"},
      {"row_crlf_empty_updates", WorldFile("0,1,5,,\r\n"),
       "InvalidArgument: malformed integer: \r"},
      {"row_crlf_updates", WorldFile("0,1,5,,10\r\n"),
       "InvalidArgument: malformed integer: 10\r"},
      {"blank_crlf_line", WorldFile("\r\n"),
       "InvalidArgument: bad world row: \r"},
      {"space_line", WorldFile(" \n"), "InvalidArgument: bad world row:  "},
      {"row_6_fields", WorldFile("0,1,5,,,\n"),
       "InvalidArgument: bad world row: 0,1,5,,,"},
      {"row_4_fields", WorldFile("0,1,5,\n"),
       "InvalidArgument: bad world row: 0,1,5,"},
      {"empty_id", WorldFile(",1,5,,\n"),
       "InvalidArgument: expected integer, got empty field"},
      {"empty_birth", WorldFile("0,1,,,\n"),
       "InvalidArgument: expected integer, got empty field"},
      {"plus_birth", WorldFile("0,1,+5,,\n"),
       "InvalidArgument: malformed integer: +5"},
      {"space_birth", WorldFile("0,1, 5,,\n"),
       "InvalidArgument: malformed integer:  5"},
      {"trailing_space_birth", WorldFile("0,1,5 ,,\n"),
       "InvalidArgument: malformed integer: 5 "},
      {"text_death", WorldFile("0,1,5,abc,\n"),
       "InvalidArgument: malformed integer: abc"},
      {"overflow_birth", WorldFile("0,1,99999999999999999999,,\n"),
       "InvalidArgument: malformed integer: 99999999999999999999"},
      {"double_bar_updates", WorldFile("0,1,5,,10||20\n"),
       "InvalidArgument: expected integer, got empty field"},
      {"trailing_bar_updates", WorldFile("0,1,5,,10|\n"),
       "InvalidArgument: expected integer, got empty field"},
      {"colon_updates", WorldFile("0,1,5,,1:2:3\n"),
       "InvalidArgument: malformed integer: 1:2:3"},
      {"sparse_ids", WorldFile("1,1,5,,\n"),
       "InvalidArgument: entity ids must be dense: expected 0, got 1"},
      {"subdomain_out_of_range", WorldFile("0,4,5,,\n"),
       "InvalidArgument: subdomain out of range"},
      {"death_before_birth", WorldFile("0,1,5,5,\n"),
       "InvalidArgument: death must follow birth"},
      {"unsorted_updates", WorldFile("0,1,5,,20|10\n"),
       "InvalidArgument: updates must be strictly increasing and after "
       "birth"},
  };
}

std::vector<EdgeCase> SourceCases() {
  return {
      {"empty", "", "InvalidArgument: empty source file: {path}"},
      {"header_only", "#source,s,3,1,4\n",
       "InvalidArgument: missing scope line"},
      {"header_no_newline", "#source,s,3,1,4",
       "InvalidArgument: missing scope line"},
      {"scope_only", kSourceHead,
       "InvalidArgument: bad source column header"},
      {"no_rows", SourceFile(""), "ok s p=3 ph=1 n=4 scope=0|2"},
      {"columns_no_newline",
       std::string(kSourceHead) +
           "entity,subdomain,inserted,deleted,captures",
       "ok s p=3 ph=1 n=4 scope=0|2"},
      {"header_4_fields", "#source,s,3,1\n",
       "InvalidArgument: bad source header: #source,s,3,1"},
      {"header_6_fields", "#source,s,3,1,4,5\n",
       "InvalidArgument: bad source header: #source,s,3,1,4,5"},
      {"header_plus", "#source,s,+3,1,4\n",
       "InvalidArgument: malformed integer: +3"},
      {"header_space", "#source,s,3, 1,4\n",
       "InvalidArgument: malformed integer:  1"},
      {"header_empty_count", "#source,s,3,1,\n",
       "InvalidArgument: expected integer, got empty field"},
      {"header_crlf", "#source,s,3,1,4\r\n#scope,0\r\n",
       "InvalidArgument: malformed integer: 4\r"},
      {"scope_wrong_tag", "#source,s,3,1,4\n#scop,0\n",
       "InvalidArgument: bad scope line: #scop,0"},
      {"scope_1_field", "#source,s,3,1,4\n#scope\n",
       "InvalidArgument: bad scope line: #scope"},
      {"scope_3_fields", "#source,s,3,1,4\n#scope,0,1\n",
       "InvalidArgument: bad scope line: #scope,0,1"},
      {"scope_empty",
       "#source,s,3,1,4\n#scope,\n" + std::string(kSourceCols),
       "ok s p=3 ph=1 n=4 scope="},
      {"scope_double_bar", "#source,s,3,1,4\n#scope,0||1\n",
       "InvalidArgument: expected integer, got empty field"},
      {"scope_crlf", "#source,s,3,1,4\n#scope,0|1\r\n",
       "InvalidArgument: malformed integer: 1\r"},
      {"columns_crlf",
       std::string(kSourceHead) +
           "entity,subdomain,inserted,deleted,captures\r\n",
       "InvalidArgument: bad source column header"},
      {"rows", SourceFile("0,0,5,9,0:5|1:8\n2,2,3,,\n"),
       "ok s p=3 ph=1 n=4 scope=0|2 [0 0 5 9 0:5|1:8] [2 2 3 never ]"},
      {"last_row_no_newline", SourceFile("0,0,5,,0:5\n1,2,6,,0:6"),
       "ok s p=3 ph=1 n=4 scope=0|2 [0 0 5 never 0:5] [1 2 6 never 0:6]"},
      {"blank_lines", SourceFile("\n\n0,0,5,,0:5\n\n"),
       "ok s p=3 ph=1 n=4 scope=0|2 [0 0 5 never 0:5]"},
      {"row_crlf_captures", SourceFile("0,0,5,,0:5\r\n"),
       "InvalidArgument: malformed integer: 5\r"},
      {"row_crlf_no_captures", SourceFile("0,0,5,,\r\n"),
       "InvalidArgument: bad capture pair: \r"},
      {"blank_crlf_line", SourceFile("\r\n"),
       "InvalidArgument: bad source row: \r"},
      {"row_6_fields", SourceFile("0,0,5,,0:5,\n"),
       "InvalidArgument: bad source row: 0,0,5,,0:5,"},
      {"row_4_fields", SourceFile("0,0,5,\n"),
       "InvalidArgument: bad source row: 0,0,5,"},
      {"empty_entity", SourceFile(",0,5,,\n"),
       "InvalidArgument: expected integer, got empty field"},
      {"plus_inserted", SourceFile("0,0,+5,,\n"),
       "InvalidArgument: malformed integer: +5"},
      {"space_inserted", SourceFile("0,0, 5,,\n"),
       "InvalidArgument: malformed integer:  5"},
      {"text_deleted", SourceFile("0,0,5,x,\n"),
       "InvalidArgument: malformed integer: x"},
      {"triple_pair", SourceFile("0,0,5,,1:2:3\n"),
       "InvalidArgument: bad capture pair: 1:2:3"},
      {"double_bar_pairs", SourceFile("0,0,5,,0:5||1:8\n"),
       "InvalidArgument: bad capture pair: "},
      {"only_bars", SourceFile("0,0,5,,||\n"),
       "InvalidArgument: bad capture pair: "},
      {"dash_pair", SourceFile("0,0,5,,0-5\n"),
       "InvalidArgument: bad capture pair: 0-5"},
      {"empty_day", SourceFile("0,0,5,,0:\n"),
       "InvalidArgument: expected integer, got empty field"},
      {"plus_version", SourceFile("0,0,5,,+0:5\n"),
       "InvalidArgument: malformed integer: +0"},
      {"entity_out_of_range", SourceFile("4,0,5,,\n"),
       "InvalidArgument: entity id out of range"},
      {"duplicate_entity", SourceFile("1,0,5,,\n1,0,6,,\n"),
       "InvalidArgument: duplicate capture record for entity"},
  };
}

TEST(ScenarioIoEdgeTest, WorldReaderContract) {
  for (const EdgeCase& c : WorldCases()) {
    SCOPED_TRACE(c.name);
    const std::string path = TempPath(std::string("world_") + c.name);
    {
      std::ofstream out(path, std::ios::binary);
      out << c.contents;
    }
    EXPECT_EQ(Outcome(ReadWorldCsv(path)), Substitute(c.expected, path));
    std::remove(path.c_str());
  }
}

TEST(ScenarioIoEdgeTest, SourceReaderContract) {
  for (const EdgeCase& c : SourceCases()) {
    SCOPED_TRACE(c.name);
    const std::string path = TempPath(std::string("source_") + c.name);
    {
      std::ofstream out(path, std::ios::binary);
      out << c.contents;
    }
    EXPECT_EQ(Outcome(ReadSourceHistoryCsv(path)),
              Substitute(c.expected, path));
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace freshsel::io
