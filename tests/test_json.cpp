// Unit tests for util/json: the writer's layouts, number format and
// escaping, the reader's grammar and limits, the checked file write, and
// the committed BENCH_*.json artifacts read back through the reader.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <unistd.h>

#include "util/json.hpp"

namespace gryphon {
namespace {

std::string compact_number(double v) {
  std::string out;
  JsonWriter(out, JsonWriter::Style::kCompact).value(v);
  return out;
}

// ----------------------------------------------------------------- writer

TEST(JsonWriter, NumberFormatIsExactForIntegersAndNullForNonFinite) {
  EXPECT_EQ(compact_number(std::nan("")), "null");
  EXPECT_EQ(compact_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(compact_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(compact_number(1e300), "1e+300");
  EXPECT_EQ(compact_number(-1e300), "-1e+300");
  EXPECT_EQ(compact_number(-0.0), "0");
  EXPECT_EQ(compact_number(9007199254740992.0), "9.0072e+15");  // 2^53
  EXPECT_EQ(compact_number(999999999999999.0), "999999999999999");
  EXPECT_EQ(compact_number(1e15), "1e+15");
  EXPECT_EQ(compact_number(1568000.0), "1568000");
  EXPECT_EQ(compact_number(-42.0), "-42");
  EXPECT_EQ(compact_number(0.5), "0.5");
  EXPECT_EQ(compact_number(1.0 / 3.0), "0.333333");
}

TEST(JsonWriter, PrettyNestsAndInlinesContainers) {
  std::string out;
  JsonWriter w(out);
  w.begin_object()
      .field("name", "x")
      .key("empty")
      .begin_object()
      .end_object()
      .key("list")
      .begin_array()
      .value(1)
      .value(true)
      .end_array()
      .key("row")
      .begin_object(/*inline_items=*/true)
      .field("count", 2)
      .key("p")
      .begin_array()
      .value(0.5)
      .value(false)
      .end_array()
      .end_object()
      .end_object();
  EXPECT_EQ(out, R"({
  "name": "x",
  "empty": {},
  "list": [
    1,
    true
  ],
  "row": {"count": 2, "p": [0.5, false]}
})");
}

TEST(JsonWriter, CompactHasNoWhitespaceExceptRequestedLineBreaks) {
  std::string out;
  JsonWriter w(out, JsonWriter::Style::kCompact);
  w.begin_object().field("a", 1).key("b").begin_array().value("x").value(2).end_array();
  w.end_object();
  EXPECT_EQ(out, R"({"a":1,"b":["x",2]})");

  std::string lines;
  JsonWriter l(lines, JsonWriter::Style::kCompact);
  l.begin_array().line_break().value(1).line_break().raw(R"({"k":2})").line_break().end_array();
  EXPECT_EQ(lines, "[\n1,\n{\"k\":2}\n]");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  const std::string nasty = std::string("a\"b\\c\n\t\x01\x1f") + "\xc3\xa9";
  std::string out;
  JsonWriter(out, JsonWriter::Style::kCompact).begin_object().field(nasty, nasty).end_object();
  EXPECT_EQ(out, "{\"a\\\"b\\\\c\\u000a\\u0009\\u0001\\u001f\xc3\xa9\":"
                 "\"a\\\"b\\\\c\\u000a\\u0009\\u0001\\u001f\xc3\xa9\"}");
  const auto doc = parse_json(out);
  ASSERT_TRUE(doc);
  ASSERT_EQ(doc->object.size(), 1u);
  EXPECT_EQ(doc->object[0].first, nasty);
  EXPECT_EQ(doc->object[0].second.string, nasty);
}

// ----------------------------------------------------------------- reader

TEST(JsonReader, ParsesValuesInDocumentOrder) {
  const auto doc = parse_json(
      " {\"n\": -0.5e+2, \"z\": 0, \"s\": \"\\u00e9\\u20AC\\n\\/\", \"t\": true,"
      " \"f\": false, \"nil\": null, \"a\": [1E2, {}], \"n\": 7}\r\n");
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->number_at("n"), -50.0);  // the first of duplicate keys
  EXPECT_EQ(doc->number_at("z"), 0.0);
  ASSERT_NE(doc->string_at("s"), nullptr);
  EXPECT_EQ(*doc->string_at("s"), "\xc3\xa9\xe2\x82\xac\n/");
  EXPECT_TRUE(doc->find("t")->boolean);
  EXPECT_EQ(doc->find("nil")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc->find("a")->array.size(), 2u);
  EXPECT_EQ(doc->find("a")->array[0].number, 100.0);
  EXPECT_EQ(doc->number_at("s"), std::nullopt);
  EXPECT_EQ(doc->string_at("missing"), nullptr);
}

TEST(JsonReader, RejectsNonJsonNumbers) {
  for (const char* text : {"{\"t\": 0x10}", "Infinity", "-Infinity", "NaN", "-nan", "+1",
                           ".5", "01", "-", "1.", "1.e3", "1e", "1e+", "--1", "0x1p3"}) {
    std::string error;
    EXPECT_FALSE(parse_json(text, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonReader, RejectsMalformedDocuments) {
  for (const char* text :
       {"", "   ", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{1:2}", "[1 2]", "tru", "nul",
        "\"unterminated", "\"bad \\x escape\"", "\"\\u12\"", "\"\\u+123\"",
        "\"raw \x01 control\"", "{} {}", "[\v1]"}) {
    EXPECT_FALSE(parse_json(text)) << text;
  }
}

TEST(JsonReader, BoundsNestingDepth) {
  const std::string at_limit =
      std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(parse_json(at_limit));
  const std::string over_limit =
      std::string(kMaxJsonDepth + 1, '[') + std::string(kMaxJsonDepth + 1, ']');
  std::string error;
  EXPECT_FALSE(parse_json(over_limit, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  // Two million brackets: a clean error, not a stack overflow.
  EXPECT_FALSE(parse_json(std::string(2'000'000, '[')));
}

// ------------------------------------------------------------------ files

TEST(JsonFiles, WriteFileReportsAFullDevice) {
  EXPECT_FALSE(write_file("/dev/full", "{}\n"));
  EXPECT_FALSE(write_file("/nonexistent-dir/x.json", "{}\n"));
}

TEST(JsonFiles, WriteThenReadRoundTrips) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("gryphon_json_test." + std::to_string(::getpid()));
  ASSERT_TRUE(write_file(path.string(), "{\"a\": [1, 2]}\n"));
  std::string text;
  ASSERT_TRUE(read_file(path.string(), text));
  EXPECT_EQ(text, "{\"a\": [1, 2]}\n");
  std::filesystem::remove(path);
  EXPECT_FALSE(read_file(path.string(), text));
}

// -------------------------------------------------------- bench artifacts

const JsonValue* find_workload(const JsonValue& doc, const std::string& name,
                               const std::string& variant) {
  for (const JsonValue& w : doc.find("workloads")->array) {
    const std::string* n = w.string_at("name");
    const std::string* v = w.string_at("variant");
    if (n != nullptr && *n == name && v != nullptr && *v == variant) return &w;
  }
  return nullptr;
}

// Every committed artifact parses as it is, with the layout the bench
// --check gates read.
TEST(BenchArtifacts, EveryCommittedFileParses) {
  std::set<std::string> seen;
  for (const auto& entry : std::filesystem::directory_iterator(GRYPHON_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") continue;
    seen.insert(name);
    std::string text;
    std::string error;
    ASSERT_TRUE(read_file(entry.path().string(), text)) << name;
    const auto doc = parse_json(text, &error);
    ASSERT_TRUE(doc) << name << ": " << error;
    ASSERT_NE(doc->string_at("schema"), nullptr) << name;
    const JsonValue* workloads = doc->find("workloads");
    ASSERT_NE(workloads, nullptr) << name;
    ASSERT_FALSE(workloads->array.empty()) << name;
    for (const JsonValue& w : workloads->array) {
      EXPECT_NE(w.string_at("name"), nullptr) << name;
    }
  }
  for (const char* expected : {"BENCH_churn_storm.json", "BENCH_recovery_fuzz.json",
                               "BENCH_scale_1m.json", "BENCH_sockets.json",
                               "BENCH_substrate.json"}) {
    EXPECT_EQ(seen.count(expected), 1u) << expected;
  }
}

// The rates bench_wallclock --check gates on, as the line scanner it used
// before the reader existed returned them from the committed file.
TEST(BenchArtifacts, SubstrateRatesMatchTheCommittedValues) {
  std::string text;
  ASSERT_TRUE(read_file(std::string(GRYPHON_SOURCE_DIR) + "/BENCH_substrate.json", text));
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc);
  struct Expected {
    const char* workload;
    double events_per_wall_sec;
    double deliveries_per_wall_sec;
  };
  for (const Expected& e : {Expected{"fig4_steady_4shb", 1194340, 970280},
                            Expected{"fig4_steady_4shb_codec", 703114, 571210},
                            Expected{"chaos_soak_seed1", 1721030, 220791},
                            Expected{"catchup_herd_5k", 637655, 153702}}) {
    const JsonValue* w = find_workload(*doc, e.workload, "run");
    ASSERT_NE(w, nullptr) << e.workload;
    EXPECT_EQ(w->number_at("sim_events_per_wall_sec"), e.events_per_wall_sec) << e.workload;
    EXPECT_EQ(w->number_at("deliveries_per_wall_sec"), e.deliveries_per_wall_sec)
        << e.workload;
  }
}

TEST(BenchArtifacts, SocketsRecordAnExactlyOnceRunWithGates) {
  std::string text;
  ASSERT_TRUE(read_file(std::string(GRYPHON_SOURCE_DIR) + "/BENCH_sockets.json", text));
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc);
  const JsonValue& run = doc->find("workloads")->array.front();
  EXPECT_EQ(*run.string_at("name"), "paced_real");
  EXPECT_TRUE(run.find("exactly_once")->boolean);
  EXPECT_EQ(run.number_at("gate_e2e_p50_ms"), 0.75);
  EXPECT_EQ(run.number_at("gate_e2e_p99_ms"), 10.0);
}

}  // namespace
}  // namespace gryphon
