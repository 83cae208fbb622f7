// SPDX-License-Identifier: Apache-2.0
// Experiment engine frontend: CLI parsing, result-row serialization
// (CSV column union, quoting, JSON escaping) and hard-failing output
// writing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "exp/row.hpp"
#include "exp/suite.hpp"

namespace mp3d::exp {
namespace {

CliOptions parse(std::vector<const char*> args,
                 const std::vector<std::string>& extra_flags = {},
                 std::string* error = nullptr) {
  args.insert(args.begin(), "bench");
  CliOptions options;
  const std::string err = parse_cli(static_cast<int>(args.size()),
                                    const_cast<char**>(args.data()), options,
                                    extra_flags);
  if (error != nullptr) {
    *error = err;
  } else {
    EXPECT_EQ(err, "");
  }
  return options;
}

TEST(Cli, Defaults) {
  const CliOptions o = parse({});
  EXPECT_FALSE(o.list);
  EXPECT_TRUE(o.filters.empty());
  EXPECT_GE(o.jobs, 1u);
  EXPECT_TRUE(o.csv);
  EXPECT_FALSE(o.json);
  EXPECT_FALSE(o.smoke);
  EXPECT_EQ(o.out_dir, "");
}

TEST(Cli, AllFlags) {
  const CliOptions o = parse({"--list", "--filter", "fig8", "--filter", "1MiB",
                              "--jobs", "8", "--csv", "--json", "--out", "/tmp/x",
                              "--smoke", "--progress"});
  EXPECT_TRUE(o.list);
  EXPECT_EQ(o.filters, (std::vector<std::string>{"fig8", "1MiB"}));
  EXPECT_EQ(o.jobs, 8u);
  EXPECT_TRUE(o.csv);
  EXPECT_TRUE(o.json);
  EXPECT_EQ(o.out_dir, "/tmp/x");
  EXPECT_TRUE(o.smoke);
  EXPECT_TRUE(o.progress);
}

TEST(Cli, ExplicitFormatReplacesTheDefault) {
  const CliOptions json_only = parse({"--json"});
  EXPECT_FALSE(json_only.csv);
  EXPECT_TRUE(json_only.json);
  const CliOptions csv_only = parse({"--csv"});
  EXPECT_TRUE(csv_only.csv);
  EXPECT_FALSE(csv_only.json);
}

TEST(Cli, Errors) {
  std::string error;
  parse({"--frobnicate"}, {}, &error);
  EXPECT_NE(error.find("unknown argument"), std::string::npos);
  parse({"--jobs", "0"}, {}, &error);
  EXPECT_NE(error.find("--jobs"), std::string::npos);
  parse({"--jobs", "many"}, {}, &error);
  EXPECT_NE(error.find("--jobs"), std::string::npos);
  parse({"--filter"}, {}, &error);
  EXPECT_NE(error.find("--filter"), std::string::npos);
}

TEST(Cli, TelemetryFlags) {
  const CliOptions off = parse({});
  EXPECT_EQ(off.timeline_window, 0u);
  EXPECT_EQ(off.trace_file, "");
  EXPECT_FALSE(off.telemetry());

  const CliOptions o =
      parse({"--timeline", "1024", "--trace", "events.json"});
  EXPECT_EQ(o.timeline_window, 1024u);
  EXPECT_EQ(o.trace_file, "events.json");
  EXPECT_TRUE(o.telemetry());
  EXPECT_TRUE(parse({"--timeline", "1024"}).telemetry());
  EXPECT_TRUE(parse({"--trace", "t.json"}).telemetry());
}

TEST(Cli, TelemetryFlagErrors) {
  std::string error;
  parse({"--timeline"}, {}, &error);
  EXPECT_NE(error.find("--timeline"), std::string::npos);
  parse({"--timeline", "0"}, {}, &error);
  EXPECT_NE(error.find("--timeline"), std::string::npos);
  parse({"--timeline", "8"}, {}, &error);  // below the 16-cycle floor
  EXPECT_NE(error.find("--timeline"), std::string::npos);
  parse({"--timeline", "soon"}, {}, &error);
  EXPECT_NE(error.find("--timeline"), std::string::npos);
  parse({"--trace"}, {}, &error);
  EXPECT_NE(error.find("--trace"), std::string::npos);
}

TEST(Cli, ExtraFlagsAreOptIn) {
  std::string error;
  parse({"--measure"}, {}, &error);
  EXPECT_NE(error.find("unknown argument"), std::string::npos);
  const CliOptions o = parse({"--measure"}, {"--measure"});
  EXPECT_TRUE(o.extra("--measure"));
  EXPECT_FALSE(o.extra("--other"));
}

TEST(Rows, CsvUnionColumnsAndQuoting) {
  std::vector<Row> rows;
  rows.push_back(Row().cell("a", std::string("1")).cell("b", std::string("x,y")));
  rows.push_back(Row().cell("b", std::string("plain")).cell("c", std::string("q\"q")));
  const std::string csv = rows_to_csv(rows);
  EXPECT_EQ(csv,
            "a,b,c\n"
            "1,\"x,y\",\n"
            ",plain,\"q\"\"q\"\n");
}

TEST(Rows, NumericCellsAndGet) {
  Row row;
  row.cell("n", static_cast<u64>(7)).cell("d", 0.12345, 3);
  EXPECT_EQ(row.get("n"), "7");
  EXPECT_EQ(row.get("d"), "0.123");
  EXPECT_EQ(row.get("missing"), "");
}

TEST(Output, WriteCreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mp3d_exp_test" / "nested";
  std::filesystem::remove_all(dir.parent_path());
  const std::string path = (dir / "out.csv").string();
  EXPECT_EQ(write_text_file(path, "a,b\n1,2\n"), "");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "a,b\n1,2\n");
  std::filesystem::remove_all(dir.parent_path());
}

TEST(Output, WriteFailureIsReported) {
  // The parent "directory" is a regular file, so creation must fail.
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() / "mp3d_exp_not_a_dir";
  std::ofstream(file.string()) << "occupied";
  const std::string err =
      write_text_file((file / "sub" / "out.csv").string(), "data");
  EXPECT_FALSE(err.empty());
  std::filesystem::remove(file);
}

TEST(Output, OutDirPrefersCliThenEnv) {
  EXPECT_EQ(out_dir("/explicit"), "/explicit");
  ::setenv("MP3D_BENCH_OUT", "/from_env", 1);
  EXPECT_EQ(out_dir(), "/from_env");
  ::unsetenv("MP3D_BENCH_OUT");
  EXPECT_NE(out_dir(), "/from_env");
}

}  // namespace
}  // namespace mp3d::exp
