// bench::Report, the one bench output path: byte-exact tables and
// BENCH_ rows for each layout, and the BENCH value rules (12 significant
// digits, non-finite numbers as strings, escaped text).
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "bench_util.h"

namespace pdsi {
namespace {

TEST(BenchReport, SweepPrintsEachValueAsCellAndField) {
  std::ostringstream os;
  bench::Report r("demo",
                  {{"", "system"},
                   {"app", "app"},
                   {"pattern", ""},
                   {"direct", "direct_mbs", FormatRate, 1e6},
                   {"speedup", "speedup", bench::Fixed(1, "x")},
                   {"verify", "verify_ok", bench::Flag("ok", "FAIL")}},
                  os);
  r.row({"panfs-like", "FLASH-io", "n1_strided", 2.0 * 1048576, 115.46, true});
  r.row({"gpfs-like", "Chombo", "n1", 512, 4.8, false});
  r.print();
  EXPECT_EQ(os.str(),
            "BENCH_demo.json {\"system\": \"panfs-like\", \"app\": \"FLASH-io\", "
            "\"direct_mbs\": 2.097152, \"speedup\": 115.46, \"verify_ok\": 1}\n"
            "BENCH_demo.json {\"system\": \"gpfs-like\", \"app\": \"Chombo\", "
            "\"direct_mbs\": 0.000512, \"speedup\": 4.8, \"verify_ok\": 0}\n"
            "app       pattern     direct      speedup  verify\n"
            "-------------------------------------------------\n"
            "FLASH-io  n1_strided  2.00 MiB/s  115.5x   ok    \n"
            "Chombo    n1          512 B/s     4.8x     FAIL  \n");
}

TEST(BenchReport, MetricValuePrintsOneLinePerHeadedColumnThenTheRow) {
  std::ostringstream os;
  bench::Report r("demo",
                  {{"", "scenario"},
                   {"healthy read", "healthy_read_s", FormatDuration},
                   {"lost shards", "", bench::Fixed(0)},
                   {"", "rebuilt_shards"},
                   {"bytes identical", "identical", bench::Flag("yes", "NO")}},
                  os);
  r.metrics({"crash_rebuild", 0.25, 2, std::uint64_t{2}, true});
  EXPECT_EQ(os.str(),
            "metric           value \n"
            "-----------------------\n"
            "healthy read     250 ms\n"
            "lost shards      2     \n"
            "bytes identical  yes   \n"
            "BENCH_demo.json {\"scenario\": \"crash_rebuild\", \"healthy_read_s\": 0.25, "
            "\"rebuilt_shards\": 2, \"identical\": 1}\n");
}

TEST(BenchReport, CellFillsTheTableAndLeavesTheFieldOut) {
  std::ostringstream os;
  bench::Report r("demo", {{"", "mode"}, {"drain", "drain_s", FormatDuration}, {"", "extra"}},
                  os);
  r.row({"direct", bench::Cell("none"), bench::Cell("")});
  r.row({"bb", 60.0, 1});
  r.print();
  EXPECT_EQ(os.str(),
            "BENCH_demo.json {\"mode\": \"direct\"}\n"
            "BENCH_demo.json {\"mode\": \"bb\", \"drain_s\": 60, \"extra\": 1}\n"
            "drain \n"
            "------\n"
            "none  \n"
            "60.0 s\n");
}

TEST(BenchReport, BenchValueRules) {
  const double inf = std::numeric_limits<double>::infinity();
  std::ostringstream os;
  bench::Report::Emit("demo",
                      {{"inf", inf},
                       {"ninf", -inf},
                       {"nan", std::numeric_limits<double>::quiet_NaN()},
                       {"third", 1.0 / 3.0},
                       {"big", 123456789.123456789},
                       {"tiny", 1e-7},
                       {"count", std::uint64_t{42}},
                       {"flag", true},
                       {"text", "a\"b\\c"}},
                      os);
  EXPECT_EQ(os.str(),
            "BENCH_demo.json {\"inf\": \"inf\", \"ninf\": \"-inf\", \"nan\": \"nan\", "
            "\"third\": 0.333333333333, \"big\": 123456789.123, \"tiny\": 1e-07, "
            "\"count\": 42, \"flag\": 1, \"text\": \"a\\\"b\\\\c\"}\n");
}

TEST(BenchReport, RowFieldsFollowTheSameRules) {
  std::ostringstream os;
  bench::Report r("demo", {{"", "label"}, {"", "rate_mbs", FormatRate, 1e6}}, os);
  r.row({"quote\"slash\\", std::numeric_limits<double>::infinity()});
  EXPECT_EQ(os.str(),
            "BENCH_demo.json {\"label\": \"quote\\\"slash\\\\\", \"rate_mbs\": \"inf\"}\n");
}

TEST(BenchReport, RowOfTheWrongWidthThrows) {
  std::ostringstream os;
  bench::Report r("demo", {{"a", "a"}, {"b", "b"}}, os);
  EXPECT_THROW(r.row({1}), std::invalid_argument);
  EXPECT_THROW(r.metrics({1, 2, 3}), std::invalid_argument);
  EXPECT_EQ(os.str(), "");
}

}  // namespace
}  // namespace pdsi
