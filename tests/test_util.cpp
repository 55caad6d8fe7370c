// Tests of the bench-harness utilities: exponent fitting, series
// registration and claim checking, table printing, CLI parsing, and the
// COO generators.
#include "spmv/generators.hpp"
#include "util/cli.hpp"
#include "util/fit.hpp"
#include "util/json.hpp"
#include "util/series.hpp"
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace scm {
namespace {

TEST(Fit, RecoversExactPowerLaw) {
  std::vector<double> n;
  std::vector<double> cost;
  for (double x : {64.0, 256.0, 1024.0, 4096.0}) {
    n.push_back(x);
    cost.push_back(7.5 * std::pow(x, 1.5));
  }
  const util::PowerFit fit = util::fit_power_law(n, cost);
  EXPECT_NEAR(fit.exponent, 1.5, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
  EXPECT_TRUE(util::exponent_matches(fit, 1.5, 0.01));
  EXPECT_FALSE(util::exponent_matches(fit, 1.0, 0.1));
}

TEST(Fit, RecoversPolylogShape) {
  std::vector<double> n;
  std::vector<double> cost;
  for (double x : {256.0, 1024.0, 4096.0, 16384.0}) {
    n.push_back(x);
    cost.push_back(3.0 * std::pow(std::log2(x), 3.0));
  }
  const util::PowerFit fit = util::fit_polylog(n, cost);
  EXPECT_NEAR(fit.exponent, 3.0, 1e-9);
}

TEST(Fit, DegenerateInputsAreSafe) {
  EXPECT_EQ(util::fit_power_law({}, {}).exponent, 0.0);
  EXPECT_EQ(util::fit_power_law({4.0}, {2.0}).exponent, 0.0);
  const util::PowerFit fit =
      util::fit_power_law({1.0, 2.0, 0.0}, {3.0, 6.0, -1.0});
  EXPECT_NEAR(fit.exponent, 1.0, 1e-9);  // non-positive points are dropped
  EXPECT_TRUE(fit.valid);
}

TEST(Fit, DegenerateFitsAreInvalidAndNeverMatch) {
  // Zero points, one point, points with non-positive cost, and points
  // with zero spread in n all produce exponent 0 — which previously
  // satisfied every upper-bound claim (fit.exponent < expected). The
  // valid flag marks them as carrying no shape information.
  const util::PowerFit empty = util::fit_power_law({}, {});
  const util::PowerFit single = util::fit_power_law({4.0}, {2.0});
  const util::PowerFit zeros =
      util::fit_power_law({64.0, 256.0}, {0.0, 0.0});
  const util::PowerFit no_spread =
      util::fit_power_law({8.0, 8.0}, {1.0, 2.0});
  for (const util::PowerFit* fit : {&empty, &single, &zeros, &no_spread}) {
    EXPECT_FALSE(fit->valid);
    EXPECT_EQ(fit->exponent, 0.0);
    // Even an arbitrarily generous tolerance must not match.
    EXPECT_FALSE(util::exponent_matches(*fit, 0.0, 100.0));
  }
  EXPECT_FALSE(util::fit_polylog({4.0}, {2.0}).valid);
}

TEST(Fit, DescribeProducesReadableStrings) {
  const util::PowerFit fit{1.52, 0.0, 0.999, true};
  EXPECT_NE(util::describe_power(fit).find("n^1.52"), std::string::npos);
  EXPECT_NE(util::describe_polylog(fit).find("(log n)^1.52"),
            std::string::npos);
  // Invalid fits say so instead of rendering a meaningless n^0.
  const util::PowerFit invalid{};
  EXPECT_NE(util::describe_power(invalid).find("no fit"), std::string::npos);
}

TEST(Series, RegistryKeepsSamplesSortedAndDeduplicatedByN) {
  // Points arrive in registration order, not size order; the registry
  // guarantees ascending n with same-n overwrites so tables, fits, and
  // ratio rows never depend on benchmark registration order.
  auto& reg = util::SeriesRegistry::instance();
  Metrics a;
  a.energy = 10;
  Metrics b;
  b.energy = 20;
  Metrics c;
  c.energy = 30;
  Metrics b2;
  b2.energy = 25;
  reg.add("test_series_order", 1024.0, b);
  reg.add("test_series_order", 256.0, a);
  reg.add("test_series_order", 4096.0, c);
  reg.add("test_series_order", 1024.0, b2);  // dedup: overwrite, not append
  const auto& samples = reg.series("test_series_order");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].n, 256.0);
  EXPECT_EQ(samples[1].n, 1024.0);
  EXPECT_EQ(samples[2].n, 4096.0);
  EXPECT_EQ(samples[1].metrics.energy, 25);
  EXPECT_TRUE(reg.series("never_registered").empty());
}

TEST(Series, UnknownMetricNamesAreRejected) {
  EXPECT_TRUE(util::known_metric("energy"));
  EXPECT_TRUE(util::known_metric("depth"));
  EXPECT_TRUE(util::known_metric("distance"));
  EXPECT_TRUE(util::known_metric("messages"));
  EXPECT_FALSE(util::known_metric("mesages"));  // the typo that motivated this
  EXPECT_FALSE(util::known_metric(""));
#ifdef NDEBUG
  // In release builds the assert is compiled out; the NaN return can
  // never satisfy a claim comparison.
  Metrics m;
  m.messages = 7;
  EXPECT_TRUE(std::isnan(util::metric_value(m, "mesages")));
#endif
}

TEST(Series, PrintSeriesMarksDegenerateFitsInconclusive) {
  // A series whose metric has < 2 positive points must not PASS any
  // claim — the fit is degenerate, so the claim is INCONCLUSIVE.
  auto& reg = util::SeriesRegistry::instance();
  Metrics zero;  // energy 0 at both sizes: zero usable log-log points
  reg.add("test_series_degenerate", 256.0, zero);
  reg.add("test_series_degenerate", 1024.0, zero);
  ::testing::internal::CaptureStdout();
  util::print_series("degenerate", "test_series_degenerate",
                     {{"energy", false, 1.0, 0.1, "Theta(n)"},
                      {"depth", true, 1.0, 0.25, "O(log n)"}});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("INCONCLUSIVE"), std::string::npos);
  EXPECT_EQ(out.find("PASS"), std::string::npos);
}

TEST(Series, PrintSeriesFailsUnknownMetricClaimsLoudly) {
  auto& reg = util::SeriesRegistry::instance();
  Metrics m;
  m.energy = 100;
  reg.add("test_series_typo", 256.0, m);
  m.energy = 400;
  reg.add("test_series_typo", 1024.0, m);
  ::testing::internal::CaptureStdout();
  util::print_series("typo", "test_series_typo",
                     {{"enregy", false, 1.0, 0.1, "Theta(n)"}});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("unknown metric"), std::string::npos);
  EXPECT_NE(out.find("FAIL"), std::string::npos);
  EXPECT_EQ(out.find("PASS"), std::string::npos);
}

TEST(Table, AlignsColumnsAndCounts) {
  util::Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a    bbbb"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(util::fmt_count(1234567), "1,234,567");
  EXPECT_EQ(util::fmt_count(0), "0");
  EXPECT_EQ(util::fmt_count(-42000), "-42,000");
  EXPECT_EQ(util::fmt_double(3.14159, 3), "3.14");
}

TEST(Cli, ParsesFlagsInBothForms) {
  // "--name=value", "--name value", and a bare trailing "--flag".
  const char* argv[] = {"prog", "--n=128", "--seed", "7", "--flag"};
  util::Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_EQ(cli.get_int("seed", 0), 7);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get("flag", ""), "true");
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(cli.has("positional"));
  EXPECT_EQ(cli.get_int("missing", -3), -3);

  // Numeric lookups parse the whole value: anything else is a usage error
  // naming the flag and the value, never a silent 0 (or 5 for "5e3").
  const char* bad[] = {"prog", "--a=abc", "--b=5e3", "--c=12x", "--d=",
                       "--e=99999999999999999999", "--f=1.5x"};
  util::Cli strict(7, const_cast<char**>(bad));
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    try {
      (void)strict.get_int(name, 0);
      ADD_FAILURE() << "--" << name << " parsed as an integer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name),
                std::string::npos)
          << e.what();
    }
  }
  for (const char* name : {"a", "c", "d", "f"}) {
    EXPECT_THROW((void)strict.get_double(name, 0.0), std::invalid_argument)
        << name;
  }
  EXPECT_EQ(strict.get_double("b", 0.0), 5e3);  // a valid double
  // A bare flag holds "true", which is not a number.
  EXPECT_THROW((void)cli.get_int("flag", 1), std::invalid_argument);

  const char* good[] = {"prog", "--neg=-12", "--x=0.25", "--big=1e300"};
  util::Cli valid(4, const_cast<char**>(good));
  EXPECT_EQ(valid.get_int("neg", 0), -12);
  EXPECT_EQ(valid.get_double("x", 0.0), 0.25);
  EXPECT_EQ(valid.get_double("big", 0.0), 1e300);
}

TEST(Cli, WarnUnknownSuggestsTheIntendedFlag) {
  // `--profle` is a typo of the queried `--profile`; it must be reported
  // with the suggestion instead of failing silently.
  const char* argv[] = {"prog", "--profle=out.json", "--n=8"};
  util::Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get("profile", ""), "");
  EXPECT_EQ(cli.get_int("n", 0), 8);
  std::ostringstream os;
  EXPECT_EQ(cli.warn_unknown(os), 1);
  EXPECT_NE(os.str().find("unknown flag --profle"), std::string::npos);
  EXPECT_NE(os.str().find("did you mean --profile"), std::string::npos);
}

TEST(Cli, WarnUnknownIsSilentWhenEveryFlagWasQueried) {
  const char* argv[] = {"prog", "--profile=a.json", "--trace-json=b.json"};
  util::Cli cli(3, const_cast<char**>(argv));
  (void)cli.get("profile", "");
  (void)cli.get("trace-json", "");
  std::ostringstream os;
  EXPECT_EQ(cli.warn_unknown(os), 0);
  EXPECT_TRUE(os.str().empty());
}

TEST(Cli, WarnUnknownExemptsBenchmarkFlags) {
  // google-benchmark parses --benchmark_* itself; the Cli never sees
  // lookups for them but must not cry wolf.
  const char* argv[] = {"prog", "--benchmark_filter=BM_Scan",
                        "--benchmark_min_time=0.01", "--mystery=1"};
  util::Cli cli(4, const_cast<char**>(argv));
  std::ostringstream os;
  EXPECT_EQ(cli.warn_unknown(os), 1);
  EXPECT_NE(os.str().find("--mystery"), std::string::npos);
  EXPECT_EQ(os.str().find("benchmark"), std::string::npos);
}

TEST(Json, ParsesTheValueGrammar) {
  const auto doc = util::json::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "s": "x\ny",)"
      R"( "null": null, "f": false})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const util::json::Value* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].number, -300.0);
  EXPECT_TRUE(doc->find("b")->find("nested")->boolean);
  EXPECT_EQ(doc->find("s")->string, "x\ny");
  EXPECT_EQ(doc->find("null")->kind, util::json::Value::Kind::kNull);
  EXPECT_FALSE(doc->find("f")->boolean);
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(Json, DecodesEscapesIncludingUnicode) {
  // é is é (2-byte UTF-8), € is € (3-byte UTF-8).
  const auto doc =
      util::json::parse("[\"A\\u00e9\\u20ac\", \"\\t\\\"\\\\\"]");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->array[0].string, "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(doc->array[1].string, "\t\"\\");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(util::json::parse("").has_value());
  EXPECT_FALSE(util::json::parse("{").has_value());
  EXPECT_FALSE(util::json::parse("[1,]").has_value());
  EXPECT_FALSE(util::json::parse(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(util::json::parse(R"("unterminated)").has_value());
  EXPECT_FALSE(util::json::parse("{'single':1}").has_value());
  EXPECT_FALSE(util::json::parse("nul").has_value());
}

TEST(Generators, ProduceValidMatricesOfTheRightShape) {
  const CooMatrix u = random_uniform_matrix(32, 100, 1);
  EXPECT_TRUE(u.valid());
  EXPECT_EQ(u.nnz(), 100);

  const CooMatrix b = banded_matrix(16, 2, 2);
  EXPECT_TRUE(b.valid());
  for (const Triple& t : b.entries()) {
    EXPECT_LE(std::abs(t.row - t.col), 2);
  }

  const CooMatrix d = diagonal_matrix({1.0, 2.0, 3.0});
  EXPECT_EQ(d.nnz(), 3);
  for (const Triple& t : d.entries()) EXPECT_EQ(t.row, t.col);

  const CooMatrix p = power_law_matrix(64, 16, 1.0, 3);
  EXPECT_TRUE(p.valid());
  EXPECT_GE(p.nnz(), 64);  // every row gets >= 1 entry

  const CooMatrix poisson = poisson2d_matrix(5);
  EXPECT_TRUE(poisson.valid());
  EXPECT_EQ(poisson.n_rows(), 25);
  EXPECT_EQ(poisson.nnz(), 25 + 2 * 2 * 5 * 4);  // diag + 4 neighbor bands
}

TEST(Generators, PoissonIsSymmetric) {
  const CooMatrix a = poisson2d_matrix(4);
  // Check symmetry through reference multiplication: <Ax, y> == <x, Ay>.
  std::vector<double> x(16), y(16);
  for (int i = 0; i < 16; ++i) {
    x[static_cast<size_t>(i)] = std::sin(i + 1.0);
    y[static_cast<size_t>(i)] = std::cos(i * 2.0);
  }
  const auto ax = a.multiply_reference(x);
  const auto ay = a.multiply_reference(y);
  double lhs = 0, rhs = 0;
  for (int i = 0; i < 16; ++i) {
    lhs += ax[static_cast<size_t>(i)] * y[static_cast<size_t>(i)];
    rhs += x[static_cast<size_t>(i)] * ay[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

}  // namespace
}  // namespace scm
