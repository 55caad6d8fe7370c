// Unit tests of the property-fuzzing engine itself: certificate
// round-trips and check semantics, replay-token parsing, deterministic
// case generation, shrinker minimization, and an injected cost regression
// caught by an exact certificate.
#include "testing/bounds.hpp"
#include "testing/gen.hpp"
#include "testing/property.hpp"
#include "testing/runner.hpp"
#include "testing/shrink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

namespace scm::testing {
namespace {

TEST(FuzzBounds, SerializeParseRoundTrip) {
  BoundSet set;
  set.set_slack(1.5);
  set.record_ratio("bitonic_sort", "energy", 1.0, 2);
  set.record_ratio("mergesort2d", "energy", 20.25, 2);
  set.record_ratio("mergesort2d", "depth", 0.75, 2);
  const std::string text = set.serialize();
  const std::optional<BoundSet> parsed = BoundSet::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->slack(), 1.5);
  ASSERT_EQ(parsed->certificates().size(), 3u);
  EXPECT_EQ(parsed->certificates(), set.certificates());
  // Serialization is stable: a second round-trip is byte-identical.
  EXPECT_EQ(parsed->serialize(), text);
}

TEST(FuzzBounds, RejectsWrongVersionAndGarbage) {
  EXPECT_FALSE(BoundSet::parse("{\"version\": 999, \"slack\": 1.25, "
                               "\"certificates\": []}")
                   .has_value());
  EXPECT_FALSE(BoundSet::parse("not json").has_value());
  EXPECT_FALSE(BoundSet::parse("{}").has_value());
}

TEST(FuzzBounds, CheckSemantics) {
  BoundSet set;  // slack 1.25
  set.record_ratio("p", "energy", 2.0, 4);
  // Within certificate * slack.
  EXPECT_TRUE(set.check("p", "energy", 200.0, 100.0, 8));
  EXPECT_TRUE(set.check("p", "energy", 250.0, 100.0, 8));
  // Beyond it (headroom is negligible at this scale).
  EXPECT_FALSE(set.check("p", "energy", 260.0, 100.0, 8));
  // Instances below min_n are exempt.
  EXPECT_TRUE(set.check("p", "energy", 9999.0, 100.0, 3));
  // Unknown (property, metric) pairs are not checked.
  EXPECT_TRUE(set.check("q", "energy", 9999.0, 100.0, 8));
  // A zero budget demands exactly zero cost, headroom or not.
  EXPECT_TRUE(set.check("p", "energy", 0.0, 0.0, 8));
  EXPECT_FALSE(set.check("p", "energy", 1.0, 0.0, 8));
  // The absolute headroom absorbs whole-step jitter on tiny budgets.
  EXPECT_TRUE(set.check("p", "energy", 2.5 + BoundSet::kCheckHeadroom - 0.5,
                        1.0, 8));
}

TEST(FuzzBounds, InjectedCostRegressionIsCaught) {
  // bitonic_sort's energy certificate is exact (constant 1 against the
  // host replay of the network), so a simulated doubling of routing cost
  // must violate it while the true cost passes.
  const Property* prop = find_property("bitonic_sort");
  ASSERT_NE(prop, nullptr);
  Rng rng(derive_case_seed(11, 0));
  const CaseInput in = prop->generate(rng, 32);
  Machine m;
  const CaseOutcome outcome = prop->run(m, in);
  ASSERT_TRUE(outcome.ok);
  const double budget = outcome.budget("energy");
  ASSERT_GT(budget, 0.0);
  const auto measured = static_cast<double>(m.metrics().energy);
  EXPECT_LE(measured, budget);

  BoundSet set;
  set.record_ratio("bitonic_sort", "energy", 1.0, 2);
  EXPECT_TRUE(
      set.check("bitonic_sort", "energy", measured, budget, outcome.size));
  EXPECT_FALSE(set.check("bitonic_sort", "energy", 2.0 * measured, budget,
                         outcome.size));
}

TEST(FuzzRunnerTokens, ParseTokenAcceptsSeedColonCase) {
  const auto parsed = FuzzRunner::parse_token("2026:17");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, 2026u);
  EXPECT_EQ(parsed->second, 17);
}

TEST(FuzzRunnerTokens, ParseTokenRejectsMalformedInput) {
  for (const char* bad : {"", ":", "5:", ":3", "abc", "5:x", "x:5", "5:3:7",
                          "5:-3", "5: 3"}) {
    EXPECT_FALSE(FuzzRunner::parse_token(bad).has_value()) << bad;
  }
}

TEST(FuzzRunnerTokens, ReplayTokenBackwardCompatibleTwoFieldForm) {
  RunnerConfig config;
  config.shrink_attempts = 0;
  std::ostringstream log;
  FuzzRunner runner(config, BoundSet{});
  const auto replayed = runner.replay("2026:17", log);
  ASSERT_TRUE(replayed.has_value()) << log.str();
  EXPECT_EQ(replayed->cases_run, 1);
  EXPECT_FALSE(runner.replay("2026:17:t4x32x64", log).has_value());
}

TEST(FuzzRunnerTokens, ReplayTokenRejectsMalformedSuffixes) {
  // A third field is malformed, whatever its shape: the engine-shape
  // suffixes ("2026:17:t4x32x64") older runs emitted must be rejected,
  // not replayed as their two-field prefix under a different check.
  RunnerConfig config;
  config.shrink_attempts = 0;
  std::ostringstream log;
  FuzzRunner runner(config, BoundSet{});
  for (const char* bad :
       {"2026:17:t4x32x64", "5:3:", "5:3:t", "5:3:t4", "5:3:t4x8",
        "5:3:t4x8x", "5:3:tx8x8", "5:3:t0x8x8", "5:3:t4x-8x8",
        "5:3:t4x8x8x2", "5:3:u4x8x8", "5:3:t4x8x8 ", "5:3:t4x8x8"}) {
    EXPECT_FALSE(FuzzRunner::parse_token(bad).has_value()) << bad;
    EXPECT_FALSE(runner.replay(bad, log).has_value()) << bad;
  }
}

TEST(FuzzGenerate, CaseGenerationIsDeterministic) {
  // The replay contract: (master seed, case index) fully determines the
  // instance, independent of prior generator use.
  for (const Property& prop : all_properties()) {
    Rng rng_a(derive_case_seed(2026, 7));
    Rng rng_b(derive_case_seed(2026, 7));
    const CaseInput a = prop.generate(rng_a, prop.min_n + 5);
    const CaseInput b = prop.generate(rng_b, prop.min_n + 5);
    EXPECT_EQ(a, b) << prop.name;
    // A different case index yields a different stream.
    Rng rng_c(derive_case_seed(2026, 8));
    (void)prop.generate(rng_c, prop.min_n + 5);
  }
}

TEST(FuzzReplay, ReplayIsRepeatable) {
  RunnerConfig config;
  config.shrink_attempts = 0;
  std::ostringstream log_a;
  std::ostringstream log_b;
  FuzzRunner runner_a(config, BoundSet{});
  FuzzRunner runner_b(config, BoundSet{});
  const auto a = runner_a.replay("2026:3", log_a);
  const auto b = runner_b.replay("2026:3", log_b);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cases_run, 1);
  EXPECT_EQ(log_a.str(), log_b.str());
}

TEST(FuzzShrink, MinimizesAnInjectedComparatorBug) {
  // Simulate a functional bug that fires whenever the input mixes negative
  // and positive keys. The shrinker must reduce a large failing instance
  // to a near-minimal reproducer (the acceptance bar is n <= 8; the
  // two-element witness {negative, positive} is the true minimum).
  const Property* prop = find_property("mergesort2d");
  ASSERT_NE(prop, nullptr);
  CaseInput failing;
  failing.n = 40;
  failing.keys.resize(40);
  for (size_t i = 0; i < failing.keys.size(); ++i) {
    failing.keys[i] = static_cast<std::int64_t>(i) * 13 - 260;
  }
  failing.geom = canonical_geometry(GeomKind::kSquareZ, failing.n);
  ASSERT_TRUE(!prop->valid || prop->valid(failing));

  const auto has_mixed_signs = [](const CaseInput& in) {
    const bool neg = std::any_of(in.keys.begin(), in.keys.end(),
                                 [](std::int64_t k) { return k < 0; });
    const bool pos = std::any_of(in.keys.begin(), in.keys.end(),
                                 [](std::int64_t k) { return k > 0; });
    return neg && pos;
  };
  ASSERT_TRUE(has_mixed_signs(failing));

  ShrinkStats stats;
  const CaseInput shrunk =
      shrink_case(*prop, failing, has_mixed_signs, 400, &stats);
  EXPECT_TRUE(has_mixed_signs(shrunk));  // still failing
  EXPECT_LE(shrunk.n, 8);
  EXPECT_EQ(shrunk.n, 2);  // greedy halving + ddmin reach the minimum here
  EXPECT_GT(stats.attempts, 0);
}

TEST(FuzzSmokeSlice, MetamorphicAndAbCadencesPass) {
  // A miniature of the ctest smoke tier with the metamorphic and bulk-A/B
  // oracles on EVERY case (the full tier runs them on a cadence). No
  // certificates: functional, conformance, metamorphic, and A/B checks.
  RunnerConfig config;
  config.seed = 424242;
  config.cases = 32;
  config.max_n = 24;
  config.metamorphic_every = 1;
  config.ab_every = 1;
  std::ostringstream log;
  FuzzRunner runner(config, BoundSet{});
  const FuzzReport report = runner.run(log);
  EXPECT_TRUE(report.ok()) << log.str();
  EXPECT_EQ(report.cases_run, 32);
  EXPECT_EQ(report.cases_skipped, 0);
}

}  // namespace
}  // namespace scm::testing
