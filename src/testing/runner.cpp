#include "testing/runner.hpp"

#include "spatial/bulk_ab.hpp"
#include "spatial/congestion.hpp"
#include "spatial/independence.hpp"
#include "spatial/validate.hpp"
#include "testing/shrink.hpp"

#include <chrono>
#include <exception>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

namespace scm::testing {

namespace {

double metric_of(const Metrics& m, const std::string& name) {
  if (name == "energy") return static_cast<double>(m.energy);
  if (name == "depth") return static_cast<double>(m.depth());
  if (name == "distance") return static_cast<double>(m.distance());
  if (name == "messages") return static_cast<double>(m.messages);
  return -1.0;
}

ConformanceChecker::Config checker_config() {
  ConformanceChecker::Config config;
  // Violations are fuzz findings to report with a replay token, not
  // aborts: non-strict even under SCM_STRICT_MODEL.
  config.strict = false;
  return config;
}

IndependenceChecker::Config independence_config() {
  IndependenceChecker::Config config;
  // Findings, not aborts — same policy as the conformance checker above.
  config.strict = false;
  return config;
}

/// One traced execution: outcome, machine totals, conformance and batch-
/// independence verdicts, plus (on metamorphic cadence) the link-level
/// congestion signature the translation/reflection oracles compare.
struct Execution {
  CaseOutcome outcome;
  Metrics metrics;
  bool conformance_ok{true};
  std::string conformance_report;
  bool independence_ok{true};
  std::string independence_report;
  /// Sorted per-link occupancy values (CongestionMap::occupancy_multiset);
  /// empty unless congestion tracking was requested.
  std::vector<index_t> link_multiset;
  index_t peak_link_load{0};
};

Execution execute(const Property& prop, const CaseInput& in,
                  bool track_congestion = false) {
  Machine m;
  ConformanceChecker checker(checker_config());
  IndependenceChecker independence(independence_config());
  FanoutSink fanout(std::vector<TraceSink*>{&checker, &independence});
  // Congestion tracking costs O(distance) per message, so it rides the
  // metamorphic cadence only.
  CongestionMap congestion;
  if (track_congestion) fanout.add(&congestion);
  m.set_trace(&fanout);
  Execution result;
  // A bug in the code under test may surface as an exception (a broken
  // sort invariant turning a count negative, say) long before any oracle
  // runs. That is a finding to report with a replay token, not a reason
  // to lose the whole fuzz run.
  try {
    result.outcome = prop.run(m, in);
  } catch (const std::exception& e) {
    result.outcome.ok = false;
    result.outcome.failure = std::string("uncaught exception: ") + e.what();
  } catch (...) {
    result.outcome.ok = false;
    result.outcome.failure = "uncaught non-standard exception";
  }
  checker.verify(m);
  m.set_trace(nullptr);
  result.metrics = m.metrics();
  result.conformance_ok = checker.report().ok();
  if (!result.conformance_ok) {
    result.conformance_report = checker.report().str();
  }
  result.independence_ok = independence.report().ok();
  if (!result.independence_ok) {
    result.independence_report = independence.report().str();
  }
  if (track_congestion) {
    result.link_multiset = congestion.occupancy_multiset();
    result.peak_link_load = congestion.max_link_load();
  }
  return result;
}

}  // namespace

std::string FailureRecord::str() const {
  std::ostringstream os;
  os << "FAIL [" << kind << "] " << property << " --replay=" << replay_token
     << "\n";
  os << "  " << detail << "\n";
  os << "  original: " << original.str() << "\n";
  os << "  shrunk:   " << shrunk.str() << " (" << shrink_attempts
     << " shrink attempts)";
  return os.str();
}

FuzzRunner::FuzzRunner(RunnerConfig config, BoundSet bounds)
    : config_(std::move(config)), bounds_(std::move(bounds)) {}

std::optional<std::pair<std::uint64_t, index_t>> FuzzRunner::parse_token(
    const std::string& token) {
  const size_t colon = token.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= token.size()) {
    return std::nullopt;
  }
  // Digits only on both sides: stoull/stoll would otherwise accept
  // leading whitespace and signs.
  for (size_t i = 0; i < token.size(); ++i) {
    if (i == colon) continue;
    if (token[i] < '0' || token[i] > '9') return std::nullopt;
  }
  std::uint64_t seed = 0;
  index_t index = 0;
  try {
    size_t used = 0;
    seed = std::stoull(token.substr(0, colon), &used);
    if (used != colon) return std::nullopt;
    const std::string rest = token.substr(colon + 1);
    index = static_cast<index_t>(std::stoll(rest, &used));
    if (used != rest.size() || index < 0) return std::nullopt;
  } catch (...) {
    return std::nullopt;
  }
  return std::make_pair(seed, index);
}

std::vector<const Property*> FuzzRunner::selected() const {
  std::vector<const Property*> props;
  for (const Property& p : all_properties()) {
    if (config_.only.empty()) {
      props.push_back(&p);
      continue;
    }
    for (const std::string& name : config_.only) {
      if (p.name == name) {
        props.push_back(&p);
        break;
      }
    }
  }
  return props;
}

CaseInput FuzzRunner::generate_case(const Property& prop,
                                    index_t case_index) const {
  Rng rng(derive_case_seed(config_.seed, case_index));
  index_t hi = prop.max_n;
  if (config_.max_n > 0) hi = std::min(hi, config_.max_n);
  hi = std::max(hi, prop.min_n);
  // Quadratic bias toward small sizes: small instances dominate (cheap,
  // and most bugs reproduce there) while the tail still reaches max_n.
  const double r = rng.real();
  const index_t target =
      prop.min_n +
      static_cast<index_t>(r * r * static_cast<double>(hi - prop.min_n));
  return prop.generate(rng, target);
}

FuzzRunner::Verdict FuzzRunner::evaluate(const Property& prop,
                                         const CaseInput& in,
                                         bool check_metamorphic,
                                         bool check_ab) {
  const Execution base = execute(prop, in, check_metamorphic);
  if (!base.conformance_ok) {
    return {false, "conformance", base.conformance_report};
  }
  if (!base.independence_ok) {
    return {false, "independence", base.independence_report};
  }
  if (!base.outcome.ok) {
    return {false, "functional", base.outcome.failure};
  }
  if (!base.outcome.skip_cost) {
    for (const auto& [metric, budget] : base.outcome.budgets) {
      const double measured = metric_of(base.metrics, metric);
      if (config_.fit) {
        if (budget > 0 && base.outcome.size >= prop.min_n) {
          bounds_.record_ratio(prop.name, metric, measured / budget,
                               prop.min_n);
        }
      } else if (!bounds_.check(prop.name, metric, measured, budget,
                                base.outcome.size)) {
        return {false, "bound:" + metric,
                bounds_.explain(prop.name, metric, measured, budget)};
      }
    }
  }

  if (check_metamorphic && prop.metamorphic_translation) {
    // Translation leaves every message vector unchanged, so ALL metrics —
    // energy, messages, ops, and the (depth, distance) clock — must be
    // bit-identical on the moved grid.
    const Coord delta{17, -9};
    const CaseInput moved = prop.translate ? prop.translate(in, delta)
                                           : translate_geometry(in, delta);
    const Execution shifted = execute(prop, moved, /*track_congestion=*/true);
    if (!(shifted.metrics == base.metrics)) {
      std::ostringstream os;
      os << "metrics changed under translation by (" << delta.row << ","
         << delta.col << "): base " << base.metrics.str() << " vs moved "
         << shifted.metrics.str();
      return {false, "metamorphic:translation", os.str()};
    }
    if (shifted.link_multiset != base.link_multiset) {
      // Translation moves every dimension-ordered route rigidly: links
      // relocate but no occupancy value changes, so the multiset over
      // touched links must be bit-identical.
      std::ostringstream os;
      os << "link-occupancy multiset changed under translation by ("
         << delta.row << "," << delta.col << "): base " << base.link_multiset.size()
         << " links peak " << base.peak_link_load << " vs moved "
         << shifted.link_multiset.size() << " links peak "
         << shifted.peak_link_load;
      return {false, "metamorphic:translation", os.str()};
    }
    if (!shifted.outcome.ok) {
      return {false, "metamorphic:translation",
              "translated instance failed functionally: " +
                  shifted.outcome.failure};
    }
  }
  if (check_metamorphic && prop.relabel) {
    // A random renaming of the identifier space (vertex labels): the
    // algorithms address through dense normalized ids, so every message
    // vector — hence all metrics and the link-occupancy multiset — must
    // be bit-identical, not merely asymptotically equal.
    const CaseInput renamed =
        prop.relabel(in, in.algo_seed ^ 0x9e3779b97f4a7c15ULL);
    const Execution named = execute(prop, renamed, /*track_congestion=*/true);
    if (!(named.metrics == base.metrics)) {
      std::ostringstream os;
      os << "metrics changed under relabeling: base " << base.metrics.str()
         << " vs renamed " << named.metrics.str();
      return {false, "metamorphic:relabel", os.str()};
    }
    if (named.link_multiset != base.link_multiset) {
      std::ostringstream os;
      os << "link-occupancy multiset changed under relabeling: base "
         << base.link_multiset.size() << " links peak "
         << base.peak_link_load << " vs renamed "
         << named.link_multiset.size() << " links peak "
         << named.peak_link_load;
      return {false, "metamorphic:relabel", os.str()};
    }
    if (!named.outcome.ok) {
      return {false, "metamorphic:relabel",
              "relabeled instance failed functionally: " +
                  named.outcome.failure};
    }
  }
  if (check_metamorphic && prop.reflect) {
    if (const std::optional<CaseInput> mirrored = prop.reflect(in)) {
      // Reflection reverses columns; every message's length is preserved,
      // so energy and depth must match exactly.
      const Execution flipped = execute(prop, *mirrored, /*track_congestion=*/true);
      if (flipped.metrics.energy != base.metrics.energy ||
          flipped.metrics.depth() != base.metrics.depth()) {
        std::ostringstream os;
        os << "energy/depth changed under reflection: base "
           << base.metrics.str() << " vs mirrored " << flipped.metrics.str();
        return {false, "metamorphic:reflection", os.str()};
      }
      if (flipped.peak_link_load != base.peak_link_load) {
        // Column reflection maps the dimension-ordered route set onto its
        // mirror image (east/west link directions swap), a bijection on
        // links — so the peak link load is preserved exactly.
        std::ostringstream os;
        os << "peak link load changed under reflection: base "
           << base.peak_link_load << " vs mirrored "
           << flipped.peak_link_load;
        return {false, "metamorphic:reflection", os.str()};
      }
      if (!flipped.outcome.ok) {
        return {false, "metamorphic:reflection",
                "mirrored instance failed functionally: " +
                    flipped.outcome.failure};
      }
    }
  }

  if (check_ab) {
    // Swallow exceptions inside the A/B body: the base execution above
    // already succeeded, so a throw here could only come from a charging
    // divergence — which the totals comparison reports anyway.
    const AbResult ab = run_ab([&](Machine& machine) {
      try {
        (void)prop.run(machine, in);
      } catch (...) {
      }
    });
    if (!ab.ok()) {
      return {false, "bulk-ab", ab.diff()};
    }
  }

  return {};
}

FailureRecord FuzzRunner::report_failure(const Property& prop,
                                         const CaseInput& in,
                                         index_t case_index, Verdict first,
                                         bool check_metamorphic,
                                         bool check_ab) {
  FailureRecord rec;
  rec.property = prop.name;
  rec.case_index = case_index;
  rec.replay_token =
      std::to_string(config_.seed) + ":" + std::to_string(case_index);
  rec.kind = std::move(first.kind);
  rec.detail = std::move(first.detail);
  rec.original = in;

  // Shrink under the same checks that caught the failure. Fit mode is
  // paused so shrink candidates do not pollute the fitted ratios.
  const bool was_fitting = config_.fit;
  config_.fit = false;
  ShrinkStats stats;
  rec.shrunk = shrink_case(
      prop, in,
      [&](const CaseInput& cand) {
        return !evaluate(prop, cand, check_metamorphic, check_ab).ok;
      },
      config_.shrink_attempts, &stats);
  config_.fit = was_fitting;
  rec.shrink_attempts = stats.attempts;
  return rec;
}

FuzzReport FuzzRunner::run(std::ostream& log) {
  FuzzReport report;
  const std::vector<const Property*> props = selected();
  if (props.empty()) {
    log << "fuzz: no properties selected\n";
    return report;
  }
  const auto start = std::chrono::steady_clock::now();
  for (index_t i = 0; i < config_.cases; ++i) {
    if (config_.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > config_.time_budget_seconds) {
        log << "fuzz: time budget (" << config_.time_budget_seconds
            << "s) reached after " << report.cases_run << " cases\n";
        break;
      }
    }
    const Property& prop =
        *props[static_cast<size_t>(i) % props.size()];
    const CaseInput in = generate_case(prop, i);
    if (prop.valid && !prop.valid(in)) {
      // A generator emitting invalid instances is itself a bug worth
      // seeing; count it (the smoke tier asserts zero skips).
      ++report.cases_skipped;
      log << "fuzz: SKIP invalid instance " << config_.seed << ":" << i
          << " " << prop.name << " " << in.str() << "\n";
      continue;
    }
    const bool meta = config_.metamorphic_every > 0 &&
                      i % config_.metamorphic_every == 0;
    const bool ab = config_.ab_every > 0 && i % config_.ab_every == 0;
    Verdict verdict = evaluate(prop, in, meta, ab);
    ++report.cases_run;
    ++report.per_property[prop.name];
    if (!verdict.ok) {
      FailureRecord rec =
          report_failure(prop, in, i, std::move(verdict), meta, ab);
      log << rec.str() << "\n";
      report.failures.push_back(std::move(rec));
    } else if (config_.verbose) {
      log << "ok " << config_.seed << ":" << i << " " << prop.name
          << " n=" << in.n << "\n";
    }
  }
  log << "fuzz: " << report.cases_run << " cases, " << report.failures.size()
      << " failures, " << report.cases_skipped << " skipped, "
      << report.per_property.size() << " properties\n";
  return report;
}

std::optional<FuzzReport> FuzzRunner::replay(const std::string& token,
                                             std::ostream& log) {
  const auto parsed = parse_token(token);
  if (!parsed) return std::nullopt;
  const auto [seed, index] = *parsed;
  config_.seed = seed;
  const std::vector<const Property*> props = selected();
  FuzzReport report;
  if (props.empty()) {
    log << "fuzz: no properties selected\n";
    return report;
  }
  const Property& prop =
      *props[static_cast<size_t>(index) % props.size()];
  const CaseInput in = generate_case(prop, index);
  log << "replay " << token << " -> " << prop.name << " " << in.str()
      << "\n";
  if (prop.valid && !prop.valid(in)) {
    ++report.cases_skipped;
    log << "fuzz: instance invalid (generator bug?)\n";
    return report;
  }
  const bool meta = config_.metamorphic_every > 0 &&
                    index % config_.metamorphic_every == 0;
  const bool ab = config_.ab_every > 0 && index % config_.ab_every == 0;
  Verdict verdict = evaluate(prop, in, meta, ab);
  ++report.cases_run;
  ++report.per_property[prop.name];
  if (!verdict.ok) {
    FailureRecord rec =
        report_failure(prop, in, index, std::move(verdict), meta, ab);
    log << rec.str() << "\n";
    report.failures.push_back(std::move(rec));
  } else {
    log << "replay " << token << ": PASS\n";
  }
  return report;
}

}  // namespace scm::testing
