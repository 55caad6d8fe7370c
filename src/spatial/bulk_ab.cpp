#include "spatial/bulk_ab.hpp"

#include "spatial/trace.hpp"
#include "spatial/validate.hpp"

#include <sstream>

namespace scm {

namespace {

/// One traced execution under the charging mode `bulk`. The scalar run
/// feeds the congestion map per-message replays; the bulk run exercises
/// its batched on_send_bulk. sorted_links() then compares the two
/// decompositions link by link.
AbRun run_one(const std::function<void(Machine&)>& algorithm, bool bulk) {
  ScopedBulkCharging mode(bulk);
  ConformanceChecker::Config config;
  config.strict = false;  // mismatches must surface as AbResult, not abort
  ConformanceChecker checker(config);
  CongestionMap congestion;
  FanoutSink fanout({&checker, &congestion});
  Machine m;
  m.set_trace(&fanout);
  algorithm(m);
  checker.verify(m);
  AbRun run;
  run.totals = m.metrics();
  run.phases = m.phases();
  run.links = congestion.sorted_links();
  run.congested_clock = congestion.congested_clock();
  run.conformance_ok = checker.report().ok();
  if (!run.conformance_ok) run.conformance_report = checker.report().str();
  return run;
}

void append_metrics(std::ostringstream& os, const Metrics& m) {
  os << "energy=" << m.energy << " messages=" << m.messages
     << " local_ops=" << m.local_ops << " depth=" << m.depth()
     << " distance=" << m.distance();
}

void append_metrics_diff(std::ostringstream& os, const std::string& what,
                         const char* label_a, const char* label_b,
                         const Metrics& a, const Metrics& b) {
  os << "  " << what << ":\n    " << label_a << ": ";
  append_metrics(os, a);
  os << "\n    " << label_b << ": ";
  append_metrics(os, b);
  os << '\n';
}

/// Every mismatch between two runs, `a` being the reference; empty when
/// the runs agree on totals, phases, and links (conformance verdicts are
/// reported separately, once per run).
std::string diff_pair(const AbRun& a, const AbRun& b, const char* label_a,
                      const char* label_b) {
  std::ostringstream os;
  if (!(a.totals == b.totals)) {
    append_metrics_diff(os, "totals", label_a, label_b, a.totals, b.totals);
  }
  if (a.phases != b.phases) {
    for (const auto& [name, metrics] : a.phases) {
      const auto it = b.phases.find(name);
      if (it == b.phases.end()) {
        os << "  phase \"" << name << "\": present in " << label_a
           << " only\n";
      } else if (!(it->second == metrics)) {
        append_metrics_diff(os, "phase \"" + name + "\"", label_a, label_b,
                            metrics, it->second);
      }
    }
    for (const auto& [name, metrics] : b.phases) {
      if (!a.phases.contains(name)) {
        os << "  phase \"" << name << "\": present in " << label_b
           << " only\n";
      }
    }
  }
  if (a.congested_clock != b.congested_clock) {
    os << "  congested clock: " << label_a << ' ' << a.congested_clock
       << " vs " << label_b << ' ' << b.congested_clock << '\n';
  }
  if (a.links != b.links) {
    std::size_t reported = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while ((i < a.links.size() || j < b.links.size()) && reported < 8) {
      const bool take_a =
          j >= b.links.size() ||
          (i < a.links.size() && a.links[i].first < b.links[j].first);
      const bool take_b =
          i >= a.links.size() ||
          (j < b.links.size() && b.links[j].first < a.links[i].first);
      if (take_a) {
        os << "  link " << a.links[i].first.str() << ": " << label_a
           << " only (load " << a.links[i].second << ")\n";
        ++i;
        ++reported;
      } else if (take_b) {
        os << "  link " << b.links[j].first.str() << ": " << label_b
           << " only (load " << b.links[j].second << ")\n";
        ++j;
        ++reported;
      } else {
        if (a.links[i].second != b.links[j].second) {
          os << "  link " << a.links[i].first.str() << ": " << label_a << ' '
             << a.links[i].second << " vs " << label_b << ' '
             << b.links[j].second << '\n';
          ++reported;
        }
        ++i;
        ++j;
      }
    }
  }
  return os.str();
}

void append_conformance(std::ostringstream& os, const AbRun& run,
                        const char* label) {
  if (!run.conformance_ok) {
    os << "  " << label << " run not conformant:\n" << run.conformance_report;
  }
}

}  // namespace

std::string AbResult::diff() const {
  if (ok()) return {};
  std::ostringstream os;
  os << diff_pair(scalar, bulk, "scalar", "bulk");
  append_conformance(os, scalar, "scalar");
  append_conformance(os, bulk, "bulk");
  return os.str();
}

AbResult run_ab(const std::function<void(Machine&)>& algorithm) {
  AbResult result;
  result.scalar = run_one(algorithm, /*bulk=*/false);
  result.bulk = run_one(algorithm, /*bulk=*/true);
  result.totals_equal = result.scalar.totals == result.bulk.totals;
  result.phases_equal = result.scalar.phases == result.bulk.phases;
  result.links_equal =
      result.scalar.links == result.bulk.links &&
      result.scalar.congested_clock == result.bulk.congested_clock;
  return result;
}

}  // namespace scm
