#include "util/profile_session.hpp"

#include "spatial/machine.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace scm::util {

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

ProfileSession::ProfileSession(const Cli& cli) : cli_(&cli) {
  report_path_ = cli.get("profile", "");
  trace_path_ = cli.get("trace-json", "");
  ascii_ = cli.has("profile-ascii");
  congestion_heatmap_ = cli.has("congestion-heatmap");
  congestion_ = cli.has("congestion") || congestion_heatmap_;
  load_heatmap_ = cli.has("load-heatmap");
  // The run report's critical-path section needs the witness; standalone
  // traces/ASCII trees don't pay for it unless asked.
  bool witness = false;
  try {
    witness = cli.get_int("witness", report_path_.empty() ? 0 : 1) != 0;
  } catch (const std::invalid_argument& e) {
    cli.exit_usage(e);
  }
  if (report_path_.empty() && trace_path_.empty() && !ascii_ &&
      !congestion_ && !load_heatmap_) {
    return;
  }
  Profiler::Options options;
  options.witness = witness;
  options.load_map = !report_path_.empty() || load_heatmap_;
  options.congestion = congestion_;
  profiler_ = std::make_unique<Profiler>(options);
  Machine::set_global_trace(profiler_.get());
}

ProfileSession::~ProfileSession() { finish(); }

void ProfileSession::finish() {
  if (finished_) return;
  finished_ = true;
  if (profiler_ != nullptr) {
    if (Machine::global_trace() == profiler_.get()) {
      Machine::set_global_trace(nullptr);
    }
    if (!report_path_.empty()) {
      if (write_file(report_path_, profiler_->json_report())) {
        std::printf("profile: run report written to %s\n",
                    report_path_.c_str());
      } else {
        std::fprintf(stderr, "profile: cannot write %s\n",
                     report_path_.c_str());
      }
    }
    if (!trace_path_.empty()) {
      if (write_file(trace_path_, profiler_->chrome_trace_json())) {
        std::printf(
            "profile: chrome trace written to %s (open in Perfetto or "
            "chrome://tracing)\n",
            trace_path_.c_str());
      } else {
        std::fprintf(stderr, "profile: cannot write %s\n",
                     trace_path_.c_str());
      }
    }
    if (ascii_) std::cout << profiler_->ascii_report();
    if (congestion_ && profiler_->congestion() != nullptr) {
      std::cout << profiler_->congestion()->ascii_report();
      if (congestion_heatmap_) {
        std::cout << profiler_->congestion()->heatmap();
      }
    }
    if (load_heatmap_ && profiler_->load_map() != nullptr) {
      std::cout << profiler_->load_map()->heatmap();
    }
  }
  cli_->warn_unknown();
}

}  // namespace scm::util
