// Sample statistics for the benchmark's timings.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count).
/// Precondition: non-empty.
[[nodiscard]] inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Samples that must lie strictly beyond a reported tail value.
inline constexpr std::size_t kTailBeyond = 10;

/// The tail timing: the highest percentile that still has at least
/// kTailBeyond samples beyond it, i.e. the (kTailBeyond + 1)-th largest
/// sample, reported as that value and its percentile rank. With fewer than
/// kTailBeyond + 1 samples no percentile qualifies.
struct Tail {
  double value{0.0};
  double percentile{0.0};  ///< share of samples at or below `value`, in %
  std::size_t samples{0};
};

[[nodiscard]] inline std::optional<Tail> tail(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < kTailBeyond + 1) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = n - kTailBeyond;  // 1-based rank of the value
  return Tail{samples[rank - 1],
              100.0 * static_cast<double>(rank) / static_cast<double>(n), n};
}

}  // namespace perfbench
