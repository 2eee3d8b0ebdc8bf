// Sample summaries and failure accounting for the benchmark program.
//
// Percentiles use the nearest-rank definition on the sorted samples. A tail
// percentile is only trusted when at least ten samples lie beyond it, so
// `summarize` reports the highest such percentile together with the sample
// count instead of a fixed p99 the sample cannot support.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile, q in [0, 1], of ascending `sorted` (non-empty).
double quantile(const std::vector<double>& sorted, double q);

struct Summary {
  std::size_t n = 0;     ///< sample count
  double p50 = 0;        ///< median
  /// Highest percentile with >= 10 samples beyond it, and its value; both
  /// 0 when fewer than 11 samples leave no such percentile.
  double tail_pct = 0;
  double tail = 0;
};

Summary summarize(std::vector<double> samples);

/// The q-quantile when the sample supports it (>= 10 samples beyond it),
/// otherwise the summary's tail. `used_pct` receives the percentile the
/// returned value belongs to; it is 0 when the sample has no supported
/// tail, in which case the maximum (0 for no samples) is returned.
double supported_quantile(std::vector<double> samples, double q,
                          double* used_pct);

/// Attempted operations, their outcomes and the latencies of the ones that
/// succeeded. A failed or refused operation has no latency: it counts as
/// missing every latency limit.
class Ledger {
 public:
  void ok(double latency_ms);
  void failed();   ///< wrong output, error envelope, validation failure
  void refused();  ///< admission control turned it away (busy)

  std::uint64_t attempted() const { return attempted_; }
  /// Failed plus refused operations.
  std::uint64_t failures() const { return failed_ + refused_; }
  std::uint64_t refusals() const { return refused_; }
  double failed_ratio() const;
  /// Operations that missed `limit_ms`: every failure plus every success
  /// slower than the limit.
  std::uint64_t missed(double limit_ms) const;
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }

  void merge(const Ledger& other);

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t refused_ = 0;
  std::vector<double> latencies_ms_;
};

/// Median, the mean of the two middle samples for an even count; 0 for no
/// samples.
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

}  // namespace perfbench
