#include "perfbench/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  const double n = static_cast<double>(sorted.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = median(samples);
  if (s.n > 10) {
    // Nearest rank k leaves n - k samples beyond it; the largest k with
    // n - k >= 10 is n - 10, i.e. percentile 100 (n - 10) / n.
    s.tail_pct = 100.0 * static_cast<double>(s.n - 10) /
                 static_cast<double>(s.n);
    s.tail = samples[s.n - 11];
  }
  return s;
}

double supported_quantile(std::vector<double> samples, double q,
                          double* used_pct) {
  *used_pct = 0;
  if (samples.empty()) return 0.0;
  const Summary s = summarize(samples);
  std::sort(samples.begin(), samples.end());
  if (s.tail_pct > 0 && 100.0 * q <= s.tail_pct) {
    *used_pct = 100.0 * q;
    return quantile(samples, q);
  }
  *used_pct = s.tail_pct;
  return s.tail_pct > 0 ? s.tail : samples.back();
}

void Ledger::ok(double latency_ms) {
  ++attempted_;
  latencies_ms_.push_back(latency_ms);
}

void Ledger::failed() {
  ++attempted_;
  ++failed_;
}

void Ledger::refused() {
  ++attempted_;
  ++refused_;
}

double Ledger::failed_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failures()) /
                               static_cast<double>(attempted_);
}

std::uint64_t Ledger::missed(double limit_ms) const {
  std::uint64_t slow = 0;
  for (const double ms : latencies_ms_) slow += ms > limit_ms ? 1 : 0;
  return failures() + slow;
}

void Ledger::merge(const Ledger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  refused_ += other.refused_;
  latencies_ms_.insert(latencies_ms_.end(), other.latencies_ms_.begin(),
                       other.latencies_ms_.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace perfbench
