// Shared pieces of the benchmark program: the run context, output checking
// against stored reference digests, the modelled-design tables and the
// interface each workload implements.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/stats.hpp"
#include "perfbench/trace.hpp"
#include "src/common/rng.hpp"
#include "src/power/model.hpp"
#include "src/sim/config.hpp"
#include "src/sim/counters.hpp"
#include "src/sim/report.hpp"

namespace perfbench {

/// Machine points, in the order policy_sweep runs them.
enum Point : int { kBase = 0, kCrf, kMru, kTage, kStatic, kNumPoints };
const char* point_name(int p);
/// Baseline, or ST2 with the point's carry predictor.
st2::sim::GpuConfig point_config(int p);

/// Digest of every simulated counter of a run: chip and per-SM counters by
/// name, per-SM ids and abort flags, and the run status. Independent of the
/// replay worker count.
std::uint64_t counters_digest(const st2::sim::RunReport& r);

/// Compares output digests with the reference table stored beside the
/// program. In emit mode it records the digests instead, to write a new
/// table when the modelled design changes on purpose.
class Checker {
 public:
  /// Loads "key hexdigest" lines; throws std::runtime_error when the file
  /// is missing or malformed.
  void load(const std::string& path);
  bool emitting = false;
  /// True when `digest` equals the stored reference for `key`.
  bool check(const std::string& key, std::uint64_t digest);
  void write(const std::string& path) const;

 private:
  std::map<std::string, std::uint64_t> ref_;
  std::map<std::string, std::uint64_t> seen_;
};

/// One kernel under one machine point: counters summed over its launches
/// (cycles sum the launches' wall cycles) and its chip energy.
struct PointStats {
  bool present = false;
  st2::sim::EventCounters c;
  double chip_energy = 0;
};
using ModelTable = std::map<std::string, std::array<PointStats, kNumPoints>>;

/// Mean over kernels of the point's thread-level adder misprediction rate,
/// in percent; 0 when no kernel ran the point.
double mispredict_pct(const ModelTable& t, int point);
/// Mean over kernels of 1 - chip energy (CRF) / chip energy (baseline).
double chip_energy_save_pct(const ModelTable& t);
/// Mean over kernels of cycles (CRF) / cycles (baseline) - 1.
double st2_slowdown_pct(const ModelTable& t);

struct Context {
  Tracer tracer;
  Checker checker;
  std::string scratch;  ///< per-run directory for the disk tier and socket
  st2::power::PowerModel pm;
};

struct PassOut {
  std::uint64_t thread_instructions = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t captures = 0;  ///< capture_grid calls made by the pass
  std::uint64_t replays = 0;
  std::uint64_t captured_warp_instructions = 0;
  std::uint64_t replayed_warp_instructions = 0;
  Ledger ops;
  /// Latency of each successful operation by name, in ms, for workloads
  /// whose operations run one after another and repeat every pass; empty
  /// for serve_mixed, whose requests overlap.
  std::vector<std::pair<std::string, double>> op_ms;
  ModelTable model;
  /// Per-layer counts and ratios for this pass, by metric name. Layer
  /// times come from the spans instead.
  std::map<std::string, double> layers;
  std::vector<double> exec_ms;   ///< serve: server-side elapsed per request
  std::vector<double> queue_ms;  ///< serve: client latency minus elapsed
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up; the run repeats it and reports the median time.
  /// Failed set-up checks are recorded in `checks`.
  virtual void setup(Context& ctx, Ledger& checks) = 0;
  /// One measured pass. It draws its kernel order or request stream from
  /// `rng`, the run's seeded stream.
  virtual PassOut pass(Context& ctx, std::uint64_t pass_id,
                       st2::Xoshiro256& rng) = 0;
};

std::unique_ptr<Workload> make_suite_cold();
std::unique_ptr<Workload> make_policy_sweep();
std::unique_ptr<Workload> make_serve_mixed();

/// The 23 kernel names in a seeded order (Fisher-Yates over case_list()).
std::vector<std::string> shuffled_kernels(st2::Xoshiro256& rng);

template <typename T>
void shuffle(std::vector<T>& v, st2::Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

}  // namespace perfbench
