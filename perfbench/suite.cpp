// suite_cold and policy_sweep: the 23-kernel suite at scale 0.5, driven
// through the simulator's library calls the way `st2sim run` and the sweep
// benches drive them, with a span around each layer call.
#include <filesystem>
#include <string>
#include <utility>

#include "perfbench/bench.hpp"
#include "src/sim/engine.hpp"
#include "src/tracecache/tracecache.hpp"
#include "src/workloads/workload.hpp"

namespace perfbench {

namespace {

namespace sim = st2::sim;
namespace workloads = st2::workloads;

constexpr double kScale = 0.5;

/// Runs every launch of `kernel` under machine point `point` with captures
/// from `provide(cfg, case, launch)`, then prices, reports, checks and
/// validates them. Fills `ps` and, when non-null, the pass counters.
/// Returns false when any output check failed.
template <typename Provide>
bool run_kernel(Context& ctx, std::uint64_t id, const std::string& kernel,
                int point, int jobs, bool fresh_capture, Provide&& provide,
                PointStats& ps, PassOut* out) {
  workloads::PreparedCase pc = [&] {
    Scope s(ctx.tracer, "workloads.prepare", id);
    return workloads::prepare_case(kernel, kScale);
  }();
  const sim::GpuConfig cfg = point_config(point);
  sim::EngineOptions eo;
  eo.jobs = jobs;
  sim::ExecutionEngine eng(cfg, eo);
  ps = PointStats{};
  ps.present = true;
  bool ok = true;
  for (std::size_t li = 0; li < pc.launches.size(); ++li) {
    const sim::GridCapture cap = provide(cfg, pc, li);
    const sim::RunReport r = [&] {
      Scope s(ctx.tracer, "sim.replay", id, point);
      return eng.replay(pc.kernel, cap);
    }();
    const double chip = [&] {
      Scope s(ctx.tracer, "power.energy", id);
      return ctx.pm.energy(r.chip, cfg.st2_enabled).chip();
    }();
    const std::string json = [&] {
      Scope s(ctx.tracer, "sim.report.to_json", id);
      return r.to_json(kernel, static_cast<int>(li));
    }();
    const std::string key = std::string("s0.5/") + point_name(point) + "/" +
                            kernel + "/" + std::to_string(li);
    ok = ctx.checker.check(key, counters_digest(r)) && !r.aborted() &&
         !json.empty() && ok;
    ps.c += r.chip;
    ps.chip_energy += chip;
    if (out != nullptr) {
      out->thread_instructions += r.chip.thread_instructions;
      out->sim_cycles += r.wall_cycles();
      out->replays += 1;
      out->replayed_warp_instructions += r.chip.warp_instructions;
      if (fresh_capture) {
        out->captures += 1;
        out->captured_warp_instructions += r.chip.warp_instructions;
      }
    }
  }
  const bool valid = [&] {
    Scope s(ctx.tracer, "workloads.validate", id);
    return pc.validate(*pc.mem);
  }();
  return ok && valid;
}

/// Capture source that runs the functional pass every time.
auto capture_source(Context& ctx, std::uint64_t id) {
  return [&ctx, id](const sim::GpuConfig& cfg, workloads::PreparedCase& pc,
                    std::size_t li) {
    Scope s(ctx.tracer, "sim.capture", id);
    return sim::capture_grid(cfg, pc.kernel, pc.launches[li], *pc.mem);
  };
}

void record(PassOut& out, std::string op, bool ok, std::int64_t t0) {
  if (!ok) {
    out.ops.failed();
    return;
  }
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  out.ops.ok(ms);
  out.op_ms.emplace_back(std::move(op), ms);
}

/// The paper's headline run: every kernel under ST2 with the CRF, captured
/// fresh, one engine worker, no trace cache. Set-up runs the baseline suite
/// the energy saving and slowdown are measured against.
class SuiteCold final : public Workload {
 public:
  void setup(Context& ctx, Ledger& checks) override {
    base_.clear();
    for (const auto& info : workloads::case_list()) {
      PointStats& ps = base_[info.name][kBase];
      const bool ok = run_kernel(ctx, 0, info.name, kBase, 1, true,
                                 capture_source(ctx, 0), ps, nullptr);
      ok ? checks.ok(0) : checks.failed();
    }
  }

  PassOut pass(Context& ctx, std::uint64_t id, st2::Xoshiro256& rng) override {
    PassOut out;
    out.model = base_;
    for (const std::string& k : shuffled_kernels(rng)) {
      const std::int64_t t0 = now_ns();
      const bool ok = run_kernel(ctx, id, k, kCrf, 1, true,
                                 capture_source(ctx, id), out.model[k][kCrf],
                                 &out);
      record(out, k, ok, t0);
    }
    return out;
  }

 private:
  ModelTable base_;
};

/// The design-space-exploration use: every launch replayed under five
/// machine points from a trace cache whose disk tier set-up filled, as one
/// sweep shard process does. Capture never runs.
class PolicySweep final : public Workload {
 public:
  void setup(Context& ctx, Ledger& checks) override {
    dir_ = ctx.scratch + "/tracecache";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    st2::tracecache::CacheOptions opts;
    opts.dir = dir_;
    opts.memo = false;
    st2::tracecache::TraceCache cache(opts);
    std::uint64_t launches = 0;
    for (const auto& info : workloads::case_list()) {
      workloads::PreparedCase pc = workloads::prepare_case(info.name, kScale);
      for (const sim::LaunchConfig& lc : pc.launches) {
        cache.provide(point_config(kCrf), pc.kernel, lc, *pc.mem);
        ++launches;
      }
      pc.validate(*pc.mem) ? checks.ok(0) : checks.failed();
    }
    const st2::tracecache::CacheStats st = cache.stats();
    const bool filled = st.misses == launches && st.disk_stores == launches &&
                        st.disk_rejects == 0;
    filled ? checks.ok(0) : checks.failed();
  }

  PassOut pass(Context& ctx, std::uint64_t id, st2::Xoshiro256& rng) override {
    PassOut out;
    st2::tracecache::CacheOptions opts;
    opts.dir = dir_;
    st2::tracecache::TraceCache cache(opts);
    const auto provide = [&](const sim::GpuConfig& cfg,
                             workloads::PreparedCase& pc, std::size_t li) {
      Scope s(ctx.tracer, "tracecache.provide", id);
      if (!ctx.tracer.enabled) {
        return cache.provide(cfg, pc.kernel, pc.launches[li], *pc.mem);
      }
      const st2::tracecache::CacheStats before = cache.stats();
      sim::GridCapture cap =
          cache.provide(cfg, pc.kernel, pc.launches[li], *pc.mem);
      const st2::tracecache::CacheStats after = cache.stats();
      s.rename(after.disk_hits > before.disk_hits   ? "tracecache.disk_hit"
               : after.memo_hits > before.memo_hits ? "tracecache.memo_hit"
                                                    : "tracecache.miss");
      return cap;
    };
    for (const std::string& k : shuffled_kernels(rng)) {
      for (int p = 0; p < kNumPoints; ++p) {
        const std::int64_t t0 = now_ns();
        const bool ok = run_kernel(ctx, id, k, p, kReplayWorkers, false,
                                   provide, out.model[k][p], &out);
        record(out, k + "/" + point_name(p), ok, t0);
      }
    }
    const st2::tracecache::CacheStats st = cache.stats();
    out.layers["tracecache.disk_hits"] = static_cast<double>(st.disk_hits);
    out.layers["tracecache.memo_hits"] = static_cast<double>(st.memo_hits);
    out.layers["tracecache.misses"] = static_cast<double>(st.misses);
    out.layers["tracecache.disk_rejects"] =
        static_cast<double>(st.disk_rejects);
    out.layers["tracecache.memo_bytes"] = static_cast<double>(st.memo_bytes);
    const double calls = static_cast<double>(st.hits() + st.misses);
    out.layers["tracecache.hit_ratio"] =
        calls > 0 ? static_cast<double>(st.hits()) / calls : 0.0;
    return out;
  }

 private:
  static constexpr int kReplayWorkers = 2;
  std::string dir_;
};

}  // namespace

std::unique_ptr<Workload> make_suite_cold() {
  return std::make_unique<SuiteCold>();
}

std::unique_ptr<Workload> make_policy_sweep() {
  return std::make_unique<PolicySweep>();
}

}  // namespace perfbench
