// The repository benchmark program. Runs one workload for a fixed time and
// prints its metrics; see perfbench/run.py for how it is built and invoked
// and BENCHMARK.json for the metric list.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE --scratch DIR [--trace-out FILE]
//   perfbench --emit-reference FILE --scratch DIR
//
// Untraced runs (--trace 0) print the end-to-end metrics. Traced runs
// alternate untraced and traced passes, record a span around every layer
// call of the traced ones and print the per-layer metrics, including the
// tracing overhead against the untraced passes of the same run. The last
// line of stdout is one JSON object; exit status 1 means an output check
// failed, 2 a bad argument or set-up error.
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench.hpp"

namespace pb = perfbench;

namespace {

constexpr std::size_t kSetups = 5;
constexpr int kMinPasses = 3;
constexpr int kMinTracedRunPasses = 4;
/// Operations slower than this, or failed, miss the latency limit.
constexpr double kRequestLimitMs = 250.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string reference;
  std::string scratch;
  std::string trace_out;
  std::string emit_reference;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload suite_cold|policy_sweep|"
               "serve_mixed --seed N --seconds S --trace 0|1 --reference FILE "
               "--scratch DIR [--trace-out FILE]\n"
               "       perfbench --emit-reference FILE --scratch DIR\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v,
                         std::uint64_t max) {
  if (v.empty() || v.size() > 19 ||
      v.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " wants a non-negative integer, got '" + v + "'");
  }
  const std::uint64_t n = std::stoull(v);
  if (n > max) usage(flag + " is out of range");
  return n;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, v, std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_uint(flag, v, 120));
    } else if (flag == "--trace") {
      a.trace = parse_uint(flag, v, 1) == 1;
    } else if (flag == "--reference") {
      a.reference = v;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--emit-reference") {
      a.emit_reference = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.scratch.empty()) usage("--scratch is required");
  if (a.emit_reference.empty() &&
      (a.workload.empty() || a.reference.empty() || a.seconds < 1)) {
    usage("--workload, --reference and --seconds >= 1 are required");
  }
  return a;
}

std::unique_ptr<pb::Workload> make_workload(const std::string& name) {
  if (name == "suite_cold") return pb::make_suite_cold();
  if (name == "policy_sweep") return pb::make_policy_sweep();
  if (name == "serve_mixed") return pb::make_serve_mixed();
  usage("unknown workload '" + name + "'");
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << items_[i].name
         << "\": {\"value\": " << items_[i].value << ", \"unit\": \""
         << items_[i].unit << "\"}";
    }
    return os.str() + "}";
  }
  void print_text(std::ostream& os) const {
    for (const Item& it : items_) {
      os << "  " << it.name << " = " << it.value << " " << it.unit << "\n";
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Everything the passes of one run measured.
struct RunData {
  std::vector<double> setup_s;
  pb::Ledger setup_checks;
  std::vector<double> pass_s;           ///< untraced passes
  std::vector<double> traced_pass_s;    ///< traced passes
  std::vector<double> minstr_per_s;     ///< untraced passes
  std::vector<double> ops_per_s;        ///< untraced passes
  pb::Ledger ops;                       ///< untraced passes
  /// Fastest time of each named operation over the untraced passes.
  std::map<std::string, double> best_ms;
  pb::Ledger traced_ops;                ///< traced passes
  std::vector<double> exec_ms, queue_ms;
  std::map<std::string, std::vector<double>> layers;  ///< traced passes
  pb::PassOut last;                     ///< modelled results of a pass
};

/// Per-layer values of one traced pass rooted at span `root`.
std::map<std::string, double> layer_values(const pb::Context& ctx, int root,
                                           const pb::PassOut& out) {
  const std::vector<pb::Span>& spans = ctx.tracer.spans();
  std::map<std::string, double> self = pb::self_seconds(spans, root);
  const auto get = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> v = out.layers;
  v["workloads.prepare_s"] = get("workloads.prepare");
  v["workloads.validate_s"] = get("workloads.validate");
  v["sim.capture.self_s"] = get("sim.capture");
  v["sim.capture.calls"] = static_cast<double>(out.captures);
  v["sim.capture.ns_per_warp_instr"] =
      out.captured_warp_instructions
          ? get("sim.capture") * 1e9 /
                static_cast<double>(out.captured_warp_instructions)
          : 0.0;
  v["tracecache.disk_hit_s"] = get("tracecache.disk_hit");
  v["tracecache.memo_hit_s"] = get("tracecache.memo_hit");
  v["tracecache.miss_s"] = get("tracecache.miss");
  v["sim.replay.self_s"] = get("sim.replay");
  v["sim.replay.calls"] = static_cast<double>(out.replays);
  v["sim.replay.ns_per_warp_instr"] =
      out.replayed_warp_instructions
          ? get("sim.replay") * 1e9 /
                static_cast<double>(out.replayed_warp_instructions)
          : 0.0;
  const double base_replay =
      pb::tagged_self_seconds(spans, root, "sim.replay", pb::kBase);
  for (int p = pb::kCrf; p < pb::kNumPoints; ++p) {
    const std::string name = pb::point_name(p);
    const double replay =
        pb::tagged_self_seconds(spans, root, "sim.replay", p);
    v["spec.overhead_s." + name] =
        base_replay > 0 && replay > 0 ? replay - base_replay : 0.0;
    v["spec.mispredict_pct." + name] = pb::mispredict_pct(out.model, p);
  }
  v["power.energy_s"] = get("power.energy");
  v["sim.report.to_json_s"] = get("sim.report.to_json");
  v["serve.inflight_s"] = get("serve.request");
  v["serve.lifecycle_s"] = get("serve.lifecycle");
  v["bench.other_s"] = get("bench.other");
  return v;
}

/// Names and units of the per-layer metrics, in print order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"workloads.prepare_s", "s"},
      {"workloads.validate_s", "s"},
      {"sim.capture.self_s", "s"},
      {"sim.capture.calls", "count"},
      {"sim.capture.ns_per_warp_instr", "ns"},
      {"tracecache.disk_hit_s", "s"},
      {"tracecache.memo_hit_s", "s"},
      {"tracecache.miss_s", "s"},
      {"tracecache.disk_hits", "count"},
      {"tracecache.memo_hits", "count"},
      {"tracecache.misses", "count"},
      {"tracecache.disk_rejects", "count"},
      {"tracecache.hit_ratio", "ratio"},
      {"tracecache.memo_bytes", "bytes"},
      {"sim.replay.self_s", "s"},
      {"sim.replay.calls", "count"},
      {"sim.replay.ns_per_warp_instr", "ns"},
      {"spec.overhead_s.crf", "s"},
      {"spec.overhead_s.mru", "s"},
      {"spec.overhead_s.tage", "s"},
      {"spec.overhead_s.static", "s"},
      {"spec.mispredict_pct.crf", "%"},
      {"spec.mispredict_pct.mru", "%"},
      {"spec.mispredict_pct.tage", "%"},
      {"spec.mispredict_pct.static", "%"},
      {"power.energy_s", "s"},
      {"sim.report.to_json_s", "s"},
      {"serve.exec_ms.p50", "ms"},
      {"serve.exec_ms.p99", "ms"},
      {"serve.queue_ms.p50", "ms"},
      {"serve.queue_ms.p99", "ms"},
      {"serve.busy_rejects", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.inflight_s", "s"},
      {"serve.lifecycle_s", "s"},
      {"bench.other_s", "s"},
      {"bench.trace_overhead_pct", "%"},
  };
  return m;
}

RunData run(pb::Context& ctx, pb::Workload& wl, const Args& a) {
  RunData d;
  const auto setup = [&] {
    const std::int64_t t0 = pb::now_ns();
    wl.setup(ctx, d.setup_checks);
    d.setup_s.push_back(static_cast<double>(pb::now_ns() - t0) * 1e-9);
  };
  st2::Xoshiro256 rng(a.seed);
  const int min_passes = a.trace ? kMinTracedRunPasses : kMinPasses;
  const std::int64_t start = pb::now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(a.seconds) * 1000000000;
  setup();
  for (std::uint64_t id = 0;
       id < static_cast<std::uint64_t>(min_passes) ||
       pb::now_ns() - start < budget;
       ++id) {
    // The repeated set-ups are spread over the run, so that one burst of
    // load from elsewhere on the host cannot cover all of them.
    if (d.setup_s.size() < kSetups &&
        pb::now_ns() - start >=
            budget / static_cast<std::int64_t>(kSetups) *
                static_cast<std::int64_t>(d.setup_s.size())) {
      setup();
    }
    const bool traced = a.trace && id % 2 == 1;
    ctx.tracer.enabled = traced;
    const int root = ctx.tracer.open("pass", id);
    const std::int64_t t0 = pb::now_ns();
    pb::PassOut out = wl.pass(ctx, id, rng);
    const double secs = static_cast<double>(pb::now_ns() - t0) * 1e-9;
    ctx.tracer.close(root);
    ctx.tracer.enabled = false;
    d.exec_ms.insert(d.exec_ms.end(), out.exec_ms.begin(), out.exec_ms.end());
    d.queue_ms.insert(d.queue_ms.end(), out.queue_ms.begin(),
                      out.queue_ms.end());
    if (traced) {
      d.traced_pass_s.push_back(secs);
      d.traced_ops.merge(out.ops);
      for (const auto& [name, value] : layer_values(ctx, root, out)) {
        d.layers[name].push_back(value);
      }
    } else {
      d.pass_s.push_back(secs);
      d.minstr_per_s.push_back(
          static_cast<double>(out.thread_instructions) / secs * 1e-6);
      d.ops_per_s.push_back(static_cast<double>(out.ops.attempted()) / secs);
      d.ops.merge(out.ops);
      for (const auto& [op, ms] : out.op_ms) {
        const auto [it, added] = d.best_ms.emplace(op, ms);
        if (!added && ms < it->second) it->second = ms;
      }
    }
    d.last = std::move(out);
  }
  while (d.setup_s.size() < kSetups) setup();
  return d;
}

Metrics end_to_end(const RunData& d, std::ostream& text) {
  // Operations that run one after another are timed at their best over the
  // run: load from elsewhere on a shared host slows it by 10-50 % for
  // seconds to minutes at a time, and an operation's fastest time over the
  // passes is far steadier from run to run than any pass's time. A pass
  // then takes the sum of its operations' best times. Overlapping serve
  // requests cannot be summed; they keep the median pass and every latency.
  std::vector<double> latencies = d.ops.latencies_ms();
  double pass_s = pb::median(d.pass_s);
  double minstr_per_s = pb::median(d.minstr_per_s);
  double ops_per_s = pb::median(d.ops_per_s);
  if (!d.best_ms.empty()) {
    latencies.clear();
    double best_pass_ms = 0;
    for (const auto& [op, ms] : d.best_ms) {
      latencies.push_back(ms);
      best_pass_ms += ms;
    }
    pass_s = best_pass_ms * 1e-3;
    minstr_per_s =
        static_cast<double>(d.last.thread_instructions) / pass_s * 1e-6;
    ops_per_s = static_cast<double>(d.best_ms.size()) / pass_s;
  }
  const pb::Summary lat = pb::summarize(latencies);
  double p99_pct = 0;
  const double p99 = pb::supported_quantile(latencies, 0.99, &p99_pct);
  text << "pass_s samples:";
  for (const double x : d.pass_s) text << ' ' << x;
  text << "\nsetup_s samples:";
  for (const double x : d.setup_s) text << ' ' << x;
  text << "\npasses=" << d.pass_s.size() << " setups=" << d.setup_s.size()
       << " ops=" << d.ops.attempted() << " failed_ratio="
       << d.ops.failed_ratio() << " refused=" << d.ops.refusals()
       << "\nlatency" << (d.best_ms.empty() ? "" : " (best per operation)")
       << ": n=" << lat.n
       << " p50=" << lat.p50 << " ms, highest supported percentile p"
       << lat.tail_pct << "=" << lat.tail << " ms; req_p99_ms reports p"
       << p99_pct << "; slower than " << kRequestLimitMs
       << " ms or failed: " << d.ops.missed(kRequestLimitMs)
       << "\n";
  Metrics m;
  m.add("pass_s", pass_s, "s");
  m.add("sim_minstr_per_s", minstr_per_s, "Minstr/s");
  m.add("setup_s", pb::median(d.setup_s), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("ok_ratio", 1.0 - d.ops.failed_ratio(), "ratio");
  m.add("req_p50_ms", lat.p50, "ms");
  m.add("req_p99_ms", p99, "ms");
  m.add("req_per_s", ops_per_s, "1/s");
  m.add("sim_cycles", static_cast<double>(d.last.sim_cycles), "cycles");
  m.add("adder_mispredict_pct", pb::mispredict_pct(d.last.model, pb::kCrf),
        "%");
  m.add("chip_energy_save_pct", pb::chip_energy_save_pct(d.last.model), "%");
  m.add("st2_slowdown_pct", pb::st2_slowdown_pct(d.last.model), "%");
  return m;
}

Metrics per_layer(const RunData& d, std::ostream& text) {
  Metrics m;
  const auto mean_of = [&d](const std::string& name) {
    const auto it = d.layers.find(name);
    return it == d.layers.end() ? 0.0 : pb::mean(it->second);
  };
  double used = 0;
  std::map<std::string, double> v;
  const pb::Summary exec = pb::summarize(d.exec_ms);
  const pb::Summary queue = pb::summarize(d.queue_ms);
  v["serve.exec_ms.p50"] = exec.p50;
  v["serve.exec_ms.p99"] = pb::supported_quantile(d.exec_ms, 0.99, &used);
  v["serve.queue_ms.p50"] = queue.p50;
  v["serve.queue_ms.p99"] = pb::supported_quantile(d.queue_ms, 0.99, &used);
  v["bench.trace_overhead_pct"] =
      100.0 * (pb::median(d.traced_pass_s) / pb::median(d.pass_s) - 1.0);
  for (const auto& [name, unit] : layer_metrics()) {
    m.add(name, v.count(name) ? v[name] : mean_of(name), unit);
  }
  // The spans that partition a pass: per-layer means are additive, so
  // these sum to the mean traced pass time.
  double accounted = 0;
  for (const char* name :
       {"workloads.prepare_s", "workloads.validate_s", "sim.capture.self_s",
        "tracecache.disk_hit_s", "tracecache.memo_hit_s", "tracecache.miss_s",
        "sim.replay.self_s", "power.energy_s", "sim.report.to_json_s",
        "serve.inflight_s", "serve.lifecycle_s", "bench.other_s"}) {
    accounted += mean_of(name);
  }
  text << "untraced pass_s samples:";
  for (const double x : d.pass_s) text << ' ' << x;
  text << "\ntraced pass_s samples:";
  for (const double x : d.traced_pass_s) text << ' ' << x;
  text << "\ntraced passes=" << d.traced_pass_s.size()
       << " untraced passes=" << d.pass_s.size()
       << "; layer self times + bench.other_s = " << accounted
       << " s, mean traced pass = " << pb::mean(d.traced_pass_s) << " s\n";
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << m.json() << "}" << std::endl;
}

int emit_reference(pb::Context& ctx, const Args& a) {
  ctx.checker.emitting = true;
  pb::Ledger checks;
  for (const char* name : {"suite_cold", "policy_sweep", "serve_mixed"}) {
    std::unique_ptr<pb::Workload> wl = make_workload(name);
    wl->setup(ctx, checks);
    st2::Xoshiro256 rng(a.seed);
    const pb::PassOut out = wl->pass(ctx, 0, rng);
    checks.merge(out.ops);
  }
  if (checks.failures() != 0) {
    std::cerr << "perfbench: " << checks.failures()
              << " operations failed; no reference written\n";
    return 1;
  }
  ctx.checker.write(a.emit_reference);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const Args a = parse_args(argc, argv);
  pb::Context ctx;
  ctx.scratch = a.scratch;
  try {
    if (!a.emit_reference.empty()) return emit_reference(ctx, a);
    std::unique_ptr<pb::Workload> wl = make_workload(a.workload);
    ctx.checker.load(a.reference);
    const RunData d = run(ctx, *wl, a);
    std::cout << "workload=" << a.workload << " seed=" << a.seed
              << (a.trace ? " traced" : "") << "\n";
    const Metrics m =
        a.trace ? per_layer(d, std::cout) : end_to_end(d, std::cout);
    m.print_text(std::cout);
    if (!a.trace_out.empty()) {
      std::ofstream(a.trace_out) << ctx.tracer.to_jsonl();
    }
    const std::uint64_t failed = d.ops.failures() +
                                 d.traced_ops.failures() +
                                 d.setup_checks.failures();
    const std::uint64_t attempted = d.ops.attempted() +
                                    d.traced_ops.attempted() +
                                    d.setup_checks.attempted();
    const bool correct = failed == 0;
    if (!correct) {
      std::cerr << "perfbench: " << failed
                << " failed operations or output mismatches\n";
    }
    print_result(correct, attempted, failed, m);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
