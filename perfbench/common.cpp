#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench/bench.hpp"
#include "src/snapshot/crc32.hpp"
#include "src/spec/policy.hpp"
#include "src/workloads/workload.hpp"

namespace perfbench {

const char* point_name(int p) {
  static const char* const kNames[kNumPoints] = {"base", "crf", "mru", "tage",
                                                 "static"};
  return kNames[p];
}

st2::sim::GpuConfig point_config(int p) {
  if (p == kBase) return st2::sim::GpuConfig::baseline();
  st2::sim::GpuConfig cfg = st2::sim::GpuConfig::st2();
  cfg.predictor = st2::spec::PredictorConfig::parse(point_name(p));
  return cfg;
}

std::uint64_t counters_digest(const st2::sim::RunReport& r) {
  std::ostringstream os;
  os << r.status << ' ' << r.num_sms;
  const auto dump = [&os](const st2::sim::EventCounters& c) {
    st2::sim::for_each_counter(c, [&os](const char* name, std::uint64_t v) {
      os << ' ' << name << '=' << v;
    });
  };
  dump(r.chip);
  for (const st2::sim::SmReport& s : r.per_sm) {
    os << " sm" << s.sm << (s.aborted ? "!" : "");
    dump(s.counters);
  }
  return st2::snapshot::fnv1a64(os.str());
}

void Checker::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    std::string hex;
    if (!(ls >> key >> hex) || hex.size() != 16) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    ref_[key] = std::stoull(hex, nullptr, 16);
  }
  if (ref_.empty()) throw std::runtime_error("empty reference file " + path);
}

bool Checker::check(const std::string& key, std::uint64_t digest) {
  if (emitting) {
    seen_[key] = digest;
    return true;
  }
  const auto it = ref_.find(key);
  return it != ref_.end() && it->second == digest;
}

void Checker::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# Output digests at the commit that defined the benchmark: FNV-1a\n"
         "# of every simulated counter per launch (s0.5/<point>/<kernel>/"
         "<launch>)\n# and of every serve response body (serve/s0.25/<point>/"
         "<kernel>).\n";
  for (const auto& [key, digest] : seen_) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    out << key << ' ' << hex << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

double mispredict_pct(const ModelTable& t, int point) {
  double sum = 0;
  int n = 0;
  for (const auto& [kernel, points] : t) {
    const PointStats& s = points[static_cast<std::size_t>(point)];
    if (!s.present) continue;
    sum += s.c.adder_misprediction_rate();
    ++n;
  }
  return n ? 100.0 * sum / n : 0.0;
}

namespace {

/// Mean over kernels holding both baseline and CRF stats of f(base, crf).
template <typename F>
double mean_vs_base(const ModelTable& t, F f) {
  double sum = 0;
  int n = 0;
  for (const auto& [kernel, points] : t) {
    const PointStats& b = points[kBase];
    const PointStats& s = points[kCrf];
    if (!b.present || !s.present) continue;
    sum += f(b, s);
    ++n;
  }
  return n ? 100.0 * sum / n : 0.0;
}

}  // namespace

double chip_energy_save_pct(const ModelTable& t) {
  return mean_vs_base(t, [](const PointStats& b, const PointStats& s) {
    return 1.0 - s.chip_energy / b.chip_energy;
  });
}

double st2_slowdown_pct(const ModelTable& t) {
  return mean_vs_base(t, [](const PointStats& b, const PointStats& s) {
    return static_cast<double>(s.c.cycles) / static_cast<double>(b.c.cycles) -
           1.0;
  });
}

std::vector<std::string> shuffled_kernels(st2::Xoshiro256& rng) {
  std::vector<std::string> names;
  for (const auto& info : st2::workloads::case_list()) {
    names.push_back(info.name);
  }
  shuffle(names, rng);
  return names;
}

}  // namespace perfbench
