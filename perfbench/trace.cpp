#include "perfbench/trace.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, std::uint64_t id, int tag) {
  if (!enabled) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.id = id;
  s.tag = tag;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int idx, const char* rename) {
  if (idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = now_ns();
  if (rename != nullptr) s.name = rename;
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, std::uint64_t id) {
  if (!enabled) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.id = id;
  spans_.push_back(std::move(s));
}

std::string Tracer::to_jsonl() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"span\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"id\": " << s.id
       << ", \"tag\": " << s.tag << "}\n";
  }
  return os.str();
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

double union_seconds(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::int64_t total = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool open = false;
  for (const Interval& iv : v) {
    if (open && iv.first <= hi) {
      hi = std::max(hi, iv.second);
      continue;
    }
    if (open) total += hi - lo;
    lo = iv.first;
    hi = iv.second;
    open = true;
  }
  if (open) total += hi - lo;
  return static_cast<double>(total) * 1e-9;
}

/// in_root[i]: span i is `root` or one of its descendants. A span's parent
/// is always recorded before it, so one forward sweep suffices.
std::vector<char> descendants(const std::vector<Span>& spans, int root) {
  std::vector<char> in(spans.size(), 0);
  for (std::size_t i = static_cast<std::size_t>(root); i < spans.size(); ++i) {
    const int p = spans[i].parent;
    in[i] = static_cast<int>(i) == root ||
            (p >= root && in[static_cast<std::size_t>(p)]);
  }
  return in;
}

/// Self time of the spans below `root` that `pick` selects.
double self_of(const std::vector<Span>& spans, const std::vector<char>& in,
               int root, const std::function<bool(const Span&)>& pick) {
  std::vector<Interval> own;
  std::vector<Interval> kids;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!in[i] || static_cast<int>(i) == root) continue;
    const Span& s = spans[i];
    if (pick(s)) own.emplace_back(s.start_ns, s.end_ns);
    if (s.parent != root && pick(spans[static_cast<std::size_t>(s.parent)])) {
      kids.emplace_back(s.start_ns, s.end_ns);
    }
  }
  return union_seconds(own) - union_seconds(kids);
}

}  // namespace

std::map<std::string, double> self_seconds(const std::vector<Span>& spans,
                                           int root) {
  std::map<std::string, double> out;
  if (root < 0) return out;
  const std::vector<char> in = descendants(spans, root);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!in[i] || static_cast<int>(i) == root) continue;
    const std::string& name = spans[i].name;
    if (out.count(name)) continue;
    out[name] = self_of(spans, in, root,
                        [&name](const Span& s) { return s.name == name; });
  }
  std::vector<Interval> top;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (in[i] && spans[i].parent == root) {
      top.emplace_back(spans[i].start_ns, spans[i].end_ns);
    }
  }
  const Span& r = spans[static_cast<std::size_t>(root)];
  out["bench.other"] =
      static_cast<double>(r.end_ns - r.start_ns) * 1e-9 - union_seconds(top);
  return out;
}

double tagged_self_seconds(const std::vector<Span>& spans, int root,
                           const std::string& name, int tag) {
  if (root < 0) return 0.0;
  return self_of(spans, descendants(spans, root), root,
                 [&](const Span& s) { return s.name == name && s.tag == tag; });
}

}  // namespace perfbench
