// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the simulator is instrumented. Only the
// main thread records, so the recorder needs no locking. A disabled
// recorder makes every call a no-op, which is how untraced passes run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index of the enclosing span, -1 for a root
  std::uint64_t id = 0;    ///< pass number, or request number for requests
  int tag = -1;            ///< machine point of a replay, -1 otherwise
};

class Tracer {
 public:
  bool enabled = false;

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when disabled.
  int open(const char* name, std::uint64_t id, int tag = -1);
  /// Closes span `idx` (opened last), optionally renaming it — a layer
  /// call whose kind is only known afterwards, such as a cache lookup.
  void close(int idx, const char* rename = nullptr);
  /// Records a finished span that does not nest with its siblings, such
  /// as one of several requests in flight at once.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, std::uint64_t id);

  /// Index of the innermost open span, -1 when none is open.
  int current() const { return stack_.empty() ? -1 : stack_.back(); }
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per span, one per line, in recording order.
  std::string to_jsonl() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one layer call.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t id, int tag = -1)
      : t_(t), idx_(t.open(name, id, tag)) {}
  ~Scope() { t_.close(idx_, rename_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void rename(const char* name) { rename_ = name; }

 private:
  Tracer& t_;
  int idx_;
  const char* rename_ = nullptr;
};

/// Self time in seconds of every span name below root span `root`: the
/// measure of the union of that name's intervals minus the measure of the
/// union of its children's intervals. Spans of one name may overlap (the
/// requests in flight together), so unions rather than sums keep the self
/// times of all names plus the root's own self time (key "bench.other")
/// equal to the root's duration.
std::map<std::string, double> self_seconds(const std::vector<Span>& spans,
                                           int root);

/// Same, restricted to the spans of `name` carrying `tag`.
double tagged_self_seconds(const std::vector<Span>& spans, int root,
                           const std::string& name, int tag);

}  // namespace perfbench
