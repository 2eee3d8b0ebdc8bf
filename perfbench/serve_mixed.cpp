// serve_mixed: an in-process serve::Server driven over its Unix-socket wire
// by one closed-loop client thread holding three connections, each with one
// request in flight, as scripts that wait for every reply do.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/bench.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/runner.hpp"
#include "src/serve/server.hpp"
#include "src/snapshot/crc32.hpp"
#include "src/workloads/workload.hpp"

namespace perfbench {

namespace {

namespace serve = st2::serve;

constexpr int kConnections = 3;
constexpr int kWorkers = 2;
// The request mix is assumed, not taken from a record of serve traffic (the
// repo keeps none): every kernel is asked for once per point, in equal
// shares, and each (kernel, point) kRepeats times. All points of a kernel
// share its captures, so the memo hit share follows from these two numbers:
// 1 - 1 / (3 points * kRepeats) = 5/6, less any concurrent duplicate
// captures.
constexpr int kRepeats = 2;
constexpr int kServePoints[] = {kBase, kCrf, kMru};
constexpr std::uint64_t kWatchdogMs = 60000;
constexpr int kPollTimeoutMs = 60000;

std::string request_line(const std::string& id, const std::string& kernel,
                         int point) {
  std::string l = "{\"id\": \"" + id + "\", \"kernel\": \"" + kernel +
                  "\", \"scale\": 0.25, \"st2\": ";
  l += point == kBase ? "false" : "true";
  if (point != kBase) {
    l += std::string(", \"spec_policy\": \"") + point_name(point) + "\"";
  }
  return l + "}";
}

/// Sums the "chip" counter objects of a response body (one per launch) and
/// prices each with the power model. Returns false when the body does not
/// hold the counters the report writer emits.
bool body_stats(const std::string& body, bool st2, const Context& ctx,
                PointStats& ps) {
  ps = PointStats{};
  std::size_t pos = 0;
  int launches = 0;
  while ((pos = body.find("\"chip\": {", pos)) != std::string::npos) {
    const std::size_t end = body.find('}', pos);
    if (end == std::string::npos) return false;
    const std::string obj = body.substr(pos, end - pos);
    st2::sim::EventCounters c;
    bool complete = true;
    st2::sim::for_each_counter(c, [&](const char* name, std::uint64_t& v) {
      const std::string tag = std::string("\"") + name + "\": ";
      const std::size_t at = obj.find(tag);
      if (at == std::string::npos) {
        complete = false;
        return;
      }
      v = std::strtoull(obj.c_str() + at + tag.size(), nullptr, 10);
    });
    if (!complete) return false;
    ps.c += c;
    ps.chip_energy += ctx.pm.energy(c, st2).chip();
    ++launches;
    pos = end;
  }
  ps.present = launches > 0;
  return ps.present;
}

double envelope_elapsed_ms(const std::string& line) {
  const char* tag = "\"elapsed_ms\": ";
  const std::size_t at = line.find(tag);
  return at == std::string::npos
             ? 0.0
             : std::strtod(line.c_str() + at + std::strlen(tag), nullptr);
}

class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&&) = delete;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

Fd connect_unix(const std::string& path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (fd.get() < 0 || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("cannot open a socket for " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// A started server with its accept loop on its own thread; stopping drains
/// every admitted request before the thread is joined.
class RunningServer {
 public:
  explicit RunningServer(serve::ServerOptions opts) : srv_(std::move(opts)) {
    srv_.start();
    loop_ = std::thread([this] { srv_.serve_forever(); });
  }
  ~RunningServer() { stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  void stop() {
    if (loop_.joinable()) {
      srv_.request_stop();
      loop_.join();
    }
  }
  const serve::Server& server() const { return srv_; }

 private:
  serve::Server srv_;
  std::thread loop_;
};

struct Conn {
  explicit Conn(Fd f) : fd(std::move(f)) {}
  Fd fd;
  std::string buf;
  bool busy = false;
  bool dead = false;
  std::size_t req = 0;       ///< stream index of the request in flight
  std::int64_t sent_ns = 0;  ///< when it was sent
};

class ServeMixed final : public Workload {
 public:
  /// Computes every (kernel, point) response body in-process through the
  /// request runner, checks its digest against the reference and keeps it:
  /// each served body must equal it byte for byte.
  void setup(Context& ctx, Ledger& checks) override {
    kernels_.clear();
    expected_.clear();
    model_.clear();
    st2::tracecache::TraceCache cache;
    for (const auto& info : st2::workloads::case_list()) {
      kernels_.push_back(info.name);
      for (const int p : kServePoints) {
        const serve::RunResult res = serve::execute_request(
            serve::parse_request(request_line("setup", info.name, p)),
            &cache, kWatchdogMs);
        const std::string key = std::string("serve/s0.25/") + point_name(p) +
                                "/" + info.name;
        const bool ok =
            res.exit_code == 0 && res.error_kind.empty() &&
            ctx.checker.check(key, st2::snapshot::fnv1a64(res.report)) &&
            body_stats(res.report, p != kBase, ctx, model_[info.name][p]);
        ok ? checks.ok(0) : checks.failed();
        expected_[info.name][p] = res.report;
      }
    }
  }

  PassOut pass(Context& ctx, std::uint64_t id, st2::Xoshiro256& rng) override {
    PassOut out;
    std::vector<std::pair<std::size_t, int>> stream;
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      for (const int p : kServePoints) {
        for (int r = 0; r < kRepeats; ++r) stream.emplace_back(k, p);
      }
    }
    shuffle(stream, rng);

    serve::ServerOptions so;
    so.socket_path = ctx.scratch + "/serve.sock";
    so.workers = kWorkers;
    so.default_watchdog_ms = kWatchdogMs;
    const int root = ctx.tracer.current();

    std::optional<RunningServer> running;
    std::vector<Conn> conns;
    conns.reserve(kConnections);
    {
      Scope s(ctx.tracer, "serve.lifecycle", id);
      running.emplace(so);
      for (int i = 0; i < kConnections; ++i) {
        conns.emplace_back(connect_unix(so.socket_path));
      }
    }

    std::size_t next = 0;
    int outstanding = 0;
    const auto rid = [id](std::size_t i) {
      return std::to_string(id) + "-" + std::to_string(i);
    };
    const auto send_next = [&](Conn& c) {
      if (next >= stream.size() || c.dead) return;
      const auto [k, p] = stream[next];
      c.req = next++;
      c.sent_ns = now_ns();
      c.busy = true;
      ++outstanding;
      if (!send_all(c.fd.get(),
                    request_line(rid(c.req), kernels_[k], p) + "\n")) {
        out.ops.failed();
        c.busy = false;
        c.dead = true;
        --outstanding;
      }
    };
    const auto finish = [&](Conn& c, const std::string& envelope,
                            const std::string& got_id, int exit_code,
                            const std::string& kind, const std::string& body) {
      const std::int64_t end_ns = now_ns();
      const auto [k, p] = stream[c.req];
      ctx.tracer.add("serve.request", c.sent_ns, end_ns, root, c.req);
      if (kind == "busy") {
        out.ops.refused();
      } else if (!kind.empty() || exit_code != 0 || got_id != rid(c.req) ||
                 body != expected_[kernels_[k]][p]) {
        out.ops.failed();
      } else {
        const double latency_ms =
            static_cast<double>(end_ns - c.sent_ns) * 1e-6;
        const double exec_ms = envelope_elapsed_ms(envelope);
        out.ops.ok(latency_ms);
        out.exec_ms.push_back(exec_ms);
        out.queue_ms.push_back(latency_ms - exec_ms);
        const PointStats& ps = model_[kernels_[k]][p];
        out.model[kernels_[k]][p] = ps;
        out.thread_instructions += ps.c.thread_instructions;
        out.sim_cycles += ps.c.cycles;
      }
      c.busy = false;
      --outstanding;
      send_next(c);
    };
    const auto fail_conn = [&](Conn& c) {
      out.ops.failed();
      c.busy = false;
      c.dead = true;
      --outstanding;
    };

    for (Conn& c : conns) send_next(c);
    char chunk[1 << 16];
    while (outstanding > 0) {
      std::vector<pollfd> fds;
      std::vector<Conn*> who;
      for (Conn& c : conns) {
        if (!c.busy) continue;
        fds.push_back(pollfd{c.fd.get(), POLLIN, 0});
        who.push_back(&c);
      }
      if (::poll(fds.data(), fds.size(), kPollTimeoutMs) <= 0) {
        for (Conn* c : who) fail_conn(*c);
        break;
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        Conn& c = *who[i];
        const ssize_t n = ::read(c.fd.get(), chunk, sizeof(chunk));
        if (n <= 0) {
          fail_conn(c);
          continue;
        }
        c.buf.append(chunk, static_cast<std::size_t>(n));
        const std::size_t nl = c.buf.find('\n');
        if (nl == std::string::npos) continue;
        const std::string envelope = c.buf.substr(0, nl);
        std::string got_id, kind, message;
        int exit_code = -1;
        std::size_t body_bytes = 0;
        if (!serve::parse_envelope(envelope, &got_id, &exit_code, &kind,
                                   &message, &body_bytes)) {
          fail_conn(c);
          continue;
        }
        if (c.buf.size() < nl + 1 + body_bytes) continue;
        const std::string body = c.buf.substr(nl + 1, body_bytes);
        c.buf.erase(0, nl + 1 + body_bytes);
        finish(c, envelope, got_id, exit_code, kind, body);
      }
    }
    // Requests no live connection could carry were attempted and lost.
    for (; next < stream.size(); ++next) out.ops.failed();

    {
      Scope s(ctx.tracer, "serve.lifecycle", id);
      conns.clear();
      running->stop();
      const serve::ServerStats st = running->server().stats();
      const st2::tracecache::CacheStats cs =
          running->server().cache()->stats();
      running.reset();
      const double lookups = static_cast<double>(cs.hits() + cs.misses);
      const double hit_ratio =
          lookups > 0 ? static_cast<double>(cs.hits()) / lookups : 0.0;
      out.layers["serve.busy_rejects"] = static_cast<double>(st.busy_rejects);
      out.layers["serve.cache_hit_ratio"] = hit_ratio;
      out.layers["tracecache.memo_hits"] = static_cast<double>(cs.memo_hits);
      out.layers["tracecache.misses"] = static_cast<double>(cs.misses);
      out.layers["tracecache.memo_bytes"] = static_cast<double>(cs.memo_bytes);
      out.layers["tracecache.hit_ratio"] = hit_ratio;
    }
    return out;
  }

 private:
  std::vector<std::string> kernels_;
  std::map<std::string, std::map<int, std::string>> expected_;
  ModelTable model_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed() {
  return std::make_unique<ServeMixed>();
}

}  // namespace perfbench
