// serve_http — POST /v1/query over loopback to the epoll reactor (1 reactor,
// 1 batcher worker, 1 forward thread), answered by full-scale
// annular_ring_param and ldc_zeroeq surrogates, interleaved per request.
//
// Set-up (repeated, median reported): publish both surrogates into a fresh
// registry and start batcher + HTTP server. A publisher thread hot-swaps a
// new version every kPublishEvery seconds during both phases. One generator
// thread drives kConnections keep-alive connections:
//  1. open loop, kOpenShare of --seconds — a seeded Poisson schedule at the
//     fixed rate kOpenRate; each request is timed from its *due* time, so a
//     late generator or a backed-up server shows up as latency, never as a
//     slower schedule. Quantiles are taken per kWindow and the median over
//     windows is reported;
//  2. closed loop — kBursts bursts, each pipelining kClosedDepth requests
//     per connection until kBurstTarget responses arrive; the median burst
//     time is the time to that target (capacity).
// Every response must be a 200 from a published version whose `y` is
// bitwise equal to the lone Mlp::forward of that version on that input.
//
// The whole process — server threads and generator alike — runs on one
// CPU. On a 4-vCPU VM, cross-CPU wake-ups made capacity swing 40-160k req/s
// between identical runs. On one CPU the ten-run spread was 7-12% in most
// sets, but one set split into a fast and a slow group: that is why
// serve_http is not gated (see README.md).

#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "nn/encoding.hpp"
#include "pinn/scenario.hpp"
#include "serve/batcher.hpp"
#include "serve/connection.hpp"
#include "serve/http_server.hpp"
#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "trace.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sgm;
namespace fs = std::filesystem;

// Offered load of the open phase, requests/s. A stored constant, far below
// the closed-loop capacity on a 4-core x86-64 host, so the open phase
// measures latency rather than queueing collapse.
constexpr double kOpenRate = 4000.0;
constexpr double kOpenShare = 0.6;      ///< of --seconds
constexpr double kWindow = 0.25;        ///< open-phase quantile window, s
constexpr std::size_t kConnections = 4;
constexpr std::size_t kClosedDepth = 256;      ///< in flight per connection
constexpr int kBursts = 9;                     ///< closed-phase bursts
constexpr std::uint64_t kBurstTarget = 40000;  ///< responses per burst
constexpr std::size_t kInputs = 256;    ///< distinct inputs per scenario
constexpr std::size_t kVariants = 4;    ///< model variants cycled by publish
constexpr double kPublishEvery = 2.0;   ///< seconds between hot-swaps
constexpr int kSetupReps = 15;
/// The short session behind add_serving_layers: long enough for one
/// hot-swap publish and a few bursts.
constexpr double kShortOpenSeconds = 3.0;
constexpr int kShortBursts = 3;
constexpr double kDrainTimeout = 10.0;   ///< open phase: straggler wait, s
constexpr double kClosedTimeout = 60.0;  ///< closed phase: give up after, s

serve::BatcherOptions batcher_options() {
  serve::BatcherOptions b;
  b.max_batch = 64;
  b.num_threads = 1;
  b.num_workers = 1;
  b.queue_capacity = 2 * kConnections * kClosedDepth;
  return b;
}

/// The full-scale ldc_zeroeq network, mirrored from make_ldc: asking the
/// registry for it would also run the scenario's 11 s reference solve.
nn::MlpConfig ldc_net() {
  nn::MlpConfig c;
  c.input_dim = 2;
  c.output_dim = 3;
  c.width = 48;
  c.depth = 4;
  util::Rng enc_rng(4242);
  c.encoding = std::make_shared<nn::FourierEncoding>(2, 12, 1.5, enc_rng);
  return c;
}

struct Surrogate {
  std::string name;
  std::vector<std::unique_ptr<nn::Mlp>> variants;
  std::vector<std::vector<double>> inputs;
  std::vector<std::string> wire;  ///< request bytes per input
  ExpectedOutputs expected;
  std::atomic<std::uint64_t> max_published{0};
};

void build_surrogate(Surrogate& s, const std::string& name,
                     const nn::MlpConfig& net, std::uint64_t seed) {
  s.name = name;
  for (std::size_t k = 0; k < kVariants; ++k) {
    util::Rng rng(derive_seed(seed, 100 + k));
    s.variants.push_back(std::make_unique<nn::Mlp>(net, rng));
  }
  util::Rng rng(derive_seed(seed, 200));
  s.expected.variants = kVariants;
  s.expected.inputs = kInputs;
  s.expected.output_dim = net.output_dim;
  s.expected.y.resize(kVariants * kInputs * net.output_dim);
  for (std::size_t p = 0; p < kInputs; ++p) {
    std::vector<double> x(net.input_dim);
    std::string body = "{\"scenario\": \"" + name + "\", \"x\": [";
    for (std::size_t d = 0; d < x.size(); ++d) {
      x[d] = rng.uniform();
      char num[40];
      std::snprintf(num, sizeof(num), "%s%.17g", d ? ", " : "", x[d]);
      body += num;
    }
    body += "]}";
    s.wire.push_back("POST /v1/query HTTP/1.1\r\nHost: perfbench\r\n"
                     "Content-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body);
    tensor::Matrix row(1, x.size());
    for (std::size_t d = 0; d < x.size(); ++d) row(0, d) = x[d];
    for (std::size_t k = 0; k < kVariants; ++k) {
      const tensor::Matrix y = s.variants[k]->forward(row);
      for (std::size_t j = 0; j < net.output_dim; ++j)
        s.expected.y[(k * kInputs + p) * net.output_dim + j] = y(0, j);
    }
    s.inputs.push_back(std::move(x));
  }
}

/// The serving stack under test, in construction order.
struct Stack {
  std::string root;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ServeMetrics> metrics;
  std::unique_ptr<serve::InferenceBatcher> batcher;
  std::unique_ptr<serve::HttpServer> server;

  void stop() {
    if (server) server->stop();
    if (batcher) batcher->stop();
    server.reset();
    batcher.reset();
    metrics.reset();
    registry.reset();
    std::error_code ec;
    fs::remove_all(root, ec);
  }
};

/// Publishes v1 of every surrogate into a fresh registry and starts the
/// server: the serving set-up that setup_s times.
void start_stack(Stack& st, std::vector<Surrogate>& surrogates) {
  st.registry = std::make_unique<serve::ModelRegistry>(st.root);
  for (auto& s : surrogates) {
    s.max_published = 1;
    st.registry->publish(s.name, *s.variants[0]);
    st.registry->pin(s.name);
  }
  st.metrics = std::make_unique<serve::ServeMetrics>();
  st.batcher = std::make_unique<serve::InferenceBatcher>(
      *st.registry, batcher_options(), st.metrics.get());
  serve::HttpServerOptions h;
  h.num_reactors = 1;
  h.max_pipeline = 2 * kClosedDepth;
  st.server = std::make_unique<serve::HttpServer>(*st.registry, *st.batcher,
                                                  *st.metrics, h);
}

struct Request {
  std::uint8_t scenario = 0;
  std::uint32_t input = 0;
  std::int64_t due_ns = 0;  ///< open phase: schedule time; closed: send time
};

struct Conn {
  util::TcpSocket sock;
  std::string buf;
  std::deque<Request> fifo;  ///< responses arrive in request order
};

/// Parses one complete response starting at `pos` in `buf`; returns the
/// offset just past it, or 0 when it is not complete yet. Deliberately
/// independent of the server's own JSON helpers.
std::size_t parse_response(const std::string& buf, std::size_t pos,
                           int& status, std::uint64_t& version,
                           std::vector<double>& y) {
  const std::size_t head_end = buf.find("\r\n\r\n", pos);
  if (head_end == std::string::npos) return 0;
  std::size_t len = 0;
  const std::size_t cl = buf.find("Content-Length: ", pos);
  if (cl != std::string::npos && cl < head_end)
    len = std::strtoul(buf.c_str() + cl + 16, nullptr, 10);
  const std::size_t total = head_end + 4 + len;
  if (buf.size() < total) return 0;
  status = buf.compare(pos, 9, "HTTP/1.1 ") == 0
               ? std::atoi(buf.c_str() + pos + 9)
               : 0;
  const std::string body = buf.substr(head_end + 4, len);
  version = 0;
  y.clear();
  const std::size_t v = body.find("\"version\": ");
  if (v != std::string::npos)
    version = std::strtoull(body.c_str() + v + 11, nullptr, 10);
  const std::size_t a = body.find("\"y\": [");
  if (a != std::string::npos) {
    const char* p = body.c_str() + a + 6;
    while (*p && *p != ']') {
      char* end = nullptr;
      const double d = std::strtod(p, &end);
      if (end == p) break;
      y.push_back(d);
      p = end;
      while (*p == ',' || *p == ' ') ++p;
    }
  }
  return total;
}

struct PhaseStats {
  std::uint64_t sent = 0, answered = 0, failed = 0;
  std::vector<double> latency_s;   ///< per answered request
  std::vector<std::int64_t> due_ns;  ///< its due time, aligned with latency_s
  std::vector<double> late_s;      ///< send time - due time (open phase)
  std::vector<double> burst_s;     ///< closed phase: time per burst
  double elapsed_s = 0.0;          ///< open phase: first due to last answer
  std::string first_failure;
};

/// The client side of the connections: sends requests, then reads, checks
/// and times their responses.
class Generator {
 public:
  Generator(std::vector<Conn>& conns, std::vector<Surrogate>& surrogates)
      : conns_(conns), surrogates_(surrogates) {
    for (auto& c : conns_) fds_.push_back({c.sock.fd(), POLLIN, 0});
  }

  void send(std::size_t conn, const Request& req, PhaseStats& st) {
    Conn& c = conns_[conn];
    ++st.sent;
    if (!c.sock.write_all(surrogates_[req.scenario].wire[req.input])) {
      ++st.failed;
      note(st, "write failed");
      return;
    }
    c.fifo.push_back(req);
  }

  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c.fifo.size();
    return n;
  }

  /// Waits up to `timeout_ns` for responses and consumes those that
  /// arrived; returns the indices of connections that got answers
  /// (once per answer).
  std::vector<std::size_t> poll_responses(std::int64_t timeout_ns,
                                          PhaseStats& st) {
    std::vector<std::size_t> answered;
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    if (ppoll(fds_.data(), fds_.size(), &ts, nullptr) <= 0) return answered;
    char chunk[65536];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!(fds_[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns_[i];
      const long n = c.sock.read_some(chunk, sizeof(chunk));
      if (n <= 0) {
        fds_[i].fd = -1;  // closed: its outstanding requests stay unanswered
        continue;
      }
      c.buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      for (;;) {
        const std::size_t end =
            parse_response(c.buf, pos, status_, version_, y_);
        if (end == 0) break;
        pos = end;
        const std::int64_t now = now_ns();
        if (c.fifo.empty()) {
          ++st.failed;
          note(st, "response without a request");
          continue;
        }
        const Request req = c.fifo.front();
        c.fifo.pop_front();
        const Surrogate& s = surrogates_[req.scenario];
        const std::string why =
            check_response(status_, version_, y_, s.expected, req.input,
                           s.max_published.load());
        if (!why.empty()) {
          ++st.failed;
          note(st, s.name + ": " + why);
        } else {
          ++st.answered;
          st.latency_s.push_back(static_cast<double>(now - req.due_ns) * 1e-9);
          st.due_ns.push_back(req.due_ns);
        }
        answered.push_back(i);
      }
      c.buf.erase(0, pos);
    }
    return answered;
  }

 private:
  static void note(PhaseStats& st, const std::string& why) {
    if (st.first_failure.empty()) st.first_failure = why;
  }

  std::vector<Conn>& conns_;
  std::vector<Surrogate>& surrogates_;
  std::vector<pollfd> fds_;
  int status_ = 0;
  std::uint64_t version_ = 0;
  std::vector<double> y_;
};

/// Seeded request mix: scenario and input of the i-th request.
Request pick(std::mt19937_64& rng, std::size_t n_scenarios) {
  Request r;
  r.scenario = static_cast<std::uint8_t>(rng() % n_scenarios);
  r.input = static_cast<std::uint32_t>(rng() % kInputs);
  return r;
}

/// Median over kWindow-long windows (by due time) of the per-window
/// latency quantile q: one bad window cannot carry the run.
double windowed_latency(const PhaseStats& st, double q) {
  if (st.due_ns.empty()) return 0.0;
  const std::int64_t t0 = st.due_ns.front();
  const auto width = static_cast<std::int64_t>(kWindow * 1e9);
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < st.latency_s.size(); ++i) {
    const auto w = static_cast<std::size_t>((st.due_ns[i] - t0) / width);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(st.latency_s[i]);
  }
  std::vector<double> per;
  for (auto& w : windows)
    if (!w.empty()) per.push_back(quantile(std::move(w), q));
  return median(per);
}

PhaseStats open_phase(Generator& gen, std::size_t n_scenarios,
                      std::mt19937_64& rng, double seconds) {
  PhaseStats st;
  std::exponential_distribution<double> gap(kOpenRate);
  const auto count = static_cast<std::uint64_t>(kOpenRate * seconds);
  std::vector<Request> plan(count);
  const std::int64_t t0 = now_ns() + 2000000;
  double offset = 0.0;
  for (auto& r : plan) {
    r = pick(rng, n_scenarios);
    offset += gap(rng);
    r.due_ns = t0 + static_cast<std::int64_t>(offset * 1e9);
  }
  std::size_t i = 0;
  const std::int64_t give_up =
      t0 + static_cast<std::int64_t>((offset + kDrainTimeout) * 1e9);
  while (now_ns() < give_up) {
    std::int64_t now = now_ns();
    while (i < count && plan[i].due_ns <= now) {
      st.late_s.push_back(static_cast<double>(now - plan[i].due_ns) * 1e-9);
      gen.send(i % kConnections, plan[i], st);
      ++i;
      now = now_ns();
    }
    if (i == count && gen.outstanding() == 0) break;
    const std::int64_t ahead =
        i < count ? std::max<std::int64_t>(plan[i].due_ns - now, 0) : 1000000;
    gen.poll_responses(ahead, st);
  }
  st.elapsed_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return st;
}

/// `bursts` bursts; each pipelines kClosedDepth requests per connection
/// and refills on every answer until kBurstTarget responses have arrived.
/// burst_s holds the time each burst took.
PhaseStats closed_phase(Generator& gen, std::size_t n_scenarios,
                        std::mt19937_64& rng, int bursts) {
  PhaseStats st;
  const std::int64_t t0 = now_ns();
  const std::int64_t give_up =
      t0 + static_cast<std::int64_t>(kClosedTimeout * 1e9);
  auto send_next = [&](std::size_t conn) {
    Request r = pick(rng, n_scenarios);
    r.due_ns = now_ns();
    gen.send(conn, r, st);
  };
  for (int b = 0; b < bursts && now_ns() < give_up; ++b) {
    const std::int64_t start = now_ns();
    const std::uint64_t target = st.sent + kBurstTarget;
    for (std::size_t c = 0; c < kConnections; ++c)
      for (std::size_t d = 0; d < kClosedDepth && st.sent < target; ++d)
        send_next(c);
    while (st.answered + st.failed < st.sent && now_ns() < give_up)
      for (const std::size_t c : gen.poll_responses(1000000, st))
        if (st.sent < target) send_next(c);
    st.burst_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return st;
}

/// Periodic registry hot-swap beside the request traffic.
class Publisher {
 public:
  Publisher(serve::ModelRegistry& registry, std::vector<Surrogate>& s)
      : registry_(registry), surrogates_(s), thread_([this] { loop(); }) {}
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop(): the duration of every publish, and the first
  /// publish error ("" when none).
  const std::vector<double>& publish_s() const { return publish_s_; }
  const std::string& error() const { return error_; }

 private:
  void loop() {
    std::size_t k = 0;
    std::int64_t next = now_ns();
    while (!stop_) {
      next += static_cast<std::int64_t>(kPublishEvery * 1e9);
      while (!stop_ && now_ns() < next)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (stop_) break;
      Surrogate& s = surrogates_[k++ % surrogates_.size()];
      const std::uint64_t v = s.max_published.load() + 1;
      s.max_published = v;  // before publish: the swap is visible inside it
      const std::int64_t t = now_ns();
      try {
        registry_.publish(s.name, *s.variants[(v - 1) % kVariants]);
      } catch (const std::exception& e) {
        error_ = std::string("publish failed: ") + e.what();
        return;
      }
      publish_s_.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    }
  }

  serve::ModelRegistry& registry_;
  std::vector<Surrogate>& surrogates_;
  std::atomic<bool> stop_{false};
  std::vector<double> publish_s_;
  std::string error_;
  std::thread thread_;
};

std::atomic<std::size_t> g_sink{0};  ///< keeps measured results alive

/// Median per-call time of `fn` in ns: `rounds` timings of `calls` calls.
/// `fn(i)` returns something derived from its result, so the call cannot
/// be optimized away.
template <typename Fn>
double per_call_ns(int rounds, int calls, Fn&& fn) {
  std::vector<double> per;
  std::size_t acc = 0;
  for (int r = 0; r < rounds; ++r) {
    const std::int64_t t = now_ns();
    for (int c = 0; c < calls; ++c) acc += fn(c);
    per.push_back(static_cast<double>(now_ns() - t) / calls);
  }
  g_sink.fetch_add(acc, std::memory_order_relaxed);
  return median(per);
}

/// Per-layer measurements on the workload's own bytes, models and rate.
void report_layers(Result& r, std::vector<Surrogate>& surrogates,
                   serve::ModelRegistry& registry, std::uint64_t seed) {
  namespace http = serve::http;
  std::vector<std::string> wires, bodies;
  for (const auto& s : surrogates)
    for (const auto& w : s.wire) {
      wires.push_back(w);
      bodies.push_back(w.substr(w.find("\r\n\r\n") + 4));
    }
  const int n = static_cast<int>(wires.size());
  auto layer = [&](const char* metric, double v, const char* unit) {
    r.per_layer.push_back({metric, v, unit});
  };
  layer("serve.parse_head_ns", per_call_ns(21, 4 * n, [&](int c) {
          http::HttpRequest req;
          std::size_t off = 0;
          const auto status = http::parse_head(wires[c % n], req, off, 1 << 20);
          return off + static_cast<std::size_t>(status);
        }), "ns");
  layer("serve.json_parse_ns", per_call_ns(21, 4 * n, [&](int c) {
          std::string name;
          std::vector<double> x;
          const bool ok = http::json_string_field(bodies[c % n], "scenario",
                                                  name) &&
                          http::json_number_array(bodies[c % n], "x", x);
          return x.size() + ok;
        }), "ns");
  layer("serve.render_body_ns", per_call_ns(21, 4 * n, [&](int c) {
          const Surrogate& s = surrogates[c % surrogates.size()];
          const double* row = s.expected.row(1, c % kInputs);
          const std::vector<double> y(row, row + s.expected.output_dim);
          int status = 200;
          return http::render_query_body(s.name, 1, y, status).size();
        }), "ns");

  // Forward pass of the first surrogate at max_batch rows and at one row.
  const Surrogate& s0 = surrogates.front();
  const std::size_t max_batch = batcher_options().max_batch;
  tensor::Matrix xb(max_batch, s0.inputs[0].size()), x1(1, xb.cols()), out;
  for (std::size_t i = 0; i < max_batch; ++i)
    for (std::size_t d = 0; d < xb.cols(); ++d)
      xb(i, d) = s0.inputs[i % kInputs][d];
  for (std::size_t d = 0; d < xb.cols(); ++d) x1(0, d) = s0.inputs[0][d];
  nn::Mlp::ForwardWorkspace ws;
  layer("nn.forward_batched_us", per_call_ns(21, 50, [&](int) {
          s0.variants[0]->forward_batched(xb, out, ws, 1);
          return out.rows();
        }) * 1e-3, "us");
  layer("nn.forward_batched_1row_us", per_call_ns(21, 500, [&](int) {
          s0.variants[0]->forward_batched(x1, out, ws, 1);
          return out.rows();
        }) * 1e-3, "us");

  layer("serve.registry_acquire_us", per_call_ns(21, 2000, [&](int c) {
          return registry.acquire(surrogates[c % surrogates.size()].name)
              ->info.meta.model_version;
        }) * 1e-3, "us");

  // In-process InferenceBatcher::query at the open-phase rate: the HTTP
  // latency minus this is what the reactor and sockets cost.
  serve::InferenceBatcher batcher(registry, batcher_options(), nullptr);
  std::mt19937_64 rng(derive_seed(seed, 300));
  std::exponential_distribution<double> gap(kOpenRate);
  std::vector<double> lat;
  std::int64_t due = now_ns();
  for (int i = 0; i < static_cast<int>(kOpenRate); ++i) {
    due += static_cast<std::int64_t>(gap(rng) * 1e9);
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
    const Request q = pick(rng, surrogates.size());
    const std::int64_t t = now_ns();
    const auto resp = batcher.query(surrogates[q.scenario].name,
                                    surrogates[q.scenario].inputs[q.input]);
    lat.push_back(static_cast<double>(now_ns() - t) * 1e-3);
    g_sink.fetch_add(resp.y.size(), std::memory_order_relaxed);
  }
  batcher.stop();
  layer("serve.batcher_query_us", median(lat), "us");
}

}  // namespace

/// Restricts the process (and every thread it starts later) to one CPU,
/// the last one it may run on.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Sizes of one serving session.
struct SessionSize {
  int setup_reps;
  double open_seconds;
  int bursts;
};

Result serve_session(std::uint64_t seed, const SessionSize& size,
                     bool trace) {
  setenv("SGM_NUM_THREADS", "1", 1);
  pin_to_one_cpu();
  Result r;
  std::vector<Surrogate> surrogates(2);
  build_surrogate(
      surrogates[0], "annular_ring_param",
      pinn::ScenarioRegistry::instance()
          .make("annular_ring_param", pinn::ScenarioScale::kFull)
          .net,
      derive_seed(seed, 1));
  build_surrogate(surrogates[1], "ldc_zeroeq", ldc_net(),
                  derive_seed(seed, 2));
  for (const auto& s : surrogates)
    for (const auto& why : self_test_response(s.expected, 2)) r.fail(why);

  const std::string base =
      (fs::current_path() / ".bench_build" /
       ("serve_registry_" + std::to_string(getpid())))
          .string();
  std::vector<double> setup_s;
  Stack st;
  for (int rep = 0; rep < size.setup_reps; ++rep) {
    st.stop();
    st.root = base + "_" + std::to_string(rep);
    std::error_code ec;
    fs::remove_all(st.root, ec);
    const std::int64_t t = now_ns();
    start_stack(st, surrogates);
    setup_s.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }

  std::vector<Conn> conns(kConnections);
  for (auto& c : conns) {
    c.sock = util::tcp_connect(st.server->port());
    c.sock.set_nodelay(true);
  }
  std::mt19937_64 mix(derive_seed(seed, 3));
  PhaseStats open, closed;
  std::vector<double> publish_s;
  {
    Generator gen(conns, surrogates);
    Publisher publisher(*st.registry, surrogates);
    open = open_phase(gen, surrogates.size(), mix, size.open_seconds);
    closed = closed_phase(gen, surrogates.size(), mix, size.bursts);
    publisher.stop();
    publish_s = publisher.publish_s();
    if (!publisher.error().empty()) r.fail(publisher.error());
  }
  conns.clear();

  for (const PhaseStats* p : {&open, &closed}) {
    r.attempted += p->sent;
    r.failed += p->sent - p->answered;
    if (!p->first_failure.empty()) r.fail(p->first_failure);
  }
  const std::uint64_t closed_target = size.bursts * kBurstTarget;
  if (closed.answered < closed_target)
    r.fail("closed phase answered " + std::to_string(closed.answered) +
           " of " + std::to_string(closed_target));
  if (publish_s.empty()) r.fail("no hot-swap publish happened");

  const auto& m = *st.metrics;
  const double batches = static_cast<double>(m.batches_total.load());
  r.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"time_to_target_s", median(closed.burst_s), "s"},
      {"latency_p50_ms", windowed_latency(open, 0.50) * 1e3, "ms"},
  };
  r.info = {
      {"serve_qps", static_cast<double>(kBurstTarget) / median(closed.burst_s),
       "1/s"},
      {"error_rate",
       r.attempted ? static_cast<double>(r.failed) /
                         static_cast<double>(r.attempted)
                   : 0.0,
       "ratio"},
      {"gen_late_ms", quantile(open.late_s, 0.99) * 1e3, "ms"},
      {"open_latency_p99_ms", windowed_latency(open, 0.99) * 1e3, "ms"},
      {"open_requests", static_cast<double>(open.sent), "count"},
      {"open_elapsed_s", open.elapsed_s, "s"},
      {"closed_requests", static_cast<double>(closed.sent), "count"},
      {"publishes", static_cast<double>(publish_s.size()), "count"},
      {"serve.rejected", static_cast<double>(m.rejected_total.load()),
       "count"},
  };

  if (trace) {
    const std::int64_t t = now_ns();
    r.per_layer = {
        {"serve.mean_batch",
         batches > 0 ? static_cast<double>(m.batched_queries_total.load()) /
                           batches
                     : 0.0,
         "rows"},
        {"serve.full_flush_fraction",
         batches > 0 ? static_cast<double>(m.full_flushes_total.load()) /
                           batches
                     : 0.0,
         "ratio"},
        {"serve.rejected", static_cast<double>(m.rejected_total.load()),
         "count"},
        {"serve.registry_publish_ms", median(publish_s) * 1e3, "ms"},
        {"serve.gen_late_ms", quantile(open.late_s, 0.99) * 1e3, "ms"},
    };
    st.server->stop();
    st.batcher->stop();
    report_layers(r, surrogates, *st.registry, seed);
    // The layer probes run after the HTTP phases, which they therefore do
    // not perturb; their cost is the traced run's extra wall time.
    r.per_layer.push_back(
        {"trace.overhead_s", static_cast<double>(now_ns() - t) * 1e-9, "s"});
  }
  st.stop();
  return r;
}

Result run_serve_workload(const RunOptions& o) {
  return serve_session(o.seed, {kSetupReps, o.seconds * kOpenShare, kBursts},
                       o.trace);
}

void add_serving_layers(Result& r, std::uint64_t seed) {
  const Result s = serve_session(seed, {1, kShortOpenSeconds, kShortBursts},
                                 true);
  for (const auto& m : s.per_layer)
    if (m.name != "trace.overhead_s") r.per_layer.push_back(m);
  for (const auto& m : s.end_to_end)
    r.info.push_back({"serve_http." + m.name, m.value, m.unit});
  for (const auto& m : s.info)
    r.info.push_back({"serve_http." + m.name, m.value, m.unit});
  for (const auto& why : s.check_failures) r.fail("serving: " + why);
  r.attempted += s.attempted;
  r.failed += s.failed;
}

}  // namespace perfbench
