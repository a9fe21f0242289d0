// Workload serve_cold: the fault-isolated serving tier
// (`chatpattern_serve --listen --procs 1 --workers 1 --journal ...`) driven
// over TCP from this one process: 4 connections, one event-loop thread.
// One worker process: with two, the saturation rate split between two
// levels from run to run on a shared VM (see README.md). Every request has
// distinct content (0% cache hits) and sizes are mixed so batching sees
// several BatchKeys. Serving is bound by generation: diffusion,
// legalization and worker queueing set latency, the front-end is a small
// share.
//
// Each run: start the tier (timed to ready); then rounds of an open-loop
// slice of Poisson arrivals at a fixed rate, each request timed from when
// it was due, and a closed-loop saturation slice with a fixed window in
// flight per connection, with a spare tier's start timed between rounds;
// then output checks.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/chatpattern.h"
#include "dataset/style.h"
#include "drc/checker.h"
#include "serve/cache.h"
#include "serve/request.h"
#include "inputs.h"
#include "stats.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {
namespace {

constexpr int kProcs = 1;           // worker processes of the tier
constexpr int kTrainClips = 48;     // per-class training clips of each worker
constexpr int kDraws = 3;           // chatpattern_serve's default
constexpr int kConns = 4;           // client connections
constexpr double kOpenRate = 90;     // open-loop arrivals per second, ~30% of saturation
constexpr int kOpenRequests = 1000;  // enough for a p99 (10 samples beyond it)
constexpr std::size_t kRounds = 5;   // open-loop slices interleaved with saturation
constexpr int kAttempts = 2;         // measured passes tried before the run is invalid
constexpr int kWindow = 4;           // in flight per connection when saturating
constexpr int kRecheck = 16;         // open-loop contents re-requested at the end
constexpr int kReplay = 120;         // requests replayed in process (traced run)

/// One request as the client saw it.
struct Outcome {
  int content = -1;  // index into the run's content table
  int conn = 0;      // connection it was sent on
  double due = 0, sent = 0, done = 0;
  int answers = 0;
  std::string status;
  std::uint64_t hash = 0;
  long long attempts = 0, delivered = 0;
  double queue_wait_ms = 0, service_ms = 0, total_ms = 0;
  bool cache_hit = false, deduped = false, degraded = false;
  bool ok() const { return answers == 1 && status == "ok"; }
};

struct PhaseCount {
  long long sent = 0, ok = 0, rejected = 0, failed = 0, incomplete = 0, unanswered = 0,
            duplicates = 0;
  cp::util::Json json() const {
    cp::util::Json j;
    j["sent"] = sent;
    j["ok"] = ok;
    j["rejected"] = rejected;
    j["failed"] = failed;
    j["incomplete"] = incomplete;
    j["unanswered"] = unanswered;
    j["duplicate_answers"] = duplicates;
    return j;
  }
  long long bad() const { return sent - ok; }
};

PhaseCount count_phase(const std::vector<Outcome>& v) {
  PhaseCount c;
  for (const Outcome& o : v) {
    if (o.sent == 0) continue;
    ++c.sent;
    if (o.answers == 0) ++c.unanswered;
    else if (o.answers > 1) ++c.duplicates;
    else if (o.status == "ok") ++c.ok;
    else if (o.status == "rejected") ++c.rejected;
    else if (o.status == "incomplete") ++c.incomplete;
    else ++c.failed;
  }
  return c;
}

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to the tier failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One control-plane round trip ({"cmd":"stats"} and friends).
cp::util::Json command(int port, const std::string& cmd) {
  const int fd = connect_local(port);
  const std::string line = "{\"cmd\":\"" + cmd + "\"}\n";
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(line.size())) {
    ::close(fd);
    throw std::runtime_error("control command send failed");
  }
  std::string in;
  char buf[4096];
  while (in.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    in.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return cp::util::Json::parse(in.substr(0, in.find('\n')));
}

/// The serving tier as a child process.
class Tier {
 public:
  Tier(const Options& options, const std::string& dir) : options_(options), dir_(dir) {}
  ~Tier() { stop(); }
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  /// Spawn and wait until every worker is alive; returns start-to-ready
  /// seconds.
  double start() {
    std::filesystem::create_directories(dir_);
    for (const char* f : {"port", "state.json", "ledger.cpsj"}) std::filesystem::remove(dir_ + "/" + f);
    const std::vector<std::string> args = {
        options_.serve_bin, "--listen", "--procs", std::to_string(kProcs), "--workers", "1",
        "--train", std::to_string(kTrainClips), "--port", "0",
        "--port-file", dir_ + "/port", "--state-file", dir_ + "/state.json",
        "--journal", journal_path()};
    const double t0 = now_s();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int log = ::open((dir_ + "/tier.log").c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      std::vector<char*> argv;
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    const double deadline = t0 + 120;
    while (port_ == 0) {
      std::ifstream in(dir_ + "/port");
      if (!(in >> port_)) port_ = 0;
      if (port_ == 0) wait_a_little(deadline);
    }
    while (command(port_, "stats").get_int("workers_alive", 0) < kProcs) wait_a_little(deadline);
    return now_s() - t0;
  }

  int port() const { return port_; }
  std::string journal_path() const { return dir_ + "/ledger.cpsj"; }

  /// Peak RSS of the front-end and its workers, summed (MB).
  double peak_rss_mb_all() const {
    double mb = peak_rss_mb(std::to_string(pid_));
    std::ifstream in(dir_ + "/state.json");
    std::stringstream ss;
    ss << in.rdbuf();
    const cp::util::Json state = cp::util::Json::parse(ss.str());
    for (const cp::util::Json& w : state.at("workers").as_array()) {
      mb += peak_rss_mb(std::to_string(w.as_int()));
    }
    return mb;
  }

  /// Graceful shutdown; SIGKILL if the tier has not exited in 30 s.
  void stop() {
    if (pid_ <= 0) return;
    try {
      if (port_ != 0) command(port_, "shutdown");
    } catch (const std::exception&) {
    }
    const double deadline = now_s() + 30;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    port_ = 0;
  }

 private:
  void wait_a_little(double deadline) const {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) throw std::runtime_error("the tier exited during start-up");
    if (now_s() > deadline) throw std::runtime_error("the tier did not become ready in time");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const Options& options_;
  std::string dir_;
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Single-threaded load generator over kConns pipelined connections.
class LoadGen {
 public:
  explicit LoadGen(int port) {
    for (int i = 0; i < kConns; ++i) {
      Conn c;
      c.fd = connect_local(port);
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
  }
  ~LoadGen() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Open loop over lines[first, first + count): request i is due at
  /// t0 + due[i] - due[first] and sent on connection i % kConns no
  /// earlier. Returns when all are answered or `grace_s` after the last was
  /// due.
  void open_loop(char prefix, const std::vector<std::string>& lines, const std::vector<double>& due,
                 std::size_t first, std::size_t count, std::vector<Outcome>& out, double grace_s) {
    begin(prefix, out);
    const std::size_t end = first + count;
    const double t0 = now_s() + 0.01 - due[first];
    const double deadline = t0 + due[end - 1] + grace_s;
    std::size_t next = first;
    while (answered_ < count && now_s() < deadline) {
      double now = now_s();
      while (next < end && t0 + due[next] <= now) {
        out[next].due = t0 + due[next];
        send(next % kConns, lines[next]);
        out[next].sent = now_s();
        ++next;
        now = now_s();
      }
      pump(next < end ? t0 + due[next] : deadline);
    }
  }

  /// Closed loop: keep `window` requests in flight per connection, appending
  /// request n (line make_line(n)) to `out`, for `duration_s`; then stop
  /// sending and drain. Returns how many ok answers arrived before the
  /// stop, and appends their send-to-answer latencies (ms) to latency_ms.
  long long closed_loop(char prefix, const std::function<std::string(std::size_t)>& make_line,
                        int window, double duration_s, std::vector<Outcome>& out, double grace_s,
                        std::vector<double>& latency_ms) {
    const double stop = now_s() + duration_s;
    const std::size_t from = out.size();
    run_closed(prefix, window, out, grace_s, [&](std::size_t n) -> std::optional<std::string> {
      if (now_s() >= stop) return std::nullopt;
      return make_line(n);
    });
    long long ok = 0;
    for (std::size_t i = from; i < out.size(); ++i) {
      if (!out[i].ok() || out[i].done >= stop) continue;
      latency_ms.push_back((out[i].done - out[i].sent) * 1e3);
      ++ok;
    }
    return ok;
  }

  /// Closed loop over a fixed list of lines: all sent, `window` in flight
  /// per connection, all awaited.
  void batch(char prefix, const std::vector<std::string>& lines, int window,
             std::vector<Outcome>& out, double grace_s) {
    run_closed(prefix, window, out, grace_s, [&](std::size_t n) -> std::optional<std::string> {
      if (n >= lines.size()) return std::nullopt;
      return lines[n];
    });
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_pos = 0;
    std::string in;
  };

  void begin(char prefix, std::vector<Outcome>& out) {
    prefix_ = prefix;
    out_ = &out;
    answered_ = 0;
  }

  void run_closed(char prefix, int window, std::vector<Outcome>& out, double grace_s,
                  const std::function<std::optional<std::string>(std::size_t)>& next_line) {
    begin(prefix, out);
    std::vector<int> inflight(kConns, 0);
    bool exhausted = false;
    on_answer_ = [&](std::size_t idx) { --inflight[static_cast<std::size_t>(out[idx].conn)]; };
    auto top_up = [&] {
      for (int c = 0; c < kConns && !exhausted; ++c) {
        while (inflight[static_cast<std::size_t>(c)] < window) {
          std::optional<std::string> line = next_line(out.size());
          if (!line) {
            exhausted = true;
            break;
          }
          Outcome o;
          o.conn = c;
          o.due = o.sent = now_s();
          out.push_back(o);
          send(static_cast<std::size_t>(c), *line);
          ++inflight[static_cast<std::size_t>(c)];
        }
      }
    };
    top_up();
    while (!exhausted) {
      pump(now_s() + 0.05);
      top_up();
    }
    const double deadline = now_s() + grace_s;
    while (outstanding(out) > 0 && now_s() < deadline) pump(deadline);
    on_answer_ = nullptr;
  }

  static long long outstanding(const std::vector<Outcome>& v) {
    long long n = 0;
    for (const Outcome& o : v) n += o.sent != 0 && o.answers == 0 ? 1 : 0;
    return n;
  }

  void send(std::size_t conn, const std::string& line) {
    Conn& c = conns_[conn];
    c.out += line;
    c.out += '\n';
    flush(c);
  }

  void flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error("send to the tier failed: " + std::string(std::strerror(errno)));
      }
      c.out_pos += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_pos = 0;
  }

  /// Wait for socket activity until `wake` (absolute seconds) at most.
  void pump(double wake) {
    pollfd fds[kConns];
    for (int i = 0; i < kConns; ++i) {
      fds[i].fd = conns_[static_cast<std::size_t>(i)].fd;
      fds[i].events = static_cast<short>(POLLIN | (conns_[static_cast<std::size_t>(i)].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const double wait = std::max(0.0, wake - now_s());
    timespec ts{static_cast<time_t>(wait), static_cast<long>((wait - std::floor(wait)) * 1e9)};
    const int rc = ::ppoll(fds, kConns, &ts, nullptr);
    if (rc <= 0) return;
    for (int i = 0; i < kConns; ++i) {
      Conn& c = conns_[static_cast<std::size_t>(i)];
      if (fds[i].revents & POLLOUT) flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_lines(c);
    }
  }

  void read_lines(Conn& c) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("the tier closed a client connection");
      c.in.append(buf, static_cast<std::size_t>(n));
    }
    const double done = now_s();
    std::size_t start = 0;
    for (std::size_t nl = c.in.find('\n'); nl != std::string::npos; nl = c.in.find('\n', start)) {
      on_line(std::string_view(c.in).substr(start, nl - start), done);
      start = nl + 1;
    }
    c.in.erase(0, start);
  }

  void on_line(std::string_view line, double done) {
    const cp::util::Json j = cp::util::Json::parse(line);
    const std::string id = j.get_string("id", "");
    if (id.size() < 2 || id[0] != prefix_) return;  // not this phase's request
    const std::size_t idx = std::stoull(id.substr(1));
    if (idx >= out_->size()) return;
    Outcome& o = (*out_)[idx];
    if (++o.answers > 1) return;
    ++answered_;
    o.done = done;
    o.status = j.get_string("status", "");
    o.hash = std::stoull(j.get_string("library_hash", "0"), nullptr, 16);
    o.attempts = j.get_int("attempts", 0);
    o.delivered = j.get_int("patterns", 0) + j.get_int("topologies", 0);
    o.queue_wait_ms = j.get_number("queue_wait_ms", 0);
    o.service_ms = j.get_number("service_ms", 0);
    o.total_ms = j.get_number("total_ms", 0);
    o.cache_hit = j.get_bool("cache_hit", false);
    o.deduped = j.get_bool("deduped", false);
    o.degraded = j.get_bool("degraded", false);
    if (on_answer_) on_answer_(idx);
  }

  std::vector<Conn> conns_;
  char prefix_ = '?';
  std::vector<Outcome>* out_ = nullptr;
  std::size_t answered_ = 0;
  std::function<void(std::size_t)> on_answer_;
};

/// A failed, refused or unanswered request misses every latency limit.
std::vector<double> due_latencies(const std::vector<Outcome>& v) {
  std::vector<double> ms;
  for (const Outcome& o : v) {
    if (o.sent == 0) continue;
    ms.push_back(o.ok() ? due_latency_ms(o.due, o.done) : std::numeric_limits<double>::infinity());
  }
  return ms;
}

double pct_of(long long part, long long whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

/// The traced run's in-process replay: the same requests through the layer
/// entry points the worker calls (wire codec, result cache, sample,
/// legalize) plus a DRC check, with spans sharing the request id. Returns
/// how many payload hashes matched the tier's answers.
struct ReplayStats {
  long long requests = 0, matched = 0;
  double wall_s = 0;
  double codec_s = 0;
};

ReplayStats replay_in_process(cp::core::ChatPattern& chat, const std::vector<std::string>& lines,
                              const std::vector<Outcome>& tier, Tracer& tracer) {
  ReplayStats st;
  cp::serve::PatternCache cache(256);
  const double t_start = now_s();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Tracer::Scope request_scope(tracer, "serve.request", "r" + std::to_string(i));
    double t0 = now_s();
    cp::serve::GenerationRequest r;
    {
      const Tracer::Scope s(tracer, "serve.wire_decode");
      r = cp::serve::GenerationRequest::from_json(cp::util::Json::parse(lines[i]));
    }
    st.codec_s += now_s() - t0;
    const std::uint64_t key = r.content_hash();
    std::shared_ptr<const cp::serve::GenerationPayload> payload;
    {
      const Tracer::Scope s(tracer, "serve.cache_lookup");
      payload = cache.lookup(key);
    }
    if (!payload) {
      auto fresh = std::make_shared<cp::serve::GenerationPayload>();
      const int condition = cp::dataset::style_index(r.style);
      const cp::legalize::Legalizer& legalizer = chat.legalizer(condition);
      cp::diffusion::SampleConfig sc;
      sc.rows = r.rows;
      sc.cols = r.cols;
      sc.condition = condition;
      sc.sample_steps = r.sample_steps;
      sc.polish_rounds = r.polish_rounds;
      sc.schedule_kind = cp::diffusion::ScheduleKind::kNoiseUniform;
      const cp::util::Rng root(r.seed);
      for (std::uint64_t k = 0; static_cast<int>(fresh->patterns.size()) < r.count && k < 256; ++k) {
        cp::squish::Topology t;
        {
          const Tracer::Scope s(tracer, "diffusion.sample");
          cp::util::Rng rng = root.fork(k);
          t = chat.sampler().sample(sc, rng);
        }
        cp::legalize::LegalizeResult lr;
        {
          const Tracer::Scope s(tracer, "legalize.legalize");
          lr = legalizer.legalize(t, r.width_nm, r.height_nm);
        }
        if (!lr.ok()) continue;
        {
          const Tracer::Scope s(tracer, "drc.check");
          if (!cp::drc::check(*lr.pattern, legalizer.rules()).clean()) continue;
        }
        fresh->patterns.push_back(std::move(*lr.pattern));
      }
      payload = fresh;
      const Tracer::Scope s(tracer, "serve.cache_insert");
      cache.insert(key, payload);
    }
    t0 = now_s();
    {
      const Tracer::Scope s(tracer, "serve.wire_encode");
      cp::serve::GenerationResult res;
      res.id = r.id;
      res.status = cp::serve::RequestStatus::kOk;
      res.payload = payload;
      (void)res.to_json().dump();
    }
    st.codec_s += now_s() - t0;
    ++st.requests;
    st.matched += cp::serve::payload_hash(*payload) == tier[i].hash ? 1 : 0;
  }
  st.wall_s = now_s() - t_start;
  return st;
}

/// One measured pass over the tier: its open-loop and saturation requests,
/// and the load generator's lateness in the open loop.
struct Attempt {
  std::vector<Outcome> open, sat;
  std::vector<std::string> open_lines;
  std::vector<double> open_ms;  // due to answer; infinite when not ok
  std::vector<double> sat_ms;   // send to answer of the ok answers before each stop
  long long sat_ok = 0;         // ok answers before each round's stop
  double lateness_p50 = 0, lateness_p99 = 0;
  std::optional<double> open_p99;

  void finish() {
    open_ms = due_latencies(open);
    open_p99 = tail_percentile(open_ms, 99);
    std::vector<double> lateness;
    for (const Outcome& o : open) lateness.push_back((o.sent - o.due) * 1e3);
    lateness_p50 = median(lateness);
    lateness_p99 = tail_percentile(lateness, 99).value_or(1e9);
  }

  /// A pause of the whole machine delays the generator and the tier alike,
  /// and due-time latency charges it. The generator has fallen behind, and
  /// its latencies are not the tier's, when its typical send is late or its
  /// own delays make up half of the tail it reports.
  bool valid() const { return lateness_p50 <= 1.0 && open_p99 && lateness_p99 <= 0.5 * *open_p99; }

  cp::util::Json json() const {
    cp::util::Json j;
    j["open_loop"] = count_phase(open).json();
    j["saturation"] = count_phase(sat).json();
    j["lateness_p50_ms"] = lateness_p50;
    j["lateness_p99_ms"] = lateness_p99;
    j["open_p50_ms"] = median(open_ms);
    j["open_p99_ms"] = open_p99.value_or(0.0);
    j["valid"] = valid();
    return j;
  }
};

}  // namespace

RunResult run_serve(const Options& options, Tracer& tracer) {
  RunResult result;
  const std::string dir = options.workdir + "/tier";
  ContentSource source(options.seed);
  std::vector<Content> contents;  // every content this run sends, all distinct

  // Set-up: the serving tier's start, and a spare tier's before each later
  // round (below), so set-up is sampled across the run like the other
  // figures.
  std::vector<double> setup_s;
  Tier tier(options, dir);
  setup_s.push_back(tier.start());
  LoadGen gen(tier.port());
  const double grace_s = 30;
  auto fresh_line = [&](char prefix, std::size_t n, Outcome& o) {
    o.content = static_cast<int>(contents.size());
    contents.push_back(source.next());
    return request_line(std::string(1, prefix) + std::to_string(n), contents.back());
  };

  // The measured part: kRounds rounds, each a slice of the open loop at a
  // fixed rate, then closed-loop saturation for a share of the run length.
  // Interleaved, both sample the host across the whole run, not one
  // stretch of it. When the load generator fell behind in the open loop,
  // the measured part is run again, on fresh contents.
  const std::vector<double> due = open_loop_schedule(options.seed, kOpenRate, kOpenRequests);
  std::vector<Attempt> attempts;
  while (attempts.empty() || (!attempts.back().valid() && static_cast<int>(attempts.size()) < kAttempts)) {
    const char open_prefix = static_cast<char>('o' + attempts.size());
    const char sat_prefix = static_cast<char>('s' + attempts.size());
    Attempt& at = attempts.emplace_back();
    at.open.resize(kOpenRequests);
    for (std::size_t i = 0; i < at.open.size(); ++i) at.open_lines.push_back(fresh_line(open_prefix, i, at.open[i]));
    std::vector<int> sat_content;
    auto sat_line = [&](std::size_t n) {
      Outcome o;
      std::string line = fresh_line(sat_prefix, n, o);
      sat_content.push_back(o.content);
      return line;
    };
    constexpr std::size_t per_round = kOpenRequests / kRounds;
    for (std::size_t r = 0; r < kRounds; ++r) {
      if (r > 0) {
        Tier spare(options, dir + "/spare");  // started and stopped while the serving tier idles
        setup_s.push_back(spare.start());
      }
      gen.open_loop(open_prefix, at.open_lines, due, r * per_round, per_round, at.open, grace_s);
      at.sat_ok += gen.closed_loop(sat_prefix, sat_line, kWindow, options.seconds / kRounds, at.sat,
                                   grace_s, at.sat_ms);
    }
    for (std::size_t n = 0; n < at.sat.size() && n < sat_content.size(); ++n) at.sat[n].content = sat_content[n];
    at.finish();
  }
  const Attempt& timed = attempts.back();
  const std::vector<Outcome>& first = attempts.front().open;

  // Determinism re-check: the first open-loop contents again (long evicted
  // from the tier's caches) must come back bit-identical.
  std::vector<Outcome> recheck;
  std::vector<std::string> recheck_lines;
  for (int i = 0; i < kRecheck; ++i) {
    const int content = first[static_cast<std::size_t>(i)].content;
    recheck_lines.push_back(request_line("v" + std::to_string(i), contents[static_cast<std::size_t>(content)]));
  }
  gen.batch('v', recheck_lines, 1, recheck, grace_s);
  for (int i = 0; i < kRecheck && i < static_cast<int>(recheck.size()); ++i) {
    recheck[static_cast<std::size_t>(i)].content = first[static_cast<std::size_t>(i)].content;
  }

  const cp::util::Json stats = command(tier.port(), "stats");
  const double tier_rss = tier.peak_rss_mb_all();
  tier.stop();
  const double journal_bytes =
      static_cast<double>(std::filesystem::file_size(tier.journal_path()));

  // ---- checks ----
  std::vector<const std::vector<Outcome>*> phases;
  for (const Attempt& at : attempts) {
    phases.push_back(&at.open);
    phases.push_back(&at.sat);
    const PhaseCount c_open = count_phase(at.open), c_sat = count_phase(at.sat);
    result.check(c_open.sent == kOpenRequests && c_open.unanswered == 0 && c_open.duplicates == 0,
                 "open loop: every request answered exactly once");
    result.check(c_sat.unanswered == 0 && c_sat.duplicates == 0,
                 "saturation: every request answered exactly once");
  }
  phases.push_back(&recheck);
  const PhaseCount c_re = count_phase(recheck);
  result.check(c_re.sent == kRecheck && c_re.unanswered == 0 && c_re.duplicates == 0,
               "re-check: every request answered exactly once");
  result.check(stats.get_int("double_completes", -1) == 0, "stats: double_completes != 0");
  result.check(stats.get_int("worker_restarts", -1) == 0, "stats: worker_restarts != 0");
  std::vector<std::uint64_t> hash_of(contents.size(), 0);
  long long mismatched = 0;
  for (const std::vector<Outcome>* v : phases) {
    for (const Outcome& o : *v) {
      if (!o.ok() || o.content < 0) continue;
      std::uint64_t& h = hash_of[static_cast<std::size_t>(o.content)];
      if (h == 0) h = o.hash;
      else if (h != o.hash) ++mismatched;
    }
  }
  result.check(mismatched == 0, cp::util::format("%lld answers disagree with an earlier answer for the same content", mismatched));
  // The combined hash covers the first open loop's contents, which the seed
  // fixes, so it is identical across runs of one seed.
  std::uint64_t combined = kFnvBasis;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kOpenRequests); ++i) combined = fnv1a(combined, hash_of[i]);
  const std::optional<double> sat_p99 = tail_percentile(timed.sat_ms, 99);
  result.check(timed.open_p99.has_value(), "open loop: too few requests for a p99");
  result.check(sat_p99.has_value(), "saturation: too few answers for a p99");
  if (!timed.valid()) {
    result.invalid = cp::util::format(
        "the load generator fell behind in the open loop of all %d attempts (last: lateness p50 "
        "%.2f ms, p99 %.2f ms)", kAttempts, timed.lateness_p50, timed.lateness_p99);
  }

  // ---- figures ----
  long long tries = 0, delivered = 0, dedup = 0, answered_ok = 0, degraded = 0, rejected = 0;
  for (const std::vector<Outcome>* v : phases) {
    if (v == &recheck) continue;
    for (const Outcome& o : *v) {
      if (o.answers == 0) continue;
      degraded += o.degraded ? 1 : 0;
      rejected += o.status == "rejected" ? 1 : 0;
      if (!o.ok()) continue;
      ++answered_ok;
      tries += o.attempts;
      delivered += o.cache_hit || o.deduped ? 0 : o.delivered;
      dedup += o.deduped ? 1 : 0;
    }
  }
  std::vector<double> queue_wait, service, frontend;
  for (const Outcome& o : timed.open) {
    if (!o.ok()) continue;
    queue_wait.push_back(o.queue_wait_ms);
    service.push_back(o.service_ms);
    frontend.push_back((o.done - o.sent) * 1e3 - o.total_ms);
  }
  long long timed_ok = 0, timed_hits = 0;
  for (const std::vector<Outcome>* v : {&timed.open, &timed.sat}) {
    for (const Outcome& o : *v) {
      if (!o.ok()) continue;
      ++timed_ok;
      timed_hits += o.cache_hit ? 1 : 0;
    }
  }

  for (const std::vector<Outcome>* v : phases) {
    const PhaseCount c = count_phase(*v);
    result.attempted += c.sent;
    result.failed += c.bad();
  }
  result.failed += mismatched;
  auto& m = result.metrics;
  m["setup_s"] = median(setup_s);
  m["patterns_per_s"] = static_cast<double>(timed.sat_ok) / options.seconds;
  // The user-facing latency at a fixed rate, timed from when each request
  // was due. The tail is saturation's: the open loop's p99 moved with how
  // often the host preempted the VM (see README.md).
  m["p50_ms"] = median(timed.open_ms);
  m["tail_ms"] = sat_p99.value_or(0.0);
  m["serve.open_p99_ms"] = timed.open_p99.value_or(0.0);
  m["peak_rss_mb"] = tier_rss;
  m["legality_pct"] = pct_of(delivered, tries);

  m["serve.queue_wait_ms.p50"] = queue_wait.empty() ? 0.0 : median(queue_wait);
  m["serve.queue_wait_ms.p99"] = tail_percentile(queue_wait, 99).value_or(0.0);
  m["serve.service_ms.p50"] = service.empty() ? 0.0 : median(service);
  m["serve.frontend_ms.p50"] = frontend.empty() ? 0.0 : median(frontend);
  m["serve.frontend_ms.p99"] = tail_percentile(frontend, 99).value_or(0.0);
  m["serve.attempts_per_request"] = delivered == 0 ? 0.0 : static_cast<double>(tries) / static_cast<double>(delivered);
  m["serve.cache_hit_pct"] = pct_of(timed_hits, timed_ok);
  m["serve.deduped_pct"] = pct_of(dedup, answered_ok);
  m["serve.journal_bytes_per_request"] =
      journal_bytes / static_cast<double>(std::max<long long>(1, stats.get_int("accepted", 1)));
  m["serve.rejected"] = static_cast<double>(rejected);
  m["serve.degraded"] = static_cast<double>(degraded);
  m["serve.worker_restarts"] = static_cast<double>(stats.get_int("worker_restarts", 0));
  m["serve.double_completes"] = static_cast<double>(stats.get_int("double_completes", 0));
  m["proc.cpu_s"] = cpu_seconds();
  m["proc.rss_mb"] = tier_rss;
  m["core.train_s"] = median(setup_s);

  if (options.trace) {
    // In-process replay of the first open-loop requests through the layer
    // entry points, untraced, traced and untraced again (the overhead
    // reference, balanced for warm-up order), with the workers' backend
    // configuration.
    cp::core::ChatPatternConfig config;
    config.train_clips_per_class = kTrainClips;
    config.draws_per_bucket = kDraws;
    cp::core::ChatPattern chat(config);
    const std::vector<std::string>& lines = attempts.front().open_lines;
    const std::vector<std::string> replay(lines.begin(), lines.begin() + kReplay);
    Tracer off(false);
    const ReplayStats before = replay_in_process(chat, replay, first, off);
    const ReplayStats traced = replay_in_process(chat, replay, first, tracer);
    const ReplayStats after = replay_in_process(chat, replay, first, off);
    result.check(traced.matched == traced.requests,
                 cp::util::format("in-process replay reproduced %lld of %lld tier payloads",
                                  traced.matched, traced.requests));
    m["trace.overhead_pct"] = (traced.wall_s / (0.5 * (before.wall_s + after.wall_s)) - 1.0) * 100.0;
    m["serve.parse_us"] = traced.codec_s * 1e6 / static_cast<double>(traced.requests);
    m["diffusion.sample_ms"] = tracer.mean_ms("diffusion.sample");
    m["diffusion.samples"] = static_cast<double>(tracer.count("diffusion.sample"));
    m["legalize.ms"] = tracer.mean_ms("legalize.legalize");
    m["legalize.calls"] = static_cast<double>(tracer.count("legalize.legalize"));
    m["drc.check_ms"] = tracer.mean_ms("drc.check");
    m["drc.checks"] = static_cast<double>(tracer.count("drc.check"));
    m["legalize.ok_pct"] = pct_of(tracer.count("drc.check"), tracer.count("legalize.legalize"));
    result.details["replay_requests"] = traced.requests;
  }

  auto& d = result.details;
  cp::util::JsonArray attempts_json;
  for (const Attempt& at : attempts) attempts_json.push_back(at.json());
  d["attempts"] = cp::util::Json(std::move(attempts_json));
  d["recheck"] = c_re.json();
  d["open_rate_per_s"] = kOpenRate;
  d["open_requests"] = kOpenRequests;
  d["rounds"] = kRounds;
  d["saturation_s"] = options.seconds;
  d["saturation_window_per_conn"] = kWindow;
  d["combined_library_hash"] = cp::util::format("%016llx", static_cast<unsigned long long>(combined));
  d["setup_s"] = samples_json(setup_s);
  d["tier_stats"] = stats;
  return result;
}

}  // namespace perfbench
