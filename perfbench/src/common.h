#pragma once
// Shared plumbing of the benchmark runner: options, the run result every
// workload fills, span recording for the traced run, and process metrics.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "util/json.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    // scratch files of this run (inside the checkout)
  std::string serve_bin;  // the chatpattern_serve binary
};

/// What one run measured. `metrics` holds every figure by name (end-to-end
/// and per-layer alike); run.py selects the ones BENCHMARK.json lists for
/// the run's mode. `details` is free-form evidence for the report file.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> check_failures;
  std::string invalid;  // why the measurement is not valid; empty when it is
  cp::util::Json details = cp::util::Json(cp::util::JsonObject{});

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

/// Repeated samples for the report: the values and, from two on, their
/// quartiles (the within-run spread behind a reported median).
inline cp::util::Json samples_json(const std::vector<double>& v) {
  cp::util::Json j;
  j["samples"] = cp::util::Json(cp::util::JsonArray(v.begin(), v.end()));
  if (v.size() >= 2) {
    const std::array<double, 3> q = quartiles(v);
    j["quartiles"] = cp::util::Json(cp::util::JsonArray(q.begin(), q.end()));
  }
  return j;
}

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), in MB;
/// 0 when the process is gone.
inline double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

/// CPU seconds (user + system) of this process plus its reaped children.
inline double cpu_seconds() {
  auto secs = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  };
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return secs(self) + secs(children);
}

/// Spans recorded by the benchmark around its calls into the program's
/// layers (the traced run only). Kept in memory and written once at exit.
/// Single-threaded: every workload calls the layers from its main thread.
class Tracer {
 public:
  struct Span {
    std::string name;     // "<layer>.<operation>"
    std::string request;  // id shared by the spans of one request
    int parent = -1;      // index of the enclosing span, -1 at the root
    double start_s = 0, end_s = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// RAII span; inert when tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::string request = {}) : tracer_(t) {
      if (!t.enabled_) return;
      index_ = static_cast<int>(t.spans_.size());
      const int parent = t.stack_.empty() ? -1 : t.stack_.back();
      if (request.empty() && parent >= 0) request = t.spans_[static_cast<std::size_t>(parent)].request;
      t.spans_.push_back({std::move(name), std::move(request), parent, now_s(), 0});
      t.stack_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      tracer_.spans_[static_cast<std::size_t>(index_)].end_s = now_s();
      tracer_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  long long count(const std::string& name) const {
    long long n = 0;
    for (const Span& s : spans_) n += s.name == name ? 1 : 0;
    return n;
  }
  double total_s(const std::string& name) const {
    double t = 0;
    for (const Span& s : spans_) t += s.name == name ? s.end_s - s.start_s : 0;
    return t;
  }
  /// Mean duration in ms of the spans called `name` (0 when none ran).
  double mean_ms(const std::string& name) const {
    const long long n = count(name);
    return n == 0 ? 0.0 : total_s(name) * 1e3 / static_cast<double>(n);
  }
  /// Self time of the spans called `name`: their durations minus the time
  /// their direct children cover.
  double self_s(const std::string& name) const {
    double t = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      t += spans_[i].end_s - spans_[i].start_s;
      for (const Span& c : spans_) {
        if (c.parent == static_cast<int>(i)) t -= c.end_s - c.start_s;
      }
    }
    return t;
  }

  /// Write every span as one JSON document (times relative to the first).
  void write(const std::string& path) const {
    if (!enabled_) return;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    cp::util::JsonArray out;
    for (const Span& s : spans_) {
      cp::util::Json j;
      j["name"] = s.name;
      j["request"] = s.request;
      j["parent"] = static_cast<long long>(s.parent);
      j["start_ms"] = (s.start_s - t0) * 1e3;
      j["dur_ms"] = (s.end_s - s.start_s) * 1e3;
      out.push_back(std::move(j));
    }
    std::ofstream(path) << cp::util::Json(std::move(out)).dump() << "\n";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

RunResult run_nl_library(const Options& options, Tracer& tracer);
RunResult run_serve(const Options& options, Tracer& tracer);
RunResult run_library_ingest(const Options& options, Tracer& tracer);

}  // namespace perfbench
