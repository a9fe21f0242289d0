// Workload nl_library: the paper's front door. One caller sends natural-
// language requests to the ChatPattern agent and waits for each answer
// (closed loop, serial). A session asks for three sub-tasks:
//   * 40 patterns of 128x128 in Layer-10003 (the fixed-size library whose
//     diversity H is reported),
//   * 14 patterns of 128x128 in Layer-10001 at a tight 1400x1400 nm, where
//     first-try legalization mostly fails, so the agent's regenerate,
//     modify and drop recovery runs,
//   * one 512x512 out-painting pattern (49 model calls).
// Sessions repeat, with fresh seeds, until --seconds of session time have
// been measured and at least kSessions ran; every figure is the median
// over sessions, so a session slowed by a neighbour on the machine does
// not move it. Set-up is timed once per session, so it is sampled across
// the run too: the serving facade's build before the first session, and a
// spare facade's build, in a child process, before each later one.
//
// The session is the facade's own: a ChatSession over the facade's tool
// registry, store and experience, exactly as ChatPattern::customize builds
// it, except that each tool is wrapped so the benchmark can time the
// agent's calls into the diffusion, extension and legalize layers.

#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "agent/chat_session.h"
#include "agent/llm_client.h"
#include "common.h"
#include "core/chatpattern.h"
#include "dataset/style.h"
#include "drc/checker.h"
#include "inputs.h"
#include "stats.h"
#include "util/strings.h"

namespace perfbench {
namespace {

constexpr int kSessions = 5;
constexpr double kTailPercentile = 80;  // >= 50 model calls per session (55 at the least)

/// Per-call accounting of the agent's tool calls, gathered by the wrapper.
struct ToolLog {
  std::vector<double> model_call_ms;  // generation, modification, extension
  long long legalize_calls = 0;
  long long legalize_ok = 0;
  long long extension_model_calls = 0;
};

/// The facade's tools, each wrapped with a timer (and, when tracing, a span
/// named after the layer the tool calls into).
cp::agent::ToolRegistry wrap_tools(const cp::agent::ToolRegistry& inner, ToolLog& log,
                                   Tracer& tracer) {
  cp::agent::ToolRegistry out;
  for (const std::string& name : inner.names()) {
    cp::agent::ToolSpec spec = inner.spec(name);
    const cp::agent::ToolFn fn = spec.fn;
    const bool model_call = name == "topology_generation" || name == "topology_modification" ||
                            name == "topology_extension";
    const std::string span = name == "topology_generation"     ? "diffusion.sample"
                             : name == "topology_modification" ? "diffusion.modify"
                             : name == "topology_extension"    ? "extension.outpaint"
                             : name == "topology_legalization" ? "legalize.legalize"
                                                               : "agent." + name;
    spec.fn = [fn, name, span, model_call, &log, &tracer](const cp::util::Json& args) {
      const Tracer::Scope scope(tracer, span);
      const double t0 = now_s();
      cp::agent::ToolResult r = fn(args);
      const double ms = (now_s() - t0) * 1e3;
      if (model_call) log.model_call_ms.push_back(ms);
      if (name == "topology_legalization") {
        ++log.legalize_calls;
        log.legalize_ok += r.ok ? 1 : 0;
      }
      if (name == "topology_extension" && r.ok) {
        log.extension_model_calls += r.payload.get_int("model_calls", 0);
      }
      return r;
    };
    out.register_tool(std::move(spec));
  }
  return out;
}

struct SessionOutcome {
  double wall_s = 0;
  long long requested = 0, produced = 0, dropped = 0, clean = 0;
  long long tool_calls = 0, regenerations = 0, modifications = 0;
  long long legalize_calls = 0, legalize_ok = 0;
  std::vector<double> model_call_ms;
  double diversity_h = 0;
  std::uint64_t library_hash = kFnvBasis;

  double patterns_per_s() const { return static_cast<double>(clean) / wall_s; }
  double legality_pct() const {
    return legalize_calls == 0 ? 0.0 : 100.0 * static_cast<double>(legalize_ok) /
                                           static_cast<double>(legalize_calls);
  }
};

/// Run one session and check its output: every delivered pattern is
/// DRC-clean under its style's rules, and produced + dropped = requested.
SessionOutcome run_session(cp::core::ChatPattern& chat, const cp::agent::ToolRegistry& tools,
                           ToolLog& log, const std::string& request, Tracer& tracer,
                           RunResult& result) {
  cp::agent::ChatSession session(&tools, std::make_unique<cp::agent::ScriptedBrain>(),
                                 &chat.store(), &chat.experience(), chat.config().window);
  SessionOutcome o;
  const ToolLog before = log;
  cp::agent::SessionReport report;
  {
    const Tracer::Scope scope(tracer, "agent.session", "session");
    const double t0 = now_s();
    report = session.handle(request);
    o.wall_s = now_s() - t0;
  }
  o.model_call_ms.assign(log.model_call_ms.begin() + static_cast<long>(before.model_call_ms.size()),
                         log.model_call_ms.end());
  o.legalize_calls = log.legalize_calls - before.legalize_calls;
  o.legalize_ok = log.legalize_ok - before.legalize_ok;
  result.check(report.subtasks.size() == 3,
               cp::util::format("session parsed into %zu sub-tasks, expected 3",
                                report.subtasks.size()));
  for (std::size_t i = 0; i < report.subtasks.size(); ++i) {
    const cp::agent::SubtaskReport& sub = report.subtasks[i];
    const cp::agent::ExecutionStats& st = sub.execution.stats;
    o.requested += st.requested;
    o.produced += st.produced;
    o.dropped += st.dropped;
    o.tool_calls += st.tool_calls;
    o.regenerations += st.regenerations;
    o.modifications += st.modifications;
    result.check(st.produced + st.dropped == st.requested,
                 cp::util::format("sub-task %zu: produced %lld + dropped %lld != requested %lld",
                                  i, st.produced, st.dropped, st.requested));
    result.check(static_cast<long long>(sub.execution.pattern_ids.size()) == st.produced,
                 "sub-task " + std::to_string(i) + ": delivered ids != produced count");
    const int style = cp::dataset::style_index(sub.requirement.style);
    const cp::drc::DesignRules& rules = chat.legalizer(style).rules();
    for (const std::string& id : sub.execution.pattern_ids) {
      const cp::squish::SquishPattern& p = chat.store().pattern(id);
      bool clean = false;
      {
        const Tracer::Scope scope(tracer, "drc.check", "validate");
        clean = cp::drc::check(p, rules).clean();
      }
      o.clean += clean ? 1 : 0;
      result.check(clean, "sub-task " + std::to_string(i) + ": pattern " + id + " is not DRC-clean");
      for (int r = 0; r < p.topology.rows(); ++r) {
        for (int c = 0; c < p.topology.cols(); ++c) {
          o.library_hash = fnv1a(o.library_hash, p.topology.at(r, c));
        }
      }
    }
  }
  if (!report.subtasks.empty()) o.diversity_h = chat.library_of(report.subtasks[0]).diversity();
  return o;
}

/// Seconds to build a spare facade, timed in a child process so that it
/// adds nothing to this process's memory or state.
double time_build_in_child(const cp::core::ChatPatternConfig& config) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int rc = 0;
    try {
      const double t0 = now_s();
      const cp::core::ChatPattern chat(config);
      const double s = now_s() - t0;
      rc = ::write(fds[1], &s, sizeof(s)) == static_cast<ssize_t>(sizeof(s)) ? 0 : 1;
    } catch (...) {
      rc = 1;
    }
    ::_exit(rc);
  }
  ::close(fds[1]);
  double s = 0;
  const ssize_t n = ::read(fds[0], &s, sizeof(s));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof(s)) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("building a spare facade in a child process failed");
  }
  return s;
}

template <typename F>
double median_of(const std::vector<SessionOutcome>& v, F f) {
  std::vector<double> x;
  for (const SessionOutcome& o : v) x.push_back(f(o));
  return median(x);
}

}  // namespace

RunResult run_nl_library(const Options& options, Tracer& tracer) {
  RunResult result;
  cp::core::ChatPatternConfig config;  // the facade's defaults; backend seed fixed

  // Set-up: the facade trains its whole backend at construction.
  std::vector<double> setup_s;
  std::unique_ptr<cp::core::ChatPattern> chat;
  {
    const Tracer::Scope scope(tracer, "core.train", "setup");
    const double t0 = now_s();
    chat = std::make_unique<cp::core::ChatPattern>(config);
    setup_s.push_back(now_s() - t0);
  }

  ToolLog log;
  const cp::agent::ToolRegistry tools = wrap_tools(chat->tools(), log, tracer);
  std::vector<SessionOutcome> sessions;
  if (options.trace) {
    // One traced session, bracketed by the same session untraced on a
    // second fresh facade before and after (the tracing-overhead
    // reference, balanced for warm-up order). The traced session must
    // deliver the untraced library bit for bit.
    cp::core::ChatPattern reference(config);
    Tracer off(false);
    ToolLog ref_log;
    const cp::agent::ToolRegistry ref_tools = wrap_tools(reference.tools(), ref_log, off);
    const std::string request = nl_session_request(options.seed, 0);
    RunResult ignored;
    const SessionOutcome before = run_session(reference, ref_tools, ref_log, request, off, ignored);
    sessions.push_back(run_session(*chat, tools, log, request, tracer, result));
    const SessionOutcome after = run_session(reference, ref_tools, ref_log, request, off, ignored);
    result.check(sessions[0].library_hash == before.library_hash,
                 "traced session delivered a different library than the untraced one");
    result.metrics["trace.overhead_pct"] =
        (sessions[0].wall_s / (0.5 * (before.wall_s + after.wall_s)) - 1.0) * 100.0;
  } else {
    double measured = 0;
    while (static_cast<int>(sessions.size()) < kSessions || measured < options.seconds) {
      if (!sessions.empty()) setup_s.push_back(time_build_in_child(config));
      const std::string request = nl_session_request(options.seed, static_cast<int>(sessions.size()));
      sessions.push_back(run_session(*chat, tools, log, request, tracer, result));
      measured += sessions.back().wall_s;
    }
  }

  SessionOutcome total;
  for (const SessionOutcome& o : sessions) {
    total.wall_s += o.wall_s;
    total.requested += o.requested;
    total.produced += o.produced;
    total.dropped += o.dropped;
    total.clean += o.clean;
    total.tool_calls += o.tool_calls;
    total.regenerations += o.regenerations;
    total.modifications += o.modifications;
    const std::optional<double> tail = tail_percentile(o.model_call_ms, kTailPercentile);
    result.check(tail.has_value(), "too few model calls in a session for its tail percentile");
  }
  result.attempted = total.requested;
  result.failed = total.requested - total.clean - total.dropped;

  auto& m = result.metrics;
  m["setup_s"] = median(setup_s);
  m["patterns_per_s"] = median_of(sessions, [](const SessionOutcome& o) { return o.patterns_per_s(); });
  m["p50_ms"] = median_of(sessions, [](const SessionOutcome& o) { return median(o.model_call_ms); });
  m["tail_ms"] = median_of(sessions, [](const SessionOutcome& o) {
    return tail_percentile(o.model_call_ms, kTailPercentile).value_or(0.0);
  });
  m["peak_rss_mb"] = peak_rss_mb();
  m["legality_pct"] = median_of(sessions, [](const SessionOutcome& o) { return o.legality_pct(); });
  m["diversity_h"] = median_of(sessions, [](const SessionOutcome& o) { return o.diversity_h; });

  // Per-layer figures (meaningful in the traced run).
  m["core.train_s"] = median(setup_s);
  m["agent.session_self_s"] = tracer.self_s("agent.session");
  m["agent.tool_calls"] = static_cast<double>(total.tool_calls);
  m["agent.regenerations"] = static_cast<double>(total.regenerations);
  m["agent.modifications"] = static_cast<double>(total.modifications);
  m["agent.drops"] = static_cast<double>(total.dropped);
  m["diffusion.sample_ms"] = tracer.mean_ms("diffusion.sample");
  m["diffusion.samples"] = static_cast<double>(tracer.count("diffusion.sample"));
  m["diffusion.modify_ms"] = tracer.mean_ms("diffusion.modify");
  m["diffusion.modify_calls"] = static_cast<double>(tracer.count("diffusion.modify"));
  m["extension.outpaint_s"] = tracer.total_s("extension.outpaint");
  m["extension.model_calls"] = static_cast<double>(log.extension_model_calls);
  m["legalize.ms"] = tracer.mean_ms("legalize.legalize");
  m["legalize.calls"] = static_cast<double>(log.legalize_calls);
  m["legalize.ok_pct"] = m["legality_pct"];
  m["drc.check_ms"] = tracer.mean_ms("drc.check");
  m["drc.checks"] = static_cast<double>(tracer.count("drc.check"));
  m["proc.cpu_s"] = cpu_seconds();
  m["proc.rss_mb"] = m["peak_rss_mb"];

  auto& d = result.details;
  cp::util::JsonArray per_session;
  for (const SessionOutcome& o : sessions) {
    cp::util::Json j;
    j["wall_s"] = o.wall_s;
    j["requested"] = o.requested;
    j["produced"] = o.produced;
    j["dropped"] = o.dropped;
    j["drc_clean"] = o.clean;
    j["legalize_calls"] = o.legalize_calls;
    j["model_calls"] = static_cast<long long>(o.model_call_ms.size());
    j["patterns_per_s"] = o.patterns_per_s();
    j["legality_pct"] = o.legality_pct();
    j["diversity_h"] = o.diversity_h;
    per_session.push_back(std::move(j));
  }
  d["sessions"] = cp::util::Json(std::move(per_session));
  d["setup_s"] = samples_json(setup_s);
  d["tail_percentile"] = kTailPercentile;
  d["request"] = nl_session_request(options.seed, 0);
  return result;
}

}  // namespace perfbench
