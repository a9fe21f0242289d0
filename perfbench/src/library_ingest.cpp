// Workload library_ingest: the persistent pattern library. A seeded
// synthetic GDSII layout (tens of MB) is written before timing; the timed
// part repeats rounds for the run length, each streaming the layout into a
// fresh on-disk store (GDS stream -> window -> squish -> store append),
// reopening that store (journal replay) and running a fixed predicate-query
// set against it. The only workload that exercises the io (GDSII
// streaming) and pattlib (CPPL store) layers.

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "io/gds_stream.h"
#include "pattlib/ingest.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr int kStructures = 120;   // about 22 MB of GDSII
constexpr int kMinRounds = 5;
constexpr int kQueries = 13200;       // the fixed query set, one pass per round
constexpr int kSegmentSize = 1200;    // queries per latency segment: a p99 with 12 beyond
constexpr int kAppendProbe = 2000; // single appends timed in the traced run

/// Write the input layout from a child process, so that building it does
/// not count towards the measured process's peak memory.
void write_input(const std::string& path, std::uint64_t seed) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 0;
    try {
      cp::io::write_gds(path, synthetic_layout(seed, kStructures));
    } catch (...) {
      rc = 1;
    }
    ::_exit(rc);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("writing the synthetic GDS failed");
  }
}

/// Median query latency of each round's pass, for the report: the drift
/// within a run behind the segmented median.
std::vector<double> round_p50s(const std::vector<double>& query_ms, std::size_t per_round) {
  std::vector<double> out;
  for (std::size_t i = 0; i + per_round <= query_ms.size(); i += per_round) {
    out.push_back(median(std::vector<double>(query_ms.begin() + static_cast<long>(i),
                                             query_ms.begin() + static_cast<long>(i + per_round))));
  }
  return out;
}

}  // namespace

RunResult run_library_ingest(const Options& options, Tracer& tracer) {
  RunResult result;
  const double run_start = now_s();
  const std::string gds = options.workdir + "/layout.gds";
  write_input(gds, options.seed);
  const double gds_mb = static_cast<double>(std::filesystem::file_size(gds)) / 1e6;

  // GDSII streaming alone (the io layer's share of ingest).
  double stream_s = 0;
  {
    const Tracer::Scope scope(tracer, "io.stream", "stream");
    long long rects = 0;
    const double t0 = now_s();
    const cp::io::StreamStats st = cp::io::stream_gds_structures(
        gds, [&rects](cp::io::GdsStructure&& s) { rects += static_cast<long long>(s.rects.size()); });
    stream_s = now_s() - t0;
    result.check(st.structures == kStructures, "stream: structure count differs from the input");
  }

  // Timed rounds until the run has lasted --seconds. Each round ingests
  // the layout into a fresh store, reopens that store (a library server's
  // set-up) and runs one pass of the fixed query set on the reopened store,
  // so every figure is sampled across the whole run: the host's speed
  // drifts over seconds, and one stretch of it must not set a run's median.
  // The writer of the round stays open as the in-memory reference for the
  // reopened store.
  cp::pattlib::IngestConfig cfg;
  const std::string store_path = options.workdir + "/library.cppl";
  const std::vector<cp::pattlib::Query> queries = query_set(options.seed, kQueries);
  std::vector<double> mb_per_s, appended_per_s, windows_per_s, reopen_s, query_ms;
  cp::pattlib::IngestStats last{};
  std::unique_ptr<cp::pattlib::PatternStore> writer, reopened;
  std::uint64_t first_digest = 0;
  long long wrong = 0, hits = 0, replay_mismatches = 0, digest_mismatches = 0;
  Tracer untraced(false);
  for (int round = 0; round < kMinRounds || now_s() - run_start < options.seconds; ++round) {
    reopened.reset();
    writer.reset();
    std::filesystem::remove(store_path);
    writer = std::make_unique<cp::pattlib::PatternStore>(store_path);
    {
      const Tracer::Scope scope(tracer, "pattlib.ingest", "ingest" + std::to_string(round));
      const double t0 = now_s();
      last = cp::pattlib::ingest_gds(gds, *writer, cfg);
      const double s = now_s() - t0;
      mb_per_s.push_back(static_cast<double>(last.bytes_streamed) / 1e6 / s);
      appended_per_s.push_back(static_cast<double>(last.added) / s);
      windows_per_s.push_back(static_cast<double>(last.windows_kept) / s);
    }
    result.check(last.added + last.deduped == last.windows_kept,
                 "ingest: added + deduplicated != windows kept");
    {
      const Tracer::Scope scope(tracer, "pattlib.reopen", "reopen");
      const double t0 = now_s();
      reopened = std::make_unique<cp::pattlib::PatternStore>(store_path);
      reopen_s.push_back(now_s() - t0);
    }
    if (static_cast<long long>(reopened->size()) != last.added) {
      ++replay_mismatches;
      result.check(false, cp::util::format("reopen: %zu records, %lld appended", reopened->size(),
                                           last.added));
    }

    // Timed: one pass; each result is folded into a digest after its
    // query's timing ends. Spans cover the first round's pass.
    Tracer& t = round == 0 ? tracer : untraced;
    std::uint64_t digest = kFnvBasis;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::vector<std::uint64_t> ids;
      {
        const Tracer::Scope scope(t, "pattlib.query", "q" + std::to_string(i));
        const double t0 = now_s();
        ids = reopened->query(queries[i]);
        query_ms.push_back((now_s() - t0) * 1e3);
      }
      digest = fnv1a(digest, ids.size());
      for (std::uint64_t id : ids) digest = fnv1a(digest, id);
    }

    // Untimed: the first round's answers must equal the writer's in-memory
    // index's; every later round must reproduce them.
    if (round == 0) {
      first_digest = digest;
      for (const cp::pattlib::Query& q : queries) {
        const std::vector<std::uint64_t> ids = reopened->query(q);
        hits += static_cast<long long>(ids.size());
        wrong += ids == writer->query(q) ? 0 : 1;
      }
      result.check(wrong == 0,
                   cp::util::format("%lld queries differ from the in-memory recount", wrong));
      result.check(hits > 0, "the query set matched nothing");
    } else if (digest != first_digest) {
      ++digest_mismatches;
      result.check(false, cp::util::format("round %d: query answers differ from round 0's", round));
    }
  }
  const int rounds = static_cast<int>(reopen_s.size());

  const std::optional<Segmented> seg =
      segmented_latency(query_ms, static_cast<int>(query_ms.size() / kSegmentSize), 99);
  result.check(seg.has_value(), "too few queries for a p99 per segment");
  double query_total_s = 0;
  for (double ms : query_ms) query_total_s += ms / 1e3;

  result.attempted = 2LL * rounds + static_cast<long long>(query_ms.size());
  result.failed = wrong + replay_mismatches + digest_mismatches;
  auto& m = result.metrics;
  m["setup_s"] = median(reopen_s);
  m["patterns_per_s"] = median(appended_per_s);
  m["p50_ms"] = seg ? seg->p50 : 0.0;
  m["tail_ms"] = seg ? seg->tail : 0.0;
  m["peak_rss_mb"] = peak_rss_mb();
  m["ingest_mb_per_s"] = median(mb_per_s);
  m["query_per_s"] = static_cast<double>(query_ms.size()) / query_total_s;

  m["io.stream_mb_per_s"] = gds_mb / stream_s;
  m["pattlib.windows_per_s"] = median(windows_per_s);
  m["pattlib.windows_kept_pct"] =
      100.0 * static_cast<double>(last.windows_kept) / static_cast<double>(std::max(1LL, last.windows_seen));
  m["pattlib.dedup_pct"] =
      100.0 * static_cast<double>(last.deduped) / static_cast<double>(std::max(1LL, last.windows_kept));
  m["pattlib.replay_records_per_s"] = static_cast<double>(reopened->size()) / median(reopen_s);
  m["pattlib.query_ms"] = query_total_s * 1e3 / static_cast<double>(query_ms.size());
  m["proc.cpu_s"] = cpu_seconds();
  m["proc.rss_mb"] = peak_rss_mb();

  if (tracer.enabled()) {
    // Single appends, timed one by one, of the stored patterns into a
    // fresh store: the CPPL append path without the squish work.
    const std::string probe_path = options.workdir + "/append_probe.cppl";
    std::filesystem::remove(probe_path);
    cp::pattlib::PatternStore probe(probe_path);
    const std::size_t n = std::min<std::size_t>(reopened->size(), kAppendProbe);
    for (std::size_t id = 0; id < n; ++id) {
      const cp::pattlib::StoredPattern& e = reopened->at(id);
      const Tracer::Scope scope(tracer, "pattlib.append", "append");
      probe.add(e.pattern, e.meta);
    }
    probe.flush();
    m["pattlib.append_us"] = tracer.mean_ms("pattlib.append") * 1e3;
    // Span recording cost on the query loop, the finest-grained traced
    // phase: after a warm-up pass, the same queries untraced, traced and
    // untraced again.
    auto query_loop = [&](Tracer& t) {
      const double t0 = now_s();
      for (const cp::pattlib::Query& q : queries) {
        const Tracer::Scope scope(t, "pattlib.query_probe", "probe");
        (void)reopened->query(q);
      }
      return now_s() - t0;
    };
    query_loop(untraced);  // warm-up
    const double before = query_loop(untraced);
    const double traced = query_loop(tracer);
    const double after = query_loop(untraced);
    m["trace.overhead_pct"] = (traced / (0.5 * (before + after)) - 1.0) * 100.0;
  }

  auto& d = result.details;
  d["gds_mb"] = gds_mb;
  d["rounds"] = rounds;
  d["windows_seen"] = last.windows_seen;
  d["windows_kept"] = last.windows_kept;
  d["appended"] = last.added;
  d["deduplicated"] = last.deduped;
  d["reopen_s"] = samples_json(reopen_s);
  d["appended_per_s"] = samples_json(appended_per_s);
  d["queries"] = static_cast<long long>(queries.size());
  d["query_p50_per_round"] = samples_json(round_p50s(query_ms, queries.size()));
  d["timed_queries"] = static_cast<long long>(query_ms.size());
  d["query_hits"] = hits;
  std::filesystem::remove(gds);
  return result;
}

}  // namespace perfbench
