// perfbench_selftest: the benchmark's own tests. Covers the statistics it
// reports (tail-percentile rule, median and quartiles, due-time latency)
// and pins its inputs: the Poisson schedule and every workload's inputs
// must be bit-identical for a given seed. Exit code 0 when all pass.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstring>
#include <cstdio>
#include <limits>
#include <string>

#include "inputs.h"
#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

std::uint64_t digest(const std::string& s, std::uint64_t h = kFnvBasis) {
  for (unsigned char c : s) h = fnv1a(h, c);
  return h;
}

std::uint64_t digest(const std::vector<double>& v) {
  std::uint64_t h = kFnvBasis;
  for (double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h = fnv1a(h, bits);
  }
  return h;
}

std::uint64_t digest_layout(const cp::io::GdsLibrary& lib) {
  std::uint64_t h = kFnvBasis;
  for (const cp::io::GdsStructure& s : lib.structures) {
    h = digest(s.name, h);
    h = fnv1a(h, static_cast<std::uint64_t>(s.layer));
    for (const cp::geometry::Rect& r : s.rects) {
      for (cp::geometry::Coord c : {r.x0, r.y0, r.x1, r.y1}) h = fnv1a(h, static_cast<std::uint64_t>(c));
    }
  }
  return h;
}

std::uint64_t digest_queries(const std::vector<cp::pattlib::Query>& qs) {
  std::uint64_t h = kFnvBasis;
  for (const cp::pattlib::Query& q : qs) {
    h = digest(q.style_tag, h);
    h = fnv1a(h, static_cast<std::uint64_t>(q.layer));
    h = digest(std::vector<double>{q.min_density, q.max_density}) ^ h;
  }
  return h;
}

std::uint64_t digest_contents(std::uint64_t seed, int n) {
  ContentSource src(seed);
  std::string all;
  for (int i = 0; i < n; ++i) all += request_line("x" + std::to_string(i), src.next());
  return digest(all);
}

void test_tail_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  expect(samples_beyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  expect(!tail_percentile(v, 99).has_value(), "p99 of 999 samples is not reported");
  v.push_back(1000);
  expect(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(tail_percentile(v, 99).value_or(-1) == 990, "p99 of 1..1000 is 990 (nearest rank)");
  expect(tail_percentile(v, 90).value_or(-1) == 900, "p90 of 1..1000 is 900");
  std::vector<double> small(100, 1.0);
  expect(tail_percentile(small, 90).has_value(), "p90 of 100 samples is reported");
  expect(!tail_percentile(small, 95).has_value(), "p95 of 100 samples is not reported");
  expect(!tail_percentile({}, 50).has_value(), "no percentile of no samples");
  std::vector<double> with_miss(1000, 5.0);
  for (int i = 0; i < 11; ++i) with_miss[static_cast<std::size_t>(i)] = std::numeric_limits<double>::infinity();
  expect(std::isinf(tail_percentile(with_miss, 99).value_or(0)),
         "failed requests (infinite latency) push the p99 past any limit");
}

void test_segmented() {
  std::vector<double> v;
  for (int part = 0; part < 3; ++part) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i * (part == 1 ? 10.0 : 1.0));
  }
  const auto s = segmented_latency(v, 3, 99);
  expect(s.has_value() && near(s->p50, 500.5) && near(s->tail, 990),
         "a slowed segment does not move the segmented median and tail");
  expect(!segmented_latency(std::vector<double>(2999, 1.0), 3, 99).has_value(),
         "segments of 999 samples support no p99");
}

void test_median_quartiles() {
  expect(median({3, 1, 2}) == 2, "median of odd count");
  expect(median({4, 1, 3, 2}) == 2.5, "median of even count");
  // Reference values from Python: statistics.quantiles(v, n=4).
  const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25), "quartiles of 1..10");
  const auto q2 = quartiles({0.9, 1.3, 1.1, 1.0, 1.2});
  expect(near(q2[0], 0.95) && near(q2[1], 1.1) && near(q2[2], 1.25), "quartiles of five samples");
  const auto q3 = quartiles({2, 4});
  expect(near(q3[0], 1.5) && near(q3[1], 3.0) && near(q3[2], 4.5), "quartiles of two samples");
}

void test_due_latency() {
  expect(near(due_latency_ms(10.0, 10.25), 250.0), "latency counts from the due time");
  // A request sent 40 ms late and answered 10 ms after sending waited 50 ms.
  const double due = 1.0, sent = 1.040, done = 1.050;
  expect(near(due_latency_ms(due, done), 50.0) && due_latency_ms(due, done) > (done - sent) * 1e3,
         "generator lateness is charged to the request");
}

void test_schedule() {
  const auto a = open_loop_schedule(7, 100, 20000);
  const auto b = open_loop_schedule(7, 100, 20000);
  expect(a == b, "schedule is bit-identical for one seed");
  expect(a != open_loop_schedule(8, 100, 20000), "schedules differ across seeds");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  expect(increasing, "arrival times increase");
  const double rate = static_cast<double>(a.size()) / a.back();
  expect(rate > 97 && rate < 103, "mean arrival rate matches the requested rate");
}

void test_inputs() {
  expect(nl_session_request(3, 0) == nl_session_request(3, 0), "NL request is deterministic");
  expect(nl_session_request(3, 0) != nl_session_request(4, 0), "NL requests differ across seeds");
  expect(nl_session_request(3, 0) != nl_session_request(3, 1), "NL requests differ across sessions");
  expect(digest_contents(5, 500) == digest_contents(5, 500), "request contents are deterministic");
  expect(digest_contents(5, 500) != digest_contents(6, 500), "request contents differ across seeds");
  expect(digest_layout(synthetic_layout(5, 3)) == digest_layout(synthetic_layout(5, 3)),
         "synthetic layout is deterministic");
  expect(digest_layout(synthetic_layout(5, 3)) != digest_layout(synthetic_layout(6, 3)),
         "synthetic layouts differ across seeds");
  expect(digest_queries(query_set(5, 100)) == digest_queries(query_set(5, 100)),
         "query set is deterministic");
}

/// Pinned digests of seed 1's inputs: a change to any input generator
/// changes what the benchmark measures and must show here.
void test_pinned_inputs() {
  const std::uint64_t got[] = {
      digest(nl_session_request(1, 0)), digest_contents(1, 2000),
      digest(open_loop_schedule(1, 150, 3000)), digest_layout(synthetic_layout(1, 2)),
      digest_queries(query_set(1, 1200))};
  const std::uint64_t want[] = {0x5211f683927aad8dULL, 0xd789cc007bbb6769ULL,
                                0x1d919c5c07955f7dULL, 0xe0828b2c62ae9343ULL,
                                0x9ff42472d12bd5f6ULL};
  for (std::size_t i = 0; i < std::size(got); ++i) {
    if (got[i] != want[i]) {
      std::printf("pinned input %zu: digest %016llx\n", i, static_cast<unsigned long long>(got[i]));
    }
    expect(got[i] == want[i], "pinned digest of seed 1's input " + std::to_string(i));
  }
}

}  // namespace

int main() {
  test_tail_rule();
  test_median_quartiles();
  test_segmented();
  test_due_latency();
  test_schedule();
  test_inputs();
  test_pinned_inputs();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "selftest passed" : "selftest FAILED",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
