// Each of the benchmark's independent correctness checks, fed a planted
// bad output, must reject it (and accept the matching good output).
//
//   perfbench_checks_test        exit 0 iff every case behaves
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "mc/explorer.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect_rejects(const char* what, const std::string& verdict) {
  std::printf("%-52s %s\n", what, verdict.empty() ? "ACCEPTED (bad)" : "rejected");
  if (verdict.empty()) ++failures;
}

void expect_accepts(const char* what, const std::string& verdict) {
  std::printf("%-52s %s\n", what, verdict.empty() ? "accepted" : verdict.c_str());
  if (!verdict.empty()) ++failures;
}

rqs::scenario::ScenarioSpec fig1_broken5() {
  using rqs::ProcessSet;
  using rqs::scenario::ScheduleEntry;
  rqs::scenario::ScenarioSpec s;
  s.family = rqs::scenario::SystemFamily::kFig1Broken5;
  s.reader_count = 2;
  ScheduleEntry w;
  w.kind = ScheduleEntry::Kind::kWrite;
  w.value = 1;
  w.reachable = ProcessSet{{2}};
  ScheduleEntry r0;
  r0.kind = ScheduleEntry::Kind::kRead;
  r0.client = 0;
  r0.reachable = ProcessSet{{2, 3, 4}};
  ScheduleEntry r1 = r0;
  r1.client = 1;
  r1.reachable = ProcessSet{{0, 1, 3}};
  s.schedule = {w, r0, r1};
  return s;
}

}  // namespace

int main() {
  // storage_steady: a stale read, a slow all-correct op, an op past class 3.
  expect_rejects("stale read", checks::read_value(/*last_written=*/42, /*returned=*/41));
  expect_accepts("fresh read", checks::read_value(42, 42));
  expect_rejects("all-correct read taking 2 rounds", checks::op_rounds(true, 2));
  expect_rejects("degraded op taking 4 rounds", checks::op_rounds(false, 4));
  expect_accepts("degraded read taking 2 rounds", checks::op_rounds(false, 2));

  // Every workload charges an op's verdict to its report: a failing op is
  // counted once in `failed` and makes the run incorrect.
  Report report;
  report.op_verdict(checks::read_value(42, 42));
  report.op_verdict(checks::read_value(42, 41));
  const bool counted = report.failed == 1 && !report.correct;
  std::printf("%-52s %s\n", "stale read counted as a failed op",
              counted ? "counted" : "NOT COUNTED (bad)");
  if (!counted) ++failures;

  // consensus_decide: disagreement, a missing learner, an invented value,
  // a fast-path instance that took 3 delays.
  expect_rejects("two learners that disagree", checks::agreement({7, 8}));
  expect_rejects("a learner that never learned", checks::agreement({7, std::nullopt}));
  expect_accepts("two learners that agree", checks::agreement({7, 7}));
  expect_rejects("decided value nobody proposed", checks::validity(9, {7, 8}));
  expect_accepts("decided a proposed value", checks::validity(8, {7, 8}));
  expect_rejects("fast path learning in 3 delays", checks::fast_path({2, 3}));
  expect_accepts("fast path learning in 2 delays", checks::fast_path({2, 2}));

  // mc_fig1: a clean verdict for kFig1Broken5, and the real one.
  const rqs::scenario::ScenarioSpec spec = fig1_broken5();
  const rqs::mc::McResult real = rqs::mc::explore(spec);
  rqs::mc::McResult clean = real;
  clean.violations.clear();
  expect_rejects("clean verdict for kFig1Broken5", checks::broken5_verdict(spec, clean));
  rqs::mc::McResult cut = real;
  cut.complete = false;
  expect_rejects("incomplete broken-5 exploration", checks::broken5_verdict(spec, cut));
  rqs::mc::McResult bogus = real;
  if (!bogus.violations.empty()) bogus.violations[0].schedule.resize(1);
  expect_rejects("broken-5 schedule that does not reach a violation",
                 checks::broken5_verdict(spec, bogus));
  expect_accepts("real broken-5 verdict", checks::broken5_verdict(spec, real));
  expect_rejects("violation reported as clean", checks::clean_verdict(real));
  rqs::mc::McResult naive;
  naive.complete = true;
  naive.state_digests = {1, 2, 3};
  rqs::mc::McResult reduced = naive;
  reduced.state_digests = {1, 2};
  expect_rejects("DPOR state set differing from naive",
                 checks::same_state_set(naive, reduced));

  // swarm: differing digests, a hunt failure that is not a read inversion,
  // a run whose smallest reproducer is too large.
  expect_rejects("swarm digests that differ", checks::same_digest(0x1234, 0x1235));
  expect_accepts("swarm digests that agree", checks::same_digest(0x1234, 0x1234));
  rqs::scenario::SwarmFailure f;
  f.violations = {"key 0: stale read: read #1 returned bottom"};
  expect_rejects("fig1-hunt failure without a read inversion", checks::hunt_failures({f}));
  f.violations = {"key 0: read inversion: read #2 -> 1 precedes read #3 -> bottom"};
  expect_accepts("fig1-hunt read inversion", checks::hunt_failures({f}));
  expect_rejects("fig1-hunt run with no detection", checks::hunt_outcome(0, 3));
  expect_rejects("smallest fig1-hunt reproducer of 4 entries", checks::hunt_outcome(5, 4));
  expect_accepts("fig1-hunt run with a 3-entry reproducer", checks::hunt_outcome(5, 3));
  expect_rejects("known atomicity fault failing on liveness",
                 checks::known_fault("atomicity", {"liveness: t=3 read never completed"}));
  expect_accepts("known atomicity fault failing as known",
                 checks::known_fault("atomicity", {"atomicity key 0: read #0 returned _|_"}));

  std::printf("%s\n", failures == 0 ? "all checks behave" : "CHECK TESTS FAILED");
  return failures == 0 ? 0 : 1;
}
