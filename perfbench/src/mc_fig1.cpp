// mc_fig1: mc::explore of the Fig. 1 three-entry spec (a write seen by
// server 2 only, then two reads from {2,3,4} and {0,1,3}) on the greedy
// broken-5 system and on the repaired fast5 system, plus explore_roles over
// the small n = 4 anchor spec with one amnesiac server, so role branching
// is timed too. A round explores all three (the role branches kRoleRepeats
// times); the seed picks the written value (the explored state space does
// not depend on it).
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "mc/explorer.hpp"

namespace perfbench {

namespace {

using rqs::ProcessSet;
using rqs::Value;
using rqs::mc::McOptions;
using rqs::mc::McResult;
using rqs::scenario::FaultRole;
using rqs::scenario::ScenarioSpec;
using rqs::scenario::ScheduleEntry;
using rqs::scenario::SystemFamily;

ScheduleEntry write_entry(Value v, ProcessSet reachable = {}) {
  ScheduleEntry e;
  e.kind = ScheduleEntry::Kind::kWrite;
  e.value = v;
  e.reachable = reachable;
  return e;
}

ScheduleEntry read_entry(std::size_t client, ProcessSet reachable = {}) {
  ScheduleEntry e;
  e.kind = ScheduleEntry::Kind::kRead;
  e.client = client;
  e.reachable = reachable;
  return e;
}

ScenarioSpec fig1_spec(SystemFamily family, Value v) {
  ScenarioSpec s;
  s.family = family;
  s.reader_count = 2;
  s.schedule = {write_entry(v, ProcessSet{{2}}),
                read_entry(0, ProcessSet{{2, 3, 4}}),
                read_entry(1, ProcessSet{{0, 1, 3}})};
  return s;
}

/// The n = 4 anchor: a write and a read each confined to the non-quorum
/// pair {0, 1}, so both block. Small enough for full naive enumeration.
ScenarioSpec anchor4_spec(Value v) {
  ScenarioSpec s;
  s.family = SystemFamily::kThreeT1of1;
  s.reader_count = 1;
  s.schedule = {write_entry(v, ProcessSet{{0, 1}}),
                read_entry(0, ProcessSet{{0, 1}})};
  return s;
}

/// The anchor with server 0 amnesiac, explored once per coalition ({}
/// and {0}); one Byzantine server is within B for 3t+1 (t = 1), so every
/// branch must certify clean.
ScenarioSpec roles_spec(Value v) {
  ScenarioSpec s = anchor4_spec(v);
  s.byzantine = ProcessSet{{0}};
  s.role = FaultRole::kAmnesiac;
  return s;
}

constexpr int kWarmupExplorations = 6;
// One explore_roles takes about 20 ms against about 0.8 s for broken-5, so
// a round repeats it to time the role branches over a comparable span.
constexpr int kRoleRepeats = 25;

struct Tally {
  // One window per round, CPU ns per arrival of broken5, fast5 and the
  // role branches. A run has only 6 to 8 rounds of about 3.4 s each, so
  // the figures are the fastest round's.
  Windows win{3, 0.0};
  std::uint64_t explorations{0};
  std::uint64_t arrivals{0};
  std::array<std::uint64_t, 3> round_arrivals{};  // broken5, fast5, roles
  rqs::mc::McStats stats;  // summed
  std::int64_t ns{0};
};

void add_stats(rqs::mc::McStats& to, const rqs::mc::McStats& s) {
  to.transitions += s.transitions;
  to.replays += s.replays;
  to.states_visited += s.states_visited;
  to.sleep_pruned += s.sleep_pruned;
  to.cache_pruned += s.cache_pruned;
}

}  // namespace

void run_mc_fig1(const Args& args, Report& report) {
  // --- set-up: specs built and checked against the checker's fragment ---
  const Value v = static_cast<Value>(1 + (mix(args.seed) >> 24));
  const ScenarioSpec broken5 = fig1_spec(SystemFamily::kFig1Broken5, v);
  const ScenarioSpec fast5 = fig1_spec(SystemFamily::kFast5, v);
  const ScenarioSpec roles = roles_spec(v);
  for (const ScenarioSpec* s : {&broken5, &fast5, &roles}) {
    const rqs::mc::McExecution probe(*s);
    report.expect(probe.unsupported().empty(),
                  "spec outside the checker's fragment: " + probe.unsupported());
  }
  const McOptions dpor;
  McResult first_broken5;
  for (int i = 0; i < kWarmupExplorations; ++i) {
    report.expect(checks::clean_verdict(rqs::mc::explore(anchor4_spec(v), dpor)).empty(),
                  "warm-up exploration failed");
  }
  mark_setup_done();

  auto round = [&](Tally& tally) {
    const std::int64_t t0 = cpu_ns();
    McResult b = rqs::mc::explore(broken5, dpor);
    const std::int64_t t1 = cpu_ns();
    const McResult f = rqs::mc::explore(fast5, dpor);
    const std::int64_t t2 = cpu_ns();
    std::vector<rqs::mc::RoleBranch> branches;
    for (int i = 0; i < kRoleRepeats; ++i) {
      std::vector<rqs::mc::RoleBranch> once = rqs::mc::explore_roles(roles, dpor);
      for (rqs::mc::RoleBranch& br : once) branches.push_back(std::move(br));
    }
    const std::int64_t t3 = cpu_ns();

    // Everything but the (once-per-run) schedule replay is checked here.
    if (b.complete && b.violations.size() == 1 &&
        b.violations[0].signature.find("read inversion") != std::string::npos) {
      if (first_broken5.violations.empty()) first_broken5 = b;
    } else {
      report.op_verdict(checks::broken5_verdict(broken5, b));
    }
    const std::string clean = checks::clean_verdict(f);
    if (!clean.empty()) report.op_verdict("fast5: " + clean);
    std::uint64_t role_arrivals = 0;
    for (const rqs::mc::RoleBranch& br : branches) {
      const std::string bad = checks::clean_verdict(br.result);
      if (!bad.empty()) report.op_verdict("roles: " + bad);
      role_arrivals += br.result.stats.states_visited;
      add_stats(tally.stats, br.result.stats);
    }
    add_stats(tally.stats, b.stats);
    add_stats(tally.stats, f.stats);
    tally.win.add(0, (t1 - t0) / static_cast<std::int64_t>(
                                                std::max<std::uint64_t>(1, b.stats.states_visited)));
    tally.win.add(1, (t2 - t1) / static_cast<std::int64_t>(
                                                std::max<std::uint64_t>(1, f.stats.states_visited)));
    tally.win.add(2, (t3 - t2) / static_cast<std::int64_t>(
                                                std::max<std::uint64_t>(1, role_arrivals)));
    tally.round_arrivals = {b.stats.states_visited, f.stats.states_visited, role_arrivals};
    tally.arrivals += b.stats.states_visited + f.stats.states_visited + role_arrivals;
    tally.explorations += 2 + branches.size();
    tally.ns += t3 - t0;
  };

  // Checks run once per process, after the timed loop.
  auto final_checks = [&] {
    report.expect(!first_broken5.violations.empty(), "no broken-5 violation seen");
    if (!first_broken5.violations.empty()) {
      const std::string bad = checks::broken5_verdict(broken5, first_broken5);
      if (!bad.empty()) report.reject(bad);
    }
    McOptions naive;
    naive.use_sleep_sets = false;
    naive.use_state_cache = false;
    naive.collect_state_digests = true;
    McOptions reduced;
    reduced.collect_state_digests = true;
    const std::string bad = checks::same_state_set(
        rqs::mc::explore(anchor4_spec(v), naive), rqs::mc::explore(anchor4_spec(v), reduced));
    if (!bad.empty()) report.reject(bad);
  };

  Tally tally;
  if (!args.trace) {
    // One window per round: an exploration cannot be cut shorter.
    std::uint64_t before = 0;
    const Timed t = run_windows(args.seconds, 1, [&] { round(tally); },
                                [&](std::int64_t ns) {
                                  tally.win.close(tally.arrivals - before, ns);
                                  before = tally.arrivals;
                                });
    const Windows& rounds = tally.win;
    const double rss = peak_rss_mib();
    report.attempted = tally.explorations;
    const double per_s = rounds.rate();
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("ops_per_s", per_s, "1/s");
    report.metric("op1_p50_us", rounds.p50_us(0), "us");
    report.metric("op2_p50_us", rounds.p50_us(1), "us");
    report.metric("op3_p50_us", rounds.p50_us(2), "us");
    final_checks();
    report.line("mc_states_per_s (fastest round)", per_s, "arrivals/s", rounds.windows());
    report.line("mc_states_per_s (whole run)",
                ratio(static_cast<double>(tally.arrivals), static_cast<double>(t.ns) / 1e9),
                "arrivals/s");
    report.line("broken5_us_per_arrival (fastest round)", rounds.p50_us(0), "us");
    report.line("fast5_us_per_arrival (fastest round)", rounds.p50_us(1), "us");
    report.line("roles_us_per_arrival (fastest round)", rounds.p50_us(2), "us");
    report.line("broken5_arrivals_per_round", static_cast<double>(tally.round_arrivals[0]), "count");
    report.line("fast5_arrivals_per_round", static_cast<double>(tally.round_arrivals[1]), "count");
    report.line("roles_arrivals_per_round", static_cast<double>(tally.round_arrivals[2]), "count");
    return;
  }

  // Traced: McStats is always collected, so the traced half only differs
  // in reading it; the overhead baseline is the untraced first half.
  const Timed plain = run_for(args.seconds / 2, [&] { round(tally); });
  Tally tt;
  SpanLog spans;
  const std::int64_t epoch = now_ns();
  const Timed traced = run_for(args.seconds / 2, [&] {
    const std::int64_t t0 = now_ns();
    round(tt);
    spans.add("round", t0 - epoch, now_ns() - epoch);
  });
  final_checks();
  report.attempted = tally.explorations + tt.explorations;
  const double arrivals = static_cast<double>(tt.stats.states_visited);
  const double rounds = static_cast<double>(traced.rounds);
  report.metric("mc.transitions_per_arrival",
                ratio(static_cast<double>(tt.stats.transitions), arrivals), "count");
  report.metric("mc.replays_per_arrival",
                ratio(static_cast<double>(tt.stats.replays), arrivals), "count");
  report.metric("mc.sleep_pruned", ratio(static_cast<double>(tt.stats.sleep_pruned), rounds),
                "count");
  report.metric("mc.cache_pruned", ratio(static_cast<double>(tt.stats.cache_pruned), rounds),
                "count");
  report.metric("mc.us_per_transition",
                ratio(tt.ns / 1e3, static_cast<double>(tt.stats.transitions)), "us");
  report.metric("trace.overhead_pct", overhead_pct(plain, traced), "%");
  if (!args.span_dir.empty()) {
    report.expect(spans.write(args.span_dir + "/mc_fig1.spans.jsonl"),
                  "could not write spans");
  }
}

}  // namespace perfbench
