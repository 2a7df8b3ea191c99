// swarm: run_swarm on one worker over the default valid generator mix
// (storage with keyed registers enabled, and consensus; Byzantine roles,
// crashes, partitions, asynchrony, loss and duplication), plus a fixed
// share of ScenarioGenerator::fig1_hunt() scenarios with shrinking on.
//
// A round is three run_swarm calls over fresh seed slices: kBatch storage
// scenarios, kBatch consensus scenarios (the generator's per-protocol
// mixes, drawn in equal shares, less the two exclusions in
// slice_options), and kHuntBatch fig1-hunt scenarios; every found read
// inversion is shrunk inside the hunt call. The round ends with the
// kKnownFaults reproducers, drawn from the full default mix, which fail on
// every run and count in `failed`.
#include <algorithm>
#include <array>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "scenario/shrink.hpp"
#include "scenario/swarm.hpp"

namespace perfbench {

namespace {

using rqs::scenario::Protocol;
using rqs::scenario::ScenarioGenerator;
using rqs::scenario::ScenarioResult;
using rqs::scenario::ScenarioRunner;
using rqs::scenario::ScenarioSpec;
using rqs::scenario::SwarmOptions;
using rqs::scenario::SwarmReport;
using rqs::scenario::SystemFamily;

constexpr std::size_t kBatch = 40;
constexpr std::size_t kHuntBatch = 40;
constexpr std::size_t kMaxKeys = 4;
constexpr std::size_t kWarmupRounds = 3;
// About 0.17 s, 1,200 scenarios: short enough that a run has some windows
// in the brief uncontended spells of a loaded host, long enough that the
// scenario mix of one window is close to the run's. A window holds about
// three fig1-hunt shrinks; shrinking is about 0.3% of the run's time.
constexpr std::uint64_t kWindowRounds = 10;

/// The three slices of a round.
enum Slice { kStorage = 0, kConsensus = 1, kHunt = 2 };

/// Scenario seeds of the full default mix (keyed storage up to kMaxKeys,
/// partitions and kMasking4 included) on which the program fails every
/// time; `kind` is how the runner reports it (FOUND lines in CHANGES.md).
struct KnownFault {
  Protocol protocol;
  std::uint64_t seed;
  const char* kind;
};
constexpr std::array<KnownFault, 3> kKnownFaults{{
    // A read returns bottom although a write completed before it
    // (amnesiac servers, loss window, partition).
    {Protocol::kStorage, 4630719973ULL, "atomicity"},
    // A read invoked as a partition lifts never completes.
    {Protocol::kStorage, 6953475602ULL, "liveness"},
    // kMasking4, amnesiac acceptor, loss window: learners disagree.
    {Protocol::kConsensus, 52825468627ULL, "agreement"},
}};

SwarmOptions known_fault_options(const KnownFault& k) {
  SwarmOptions o;
  o.threads = 1;
  o.scenarios = 1;
  o.base_seed = k.seed;
  o.generator.max_keys = kMaxKeys;
  o.generator.protocols = {k.protocol};
  o.shrink_failures = false;
  return o;
}

SwarmOptions slice_options(Slice slice, std::uint64_t base_seed) {
  SwarmOptions o;
  o.threads = 1;
  o.base_seed = base_seed;
  if (slice == kHunt) {
    o.scenarios = kHuntBatch;
    o.generator = ScenarioGenerator::fig1_hunt();
  } else {
    o.scenarios = kBatch;
    o.generator.max_keys = kMaxKeys;
    // Three faults of the program fail a few seeds per 10^6 and are left
    // out of the seeded slices, because failed/attempted must be the same
    // share on every seed: storage scenarios draw no partitions (with an
    // amnesiac server, loss or duplication and a partition, a read can
    // return a value older than a completed write; an op invoked as a
    // partition lifts can hang), and consensus scenarios skip kMasking4
    // (a Byzantine acceptor under a loss window breaks agreement there).
    // kKnownFaults runs one reproducer of each, every round.
    if (slice == kStorage) {
      o.generator.protocols = {Protocol::kStorage};
      o.generator.max_partitions = 0;
    } else {
      o.generator.protocols = {Protocol::kConsensus};
      o.generator.families = {SystemFamily::kThreeT1of1, SystemFamily::kThreeT1of2,
                              SystemFamily::kExample7};
    }
  }
  return o;
}

struct Tally {
  Windows win{3};  // per slice: each batch's ns and scenarios (window mean)
  std::uint64_t scenarios{0};
  std::uint64_t detections{0};
  std::uint64_t shrunk{0};
  std::size_t smallest{~std::size_t{0}};  // entries of the smallest reproducer
  std::uint64_t minimal{0};                // reproducers of at most 3 entries
  std::uint64_t known_failed{0};           // known-fault reproducers that failed
  // Traced-run accumulators.
  std::int64_t generate_ns{0};
  std::int64_t materialize_ns{0};
  std::array<std::int64_t, 2> run_ns{};   // by protocol
  std::array<std::uint64_t, 2> runs{};
  std::int64_t shrink_ns{0};
  std::uint64_t shrink_runs{0};
  std::uint64_t messages{0};
};

void check_slice(Slice slice, const SwarmReport& r, Report& report,
                 Tally& tally) {
  if (slice != kHunt) {
    for (std::size_t i = 0; i < r.violating; ++i) {
      report.op_verdict("valid-mix scenario violated: " +
                        (i < r.failures.size() ? r.failures[i].to_string()
                                               : std::string("(not kept)")));
    }
    return;
  }
  tally.detections += r.violating;
  tally.shrunk += r.failures.size();
  for (const rqs::scenario::SwarmFailure& f : r.failures) {
    tally.smallest = std::min(tally.smallest, f.shrunk_entries);
    tally.minimal += f.shrunk_entries <= 3 ? 1 : 0;
    report.op_verdict(checks::hunt_failures({f}));
  }
}

/// A known-fault reproducer that fails counts in `failed` and leaves the
/// run correct; one that fails in another way is a wrong output.
void check_known_fault(const KnownFault& k,
                       const std::vector<std::string>& violations,
                       Report& report, Tally& tally) {
  if (violations.empty()) return;
  ++tally.known_failed;
  const std::string bad = checks::known_fault(k.kind, violations);
  if (!bad.empty()) report.reject(bad);
}

class Slices {
 public:
  explicit Slices(std::uint64_t seed) : cursor_((mix(seed) >> 28) + 1) {}

  /// One round of the three slices through run_swarm.
  void round(Report& report, Tally& tally) {
    for (const Slice slice : {kStorage, kConsensus, kHunt}) {
      const SwarmOptions o = slice_options(slice, cursor_);
      cursor_ += o.scenarios;
      const std::int64_t t0 = cpu_ns();
      const SwarmReport r = rqs::scenario::run_swarm(o);
      tally.win.add_total(slice, cpu_ns() - t0, o.scenarios);
      tally.scenarios += o.scenarios;
      check_slice(slice, r, report, tally);
    }
    for (const KnownFault& k : kKnownFaults) {
      const SwarmReport r = rqs::scenario::run_swarm(known_fault_options(k));
      ++tally.scenarios;
      check_known_fault(k, r.failures.empty() ? std::vector<std::string>{}
                                              : r.failures[0].violations,
                        report, tally);
    }
  }

  /// The same round through the benchmark's own generate/run/shrink loop,
  /// timing each layer. Returns the XOR of per-scenario digests per slice.
  std::array<std::uint64_t, 3> traced_round(Report& report, Tally& tally) {
    std::array<std::uint64_t, 3> digests{};
    for (const Slice slice : {kStorage, kConsensus, kHunt}) {
      const SwarmOptions o = slice_options(slice, cursor_);
      cursor_ += o.scenarios;
      const ScenarioGenerator generator(o.generator);
      const ScenarioRunner runner(o.runner);
      SwarmReport r;
      for (std::size_t i = 0; i < o.scenarios; ++i) {
        ScenarioSpec spec;
        const ScenarioResult res = traced_scenario(generator, runner, o.base_seed + i,
                                                   tally, spec);
        digests[slice] ^= res.trace_digest;
        if (res.ok()) continue;
        ++r.violating;
        if (r.failures.size() >= o.max_failures_kept) continue;
        rqs::scenario::SwarmFailure f;
        f.seed = spec.seed;
        f.spec = spec;
        f.violations = res.violations;
        const std::int64_t s0 = now_ns();
        const rqs::scenario::ShrinkResult s =
            rqs::scenario::shrink(spec, runner, o.shrink_max_runs);
        tally.shrink_ns += now_ns() - s0;
        tally.shrink_runs += s.runs;
        f.shrunk = s.spec;
        f.shrunk_entries = s.entries_after;
        r.failures.push_back(std::move(f));
      }
      tally.scenarios += o.scenarios;
      check_slice(slice, r, report, tally);
    }
    for (const KnownFault& k : kKnownFaults) {
      const SwarmOptions o = known_fault_options(k);
      ScenarioSpec spec;
      const ScenarioResult res =
          traced_scenario(ScenarioGenerator(o.generator), ScenarioRunner(o.runner),
                          o.base_seed, tally, spec);
      ++tally.scenarios;
      check_known_fault(k, res.violations, report, tally);
    }
    return digests;
  }

  [[nodiscard]] std::uint64_t cursor() const noexcept { return cursor_; }

 private:
  /// Generates, materializes and runs one scenario, timing each layer.
  static ScenarioResult traced_scenario(const ScenarioGenerator& generator,
                                        const ScenarioRunner& runner,
                                        std::uint64_t seed, Tally& tally,
                                        ScenarioSpec& spec) {
    const std::int64_t t0 = now_ns();
    spec = generator.generate(seed);
    const std::int64_t t1 = now_ns();
    const rqs::RefinedQuorumSystem sys = rqs::scenario::materialize(spec.family);
    const std::int64_t t2 = now_ns();
    (void)sys;  // timed only: the runner materializes its own copy
    ScenarioResult res = runner.run(spec);
    const std::int64_t t3 = now_ns();
    const std::size_t p = spec.protocol == Protocol::kStorage ? 0 : 1;
    tally.generate_ns += t1 - t0;
    tally.materialize_ns += t2 - t1;
    tally.run_ns[p] += t3 - t2;
    ++tally.runs[p];
    tally.messages += res.messages_delivered;
    return res;
  }

  std::uint64_t cursor_;
};

}  // namespace

void run_swarm_workload(const Args& args, Report& report) {
  {
    // The warm-up draws the same slices on every seed, so set-up does the
    // same work on every run.
    Slices warm_slices(0);
    Tally warm;
    for (std::size_t r = 0; r < kWarmupRounds; ++r) warm_slices.round(report, warm);
  }
  Slices slices(args.seed);
  mark_setup_done();

  Tally tally;
  const std::uint64_t first_seed = slices.cursor();
  auto plain_round = [&] { slices.round(report, tally); };

  // A slice of the run, rerun at a second worker count: the report digest
  // must not depend on it.
  auto check_thread_invariance = [&] {
    const std::size_t workers = std::min(4u, std::thread::hardware_concurrency());
    if (workers < 2) return;  // no second worker count within nproc
    for (const Slice slice : {kStorage, kConsensus, kHunt}) {
      const SwarmOptions one = slice_options(slice, first_seed + slice * kBatch);
      SwarmOptions many = one;
      many.threads = workers;
      const std::string bad = checks::same_digest(
          rqs::scenario::run_swarm(one).digest,
          rqs::scenario::run_swarm(many).digest);
      if (!bad.empty()) report.reject(bad);
    }
  };

  if (!args.trace) {
    std::uint64_t before = 0;
    const Timed t = run_windows(args.seconds, kWindowRounds, plain_round,
                                [&](std::int64_t ns) {
                                  tally.win.close(tally.scenarios - before, ns);
                                  before = tally.scenarios;
                                });
    const Windows& all = tally.win;
    const double rss = peak_rss_mib();
    report.attempted = tally.scenarios;
    report.failed += tally.known_failed;
    const double per_s = all.rate();
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("ops_per_s", per_s, "1/s");
    report.metric("op1_p50_us", all.p50_us(kStorage), "us");
    report.metric("op2_p50_us", all.p50_us(kConsensus), "us");
    report.metric("op3_p50_us", all.p50_us(kHunt), "us");
    const std::string hunt = checks::hunt_outcome(tally.detections, tally.smallest);
    if (!hunt.empty()) report.reject(hunt);
    check_thread_invariance();
    report.line("scenarios_per_s (fastest 2%)", per_s, "1/s", all.windows());
    report.line("scenarios_per_s (whole run)",
                ratio(static_cast<double>(tally.scenarios), static_cast<double>(t.ns) / 1e9),
                "1/s");
    report.line("storage_us_per_scenario_p50 (fastest 2%)", all.p50_us(kStorage), "us");
    report.line("consensus_us_per_scenario_p50 (fastest 2%)", all.p50_us(kConsensus), "us");
    report.line("hunt_us_per_scenario_p50 (fastest 2%)", all.p50_us(kHunt), "us");
    report.line("hunt_detections", static_cast<double>(tally.detections), "count");
    report.line("hunt_reproducers_shrunk", static_cast<double>(tally.shrunk), "count");
    report.line("hunt_reproducers_le_3_entries", static_cast<double>(tally.minimal), "count");
    return;
  }

  const Timed plain = run_for(args.seconds / 2, plain_round);
  Tally tt;
  SpanLog spans;
  const std::int64_t epoch = now_ns();
  std::uint64_t digest_checks = 0;
  const Timed traced = run_for(args.seconds / 2, [&] {
    const std::uint64_t first = slices.cursor();
    const std::int64_t t0 = now_ns();
    const std::array<std::uint64_t, 3> mine = slices.traced_round(report, tt);
    spans.add("round", t0 - epoch, now_ns() - epoch);
    if (digest_checks++ < 3) {
      // The benchmark's own loop must reproduce run_swarm's digest.
      std::uint64_t base = first;
      for (const Slice slice : {kStorage, kConsensus, kHunt}) {
        const SwarmOptions o = slice_options(slice, base);
        base += o.scenarios;
        const std::string bad =
            checks::same_digest(mine[slice], rqs::scenario::run_swarm(o).digest);
        if (!bad.empty()) report.reject(bad);
      }
    }
  });
  report.attempted = tally.scenarios + tt.scenarios;
  report.failed += tally.known_failed + tt.known_failed;
  const std::string hunt = checks::hunt_outcome(
      tally.detections + tt.detections, std::min(tally.smallest, tt.smallest));
  if (!hunt.empty()) report.reject(hunt);
  const double runs = static_cast<double>(tt.runs[0] + tt.runs[1]);
  report.metric("scenario.generate_us", ratio(tt.generate_ns / 1e3, runs), "us");
  report.metric("core.materialize_us", ratio(tt.materialize_ns / 1e3, runs), "us");
  report.metric("scenario.run_storage_us",
                ratio(tt.run_ns[0] / 1e3, static_cast<double>(tt.runs[0])), "us");
  report.metric("scenario.run_consensus_us",
                ratio(tt.run_ns[1] / 1e3, static_cast<double>(tt.runs[1])), "us");
  report.metric("scenario.shrink_us", ratio(tt.shrink_ns / 1e3, static_cast<double>(tt.shrunk)), "us");
  report.metric("scenario.shrink_runs",
                ratio(static_cast<double>(tt.shrink_runs), static_cast<double>(tt.shrunk)), "count");
  report.metric("scenario.msgs_per_scenario", ratio(static_cast<double>(tt.messages), runs), "count");
  report.metric("trace.overhead_pct", overhead_pct(plain, traced), "%");
  if (!args.span_dir.empty()) {
    report.expect(spans.write(args.span_dir + "/swarm.spans.jsonl"),
                  "could not write spans");
  }
}

}  // namespace perfbench
