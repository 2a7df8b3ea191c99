// consensus_decide: repeated single-decree instances on the Fig. 3 example
// system (8 acceptors) and the 3t+1 system (t = 2, 7 acceptors). Each
// instance builds a fresh ConsensusCluster (2 proposers, 2 learners) and
// runs until every learner has learned; its latency includes the build.
//
// A round is kRound below: mostly uncontended all-correct instances (the
// fast path), plus one of each fault flavour per system: one crashed
// acceptor, a second proposer contending, and a view change forced by
// cutting the leader off from part of the acceptors and crashing it.
#include <array>
#include <optional>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "obs/observer.hpp"

namespace perfbench {

namespace {

using rqs::ProcessId;
using rqs::ProcessSet;
using rqs::RefinedQuorumSystem;
using rqs::Value;
using rqs::consensus::ConsensusCluster;

enum class Kind { kFast, kCrash, kContend, kViewChange };
struct Instance {
  int system;  // 0 = Fig. 3, 1 = 3t+1 (t = 2)
  Kind kind;
};

// 26 instances: 16 Fig. 3 fast, 4 3t+1 fast, one of each fault flavour
// per system. Fig. 3 fast instances are 62% of the round so the overall
// median sits inside them, and the 3t+1 view changes (the slowest kind,
// 3.8%) hold the overall p99.
constexpr std::array<Instance, 26> kRound = [] {
  std::array<Instance, 26> r{};
  std::size_t i = 0;
  for (int k = 0; k < 16; ++k) r[i++] = {0, Kind::kFast};
  for (int k = 0; k < 4; ++k) r[i++] = {1, Kind::kFast};
  for (int s = 0; s < 2; ++s) {
    r[i++] = {s, Kind::kCrash};
    r[i++] = {s, Kind::kContend};
    r[i++] = {s, Kind::kViewChange};
  }
  return r;
}();

constexpr int kProposer = 0;
constexpr int kAcceptor = 1;
constexpr int kLearner = 2;

int role_of(ProcessId id) {
  if (id >= rqs::consensus::kFirstLearnerId) return kLearner;
  if (id >= rqs::consensus::kFirstProposerId) return kProposer;
  return kAcceptor;
}

struct System {
  RefinedQuorumSystem rqs;
  ProcessSet cut;  // acceptors the doomed leader cannot reach
};

/// Per-population latency samples and traced-run accumulators.
struct Tally {
  std::array<std::array<Samples, 4>, 2> by_kind;  // [system][kind], whole run
  Samples all;
  Windows win{3};  // Fig. 3 fast, 3t+1 fast, 3t+1 view change
  std::uint64_t decisions{0};
  std::int64_t build_ns{0};
  std::int64_t invoke_ns{0};
  std::uint64_t msgs{0};
  std::uint64_t update2{0};
  std::uint64_t view_changes{0};
};

class Instances {
 public:
  Instances(const std::array<System, 2>& systems, std::uint64_t seed)
      : systems_(systems), seed_(seed) {}

  /// Runs one instance; `profile` non-null = traced (own step loop).
  void instance(const Instance& in, Report& report, Tally& tally,
                StepProfile* profile) {
    const System& sys = systems_[static_cast<std::size_t>(in.system)];
    const std::uint64_t r = mix(seed_ ^ ++counter_);
    const Value v0 = static_cast<Value>(r >> 20);
    const Value v1 = v0 + 1;
    const auto crashed = static_cast<ProcessId>(r % sys.rqs.universe_size());

    const std::int64_t t0 = now_ns();
    rqs::consensus::ClusterConfig cfg;
    cfg.proposer_count = 2;
    cfg.learner_count = 2;
    ConsensusCluster c(sys.rqs, cfg);
    const std::int64_t built = now_ns();
    rqs::obs::Observer ob;
    if (profile != nullptr) c.sim().set_observer(&ob);

    std::vector<Value> proposed{v0};
    switch (in.kind) {
      case Kind::kFast:
        c.propose(0, v0);
        break;
      case Kind::kCrash:
        c.sim().crash(crashed);
        c.propose(0, v0);
        break;
      case Kind::kContend:
        c.propose(0, v0);
        c.propose(1, v1);
        proposed.push_back(v1);
        break;
      case Kind::kViewChange: {
        const ProcessId leader = rqs::consensus::kFirstProposerId;
        c.network().block(ProcessSet{leader}, sys.cut);
        c.propose(0, v0);
        c.propose(1, v1);
        proposed.push_back(v1);
        c.sim().schedule_at(2 * c.sim().delta(),
                            [&c, leader] { c.sim().crash(leader); });
        break;
      }
    }
    const std::int64_t invoked = now_ns();

    bool learned = false;
    if (profile == nullptr) {
      learned = c.run_until_learned(3000);
    } else {
      learned = traced_until_learned(c, *profile, 3000);
    }
    const std::int64_t dt = now_ns() - t0;
    tally.by_kind[static_cast<std::size_t>(in.system)]
                 [static_cast<std::size_t>(in.kind)].add(dt);
    tally.all.add(dt);
    if (in.kind == Kind::kFast) tally.win.add(static_cast<std::size_t>(in.system), dt);
    if (in.kind == Kind::kViewChange && in.system == 1) tally.win.add(2, dt);
    ++tally.decisions;

    std::vector<std::optional<Value>> values;
    std::vector<std::optional<std::int64_t>> delays;
    for (std::size_t i = 0; i < c.learner_count(); ++i) {
      const auto& l = c.learner(i);
      values.push_back(l.learned() ? std::optional<Value>(l.learned_value())
                                   : std::nullopt);
      delays.push_back(c.learn_delays(i));
    }
    std::string bad = learned ? checks::agreement(values)
                              : "instance did not learn within 3000 deltas";
    if (bad.empty()) bad = checks::validity(*values[0], proposed);
    if (bad.empty() && in.kind == Kind::kFast) bad = checks::fast_path(delays);
    if (bad.empty() && in.kind == Kind::kViewChange) {
      bool advanced = false;
      for (ProcessId a = 0; a < sys.rqs.universe_size(); ++a) {
        advanced = advanced || c.acceptor(a).current_view() > 0;
      }
      if (!advanced) bad = "forced view change did not happen";
    }
    report.op_verdict(bad);

    if (profile != nullptr) {
      tally.build_ns += built - t0;
      tally.invoke_ns += invoked - built;
      const auto& tags = c.network().sent_by_tag();
      for (const auto& [tag, n] : tags) {
        tally.msgs += n;
        if (tag == "UPDATE2") tally.update2 += n;
      }
      tally.view_changes +=
          ob.metrics().snapshot().counter("consensus.view_change");
    }
  }

 private:
  /// ConsensusCluster::run_until_learned, stepping through the profiler.
  static bool traced_until_learned(ConsensusCluster& c, StepProfile& profile,
                                   rqs::sim::SimTime deadline_deltas) {
    rqs::sim::Simulation& sim = c.sim();
    const rqs::sim::SimTime deadline = sim.now() + deadline_deltas * sim.delta();
    auto all_learned = [&c, &sim] {
      for (std::size_t i = 0; i < c.learner_count(); ++i) {
        const auto& l = c.learner(i);
        if (!sim.crashed(l.id()) && !l.learned()) return false;
      }
      return true;
    };
    while (!sim.idle() && sim.now() <= deadline) {
      if (all_learned()) return true;
      profile.step(sim);
    }
    return all_learned();
  }

  const std::array<System, 2>& systems_;
  std::uint64_t seed_;
  std::uint64_t counter_{0};
};

constexpr std::size_t kWarmupRounds = 30;
constexpr std::uint64_t kWindowRounds = 40;  // about 0.1 s

}  // namespace

void run_consensus_decide(const Args& args, Report& report) {
  // --- set-up: systems built and checked, warm-up ---
  std::array<System, 2> systems{
      System{rqs::make_fig3_example(), ProcessSet{{2, 3, 5, 7}}},
      System{rqs::make_3t1_instantiation(2), ProcessSet{{3, 4, 5, 6}}}};
  std::int64_t check_ns = 0;
  for (const System& s : systems) {
    const std::int64_t t0 = now_ns();
    const bool ok = s.rqs.check().ok();
    check_ns += now_ns() - t0;
    report.expect(ok, "consensus system fails Definition 2");
  }
  Instances instances(systems, args.seed);
  Tally warm;
  for (std::size_t r = 0; r < kWarmupRounds; ++r) {
    for (const Instance& in : kRound) instances.instance(in, report, warm, nullptr);
  }
  mark_setup_done();

  Tally plain_tally;
  auto plain_round = [&] {
    for (const Instance& in : kRound) instances.instance(in, report, plain_tally, nullptr);
  };

  if (!args.trace) {
    std::uint64_t before = 0;
    const Timed t = run_windows(args.seconds, kWindowRounds, plain_round,
                                [&](std::int64_t ns) {
                                  plain_tally.win.close(plain_tally.decisions - before, ns);
                                  before = plain_tally.decisions;
                                });
    const double rss = peak_rss_mib();
    report.attempted = plain_tally.decisions;
    const Windows& w = plain_tally.win;
    const auto& k = plain_tally.by_kind;
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("ops_per_s", w.rate(), "1/s");
    report.metric("op1_p50_us", w.p50_us(0), "us");
    report.metric("op2_p50_us", w.p50_us(1), "us");
    report.metric("op3_p50_us", w.p50_us(2), "us");
    report.line("decisions_per_s (fastest 2%)", w.rate(), "1/s", w.windows());
    report.line("decisions_per_s (whole run)",
                ratio(static_cast<double>(plain_tally.decisions), static_cast<double>(t.ns) / 1e9),
                "1/s");
    report.line("decide_p50_us", plain_tally.all.percentile_us(50), "us", plain_tally.all.count());
    report.line("decide_p99_us", plain_tally.all.percentile_us(99), "us", plain_tally.all.count());
    const char* sys_name[2] = {"fig3", "3t1"};
    const char* kind_name[4] = {"fast", "crash", "contend", "view_change"};
    for (int s = 0; s < 2; ++s) {
      for (int kk = 0; kk < 4; ++kk) {
        const Samples& smp = k[static_cast<std::size_t>(s)][static_cast<std::size_t>(kk)];
        report.line(std::string(sys_name[s]) + "." + kind_name[kk] + "_p50_us",
                    smp.percentile_us(50), "us", smp.count());
      }
    }
    return;
  }

  // --- traced run: first half untraced (overhead baseline), second half
  // through the step profiler ---
  const Timed plain = run_for(args.seconds / 2, plain_round);
  StepProfile profile(role_of);
  Tally tt;
  SpanLog spans;
  const std::int64_t epoch = now_ns();
  const Timed traced = run_for(args.seconds / 2, [&] {
    for (const Instance& in : kRound) {
      const std::int64_t t0 = now_ns();
      instances.instance(in, report, tt, &profile);
      spans.add("decision", t0 - epoch, now_ns() - epoch);
    }
  });
  report.attempted = plain_tally.decisions + tt.decisions;
  const double d = static_cast<double>(tt.decisions);
  report.metric("consensus.build_us", ratio(tt.build_ns / 1e3, d), "us");
  report.metric("consensus.acceptor.us_per_decision",
                ratio(profile.role_ns(kAcceptor) / 1e3, d), "us");
  report.metric("consensus.learner.us_per_decision",
                ratio(profile.role_ns(kLearner) / 1e3, d), "us");
  report.metric("consensus.proposer.us_per_decision",
                ratio((profile.role_ns(kProposer) + tt.invoke_ns) / 1e3, d), "us");
  report.metric("consensus.msgs_per_decision", ratio(static_cast<double>(tt.msgs), d), "count");
  report.metric("consensus.update2_per_decision",
                ratio(static_cast<double>(tt.update2), d), "count");
  report.metric("consensus.view_changes_per_decision",
                ratio(static_cast<double>(tt.view_changes), d), "count");
  report.metric("sim.events_per_op", ratio(static_cast<double>(profile.steps()), d), "count");
  report.metric("sim.timer_us_per_op", ratio(profile.tag_total("TIMER").ns / 1e3, d), "us");
  report_step_costs(report, {&profile},
                    {"PREPARE", "UPDATE1", "UPDATE2", "UPDATE3", "NEW_VIEW", "NEW_VIEW_ACK",
                     "SIGN_REQ", "SIGN_ACK", "VIEW_CHANGE", "DECISION", "DECISION_PULL",
                     "SYNC", "TIMER"});
  report.metric("core.check_us", check_ns / 1e3 / 2.0, "us");
  report.metric("trace.overhead_pct", overhead_pct(plain, traced), "%");
  if (!args.span_dir.empty()) {
    report.expect(spans.write(args.span_dir + "/consensus_decide.spans.jsonl"),
                  "could not write spans");
  }
}

}  // namespace perfbench
