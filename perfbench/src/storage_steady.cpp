// storage_steady: long-lived keyed StorageClusters on the 3t+1 system
// (t = 2, 7 servers, 8 keys, 2 readers per key), driven by one closed-loop
// client with one blocking op outstanding. A round is 5 passes over the 8
// keys: a write of every key, then 4 reads of every key (readers
// alternate), i.e. 1 write : 4 reads, round-robin over keys. Each round
// runs on the all-correct deployment (every op class 1) and then on a
// deployment with one amnesiac Byzantine server (reads take the class-2
// writeback path), back to back. There is one such deployment per server,
// used in turn: the reader's cost depends on which server is amnesiac, so
// every run covers all of them equally.
//
// All clusters are rebuilt at the end of every timing window (kWindowRounds
// rounds), so every window pays one rebuild: StorageCluster records every
// completed op in a per-key AtomicityChecker that is never trimmed, so
// without rebuilds peak memory would grow with throughput.
#include <memory>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "core/constructions.hpp"
#include "obs/observer.hpp"
#include "storage/harness.hpp"

namespace perfbench {

namespace {

using rqs::ObjectId;
using rqs::ProcessSet;
using rqs::RefinedQuorumSystem;
using rqs::Value;
using rqs::storage::StorageCluster;

constexpr std::size_t kT = 2;
constexpr std::size_t kKeys = 8;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kReadPasses = 4;
constexpr std::uint64_t kWarmupRounds = 28;  // 4 per amnesiac deployment
constexpr std::uint64_t kWindowRounds = 50;  // about 0.1 s, one rebuild each
constexpr std::size_t kWinRead = 0;
constexpr std::size_t kWinWrite = 1;

// Roles for the traced profile.
constexpr int kServer = 0;
constexpr int kWriter = 1;
constexpr int kReader = 2;

/// Per-deployment measurements.
struct Tally {
  Samples write_ns;  // whole run (p99s for the human-readable lines)
  Samples read_ns;
  Windows win{2};  // kWin* populations
  std::uint64_t ops{0};
  // Traced-run accumulators.
  std::int64_t invoke_write_ns{0};
  std::int64_t invoke_read_ns{0};
  std::int64_t harness_ns{0};
  std::uint64_t writes{0};
  std::uint64_t reads{0};
  std::uint64_t write_msgs{0};
  std::uint64_t read_msgs{0};
  std::uint64_t read_rounds{0};
};

class Deployment {
 public:
  Deployment(const RefinedQuorumSystem& rqs, ProcessSet byzantine,
             std::uint64_t value_base)
      : rqs_(rqs), byzantine_(byzantine), next_value_(value_base) {
    rebuild();
  }

  [[nodiscard]] bool all_correct() const { return byzantine_.empty(); }
  StorageCluster& cluster() { return *cluster_; }

  void rebuild() {
    rqs::storage::StorageClusterConfig cfg;
    cfg.reader_count = kReaders;
    cfg.key_count = kKeys;
    cfg.byzantine = byzantine_;
    cluster_ = std::make_unique<StorageCluster>(rqs_, cfg);
    last_.assign(kKeys, rqs::kBottom);
  }

  /// One round: a write of every key, then kReadPasses reads of every key.
  /// `profile` non-null = the traced variant (async op + own step loop).
  template <bool kTraced>
  void round(Report& report, Tally& tally, StepProfile* profile) {
    for (ObjectId key = 0; key < kKeys; ++key) {
      const Value v = static_cast<Value>(next_value_++);
      const std::int64_t t0 = now_ns();
      rqs::RoundNumber rounds = 0;
      if constexpr (kTraced) {
        rounds = traced_write(key, v, tally, *profile);
      } else {
        rounds = cluster_->blocking_write(key, v);
      }
      const std::int64_t dt = now_ns() - t0;
      tally.write_ns.add(dt);
      tally.win.add(kWinWrite, dt);
      last_[key] = v;
      report.op_verdict(cluster_->write_done(key)
                            ? checks::op_rounds(all_correct(), rounds)
                            : "write did not complete");
    }
    for (std::size_t pass = 0; pass < kReadPasses; ++pass) {
      const std::size_t reader = pass % kReaders;
      for (ObjectId key = 0; key < kKeys; ++key) {
        const std::int64_t t0 = now_ns();
        StorageCluster::ReadOutcome out;
        if constexpr (kTraced) {
          out = traced_read(key, reader, tally, *profile);
        } else {
          out = cluster_->blocking_read(key, reader);
        }
        const std::int64_t dt = now_ns() - t0;
        tally.read_ns.add(dt);
        tally.win.add(kWinRead, dt);
        std::string bad = cluster_->read_done(key, reader)
                              ? checks::read_value(last_[key], out.value)
                              : "read did not complete";
        if (bad.empty()) bad = checks::op_rounds(all_correct(), out.rounds);
        report.op_verdict(bad);
      }
    }
    tally.ops += kKeys * (1 + kReadPasses);
  }

 private:
  rqs::RoundNumber traced_write(ObjectId key, Value v, Tally& tally,
                                StepProfile& profile) {
    rqs::sim::Simulation& sim = cluster_->sim();
    const std::uint64_t sent0 = cluster_->network().messages_sent();
    const std::int64_t t0 = now_ns();
    cluster_->async_write(key, v);
    const std::int64_t invoke = now_ns() - t0;
    std::int64_t stepped = 0;
    while (!cluster_->write_done(key)) {
      const std::int64_t dt = profile.step(sim);
      if (dt < 0) break;
      stepped += dt;
    }
    tally.invoke_write_ns += invoke;
    tally.harness_ns += (now_ns() - t0) - invoke - stepped;
    tally.write_msgs += cluster_->network().messages_sent() - sent0;
    ++tally.writes;
    return cluster_->writer(key).last_write_rounds();
  }

  StorageCluster::ReadOutcome traced_read(ObjectId key, std::size_t reader,
                                          Tally& tally, StepProfile& profile) {
    rqs::sim::Simulation& sim = cluster_->sim();
    const std::uint64_t sent0 = cluster_->network().messages_sent();
    const std::int64_t t0 = now_ns();
    cluster_->async_read(key, reader);
    const std::int64_t invoke = now_ns() - t0;
    std::int64_t stepped = 0;
    while (!cluster_->read_done(key, reader)) {
      const std::int64_t dt = profile.step(sim);
      if (dt < 0) break;
      stepped += dt;
    }
    tally.invoke_read_ns += invoke;
    tally.harness_ns += (now_ns() - t0) - invoke - stepped;
    tally.read_msgs += cluster_->network().messages_sent() - sent0;
    ++tally.reads;
    const rqs::RoundNumber rounds = cluster_->reader(key, reader).last_read_rounds();
    tally.read_rounds += static_cast<std::uint64_t>(rounds);
    return {cluster_->last_read_value(key, reader), rounds};
  }

  RefinedQuorumSystem rqs_;
  ProcessSet byzantine_;
  std::uint64_t next_value_;
  std::unique_ptr<StorageCluster> cluster_;
  std::vector<Value> last_;  // the value this benchmark last wrote, per key
};

int role_of(rqs::ProcessId id, std::size_t servers) {
  if (id < servers) return kServer;
  const rqs::ProcessId block = static_cast<rqs::ProcessId>(1 + kReaders);
  return (id - rqs::storage::kWriterId) % block == 0 ? kWriter : kReader;
}

}  // namespace

void run_storage_steady(const Args& args, Report& report) {
  // --- set-up: system built and checked, clusters built, warm-up ---
  const RefinedQuorumSystem rqs = rqs::make_3t1_instantiation(kT);
  const std::int64_t check0 = now_ns();
  const bool valid = rqs.check().ok();
  const std::int64_t check_ns = now_ns() - check0;
  report.expect(valid, "3t+1 system fails Definition 2");
  // Values are distinct per run and per deployment; seed-dependent.
  const std::uint64_t base = (mix(args.seed ^ 0x5107a6e) >> 24) << 8;
  Deployment correct(rqs, ProcessSet{}, base);
  std::vector<std::unique_ptr<Deployment>> byz;
  for (rqs::ProcessId s = 0; s < rqs.universe_size(); ++s) {
    report.expect(rqs.adversary().contains(ProcessSet{s}),
                  "an amnesiac server is not an element of B");
    byz.push_back(std::make_unique<Deployment>(
        rqs, ProcessSet{s}, base + ((std::uint64_t{s} + 1) << 38)));
  }
  // The seed also picks which amnesiac deployment comes first.
  std::uint64_t turn = mix(args.seed) % byz.size();
  auto next_byz = [&]() -> Deployment& { return *byz[turn++ % byz.size()]; };
  auto rebuild_all = [&] {
    correct.rebuild();
    for (auto& d : byz) d->rebuild();
  };
  Tally warm;
  for (std::uint64_t r = 0; r < kWarmupRounds; ++r) {
    correct.round<false>(report, warm, nullptr);
    next_byz().round<false>(report, warm, nullptr);
  }
  rebuild_all();
  mark_setup_done();

  Tally tc, tb;
  std::uint64_t rounds_in_window = 0;
  auto plain_round = [&] {
    correct.round<false>(report, tc, nullptr);
    next_byz().round<false>(report, tb, nullptr);
    if (++rounds_in_window == kWindowRounds) {
      rounds_in_window = 0;
      rebuild_all();
    }
  };

  if (!args.trace) {
    Windows all(0);
    std::uint64_t ops_before = 0;
    const Timed t = run_windows(args.seconds, kWindowRounds, plain_round,
                                [&](std::int64_t ns) {
                                  all.close(tc.ops + tb.ops - ops_before, ns);
                                  ops_before = tc.ops + tb.ops;
                                  tc.win.close(tc.ops, ns);  // only p50s used
                                  tb.win.close(tb.ops, ns);
                                });
    const double rss = peak_rss_mib();
    report.attempted = tc.ops + tb.ops;
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("ops_per_s", all.rate(), "1/s");
    report.metric("op1_p50_us", tc.win.p50_us(kWinRead), "us");
    report.metric("op2_p50_us", tc.win.p50_us(kWinWrite), "us");
    report.metric("op3_p50_us", tb.win.p50_us(kWinRead), "us");
    report.line("storage_ops_per_s (fastest 2%)", all.rate(), "ops/s", all.windows());
    report.line("storage_ops_per_s (whole run)",
                ratio(static_cast<double>(report.attempted), static_cast<double>(t.ns) / 1e9),
                "ops/s");
    report.line("write_p50_us", tc.write_ns.percentile_us(50), "us", tc.write_ns.count());
    report.line("write_p99_us", tc.write_ns.percentile_us(99), "us", tc.write_ns.count());
    report.line("read_p50_us", tc.read_ns.percentile_us(50), "us", tc.read_ns.count());
    report.line("read_p99_us", tc.read_ns.percentile_us(99), "us", tc.read_ns.count());
    report.line("byz_write_p50_us", tb.write_ns.percentile_us(50), "us", tb.write_ns.count());
    report.line("byz_read_p50_us", tb.read_ns.percentile_us(50), "us", tb.read_ns.count());
    report.line("byz_read_p99_us", tb.read_ns.percentile_us(99), "us", tb.read_ns.count());
    return;
  }

  // --- traced run: first half untraced (the overhead baseline), second
  // half traced through the step profiler ---
  const Timed plain = run_for(args.seconds / 2, plain_round);
  const std::size_t n = rqs.universe_size();
  StepProfile pc([n](rqs::ProcessId id) { return role_of(id, n); });
  StepProfile pb([n](rqs::ProcessId id) { return role_of(id, n); });
  rqs::obs::Observer obs_c, obs_b;
  Tally xc, xb;
  SpanLog spans;
  const std::int64_t epoch = now_ns();
  auto attach = [&] {
    correct.cluster().sim().set_observer(&obs_c);
    for (auto& d : byz) d->cluster().sim().set_observer(&obs_b);
  };
  attach();
  rounds_in_window = 0;
  const Timed traced = run_for(args.seconds / 2, [&] {
    const std::int64_t r0 = now_ns();
    correct.round<true>(report, xc, &pc);
    const std::int64_t r1 = now_ns();
    next_byz().round<true>(report, xb, &pb);
    const std::int64_t r2 = now_ns();
    const std::uint32_t root = spans.add("round", r0 - epoch, r2 - epoch);
    spans.add("all_correct", r0 - epoch, r1 - epoch, root);
    spans.add("byzantine", r1 - epoch, r2 - epoch, root);
    if (++rounds_in_window == kWindowRounds) {
      rounds_in_window = 0;
      rebuild_all();
      attach();
    }
  });
  report.attempted = tc.ops + tb.ops + xc.ops + xb.ops;

  const double reads_c = static_cast<double>(xc.reads);
  const double reads_b = static_cast<double>(xb.reads);
  const double ops_c = static_cast<double>(xc.ops);
  const double ops_b = static_cast<double>(xb.ops);
  const double ops = ops_c + ops_b;
  report.metric("storage.reader.us_per_read",
                ratio((pc.role_ns(kReader) + xc.invoke_read_ns) / 1e3, reads_c), "us");
  report.metric("storage.reader.us_per_read.byz",
                ratio((pb.role_ns(kReader) + xb.invoke_read_ns) / 1e3, reads_b), "us");
  report.metric("storage.writer.us_per_write",
                ratio((pc.role_ns(kWriter) + xc.invoke_write_ns) / 1e3,
                      static_cast<double>(xc.writes)), "us");
  report.metric("storage.server.us_per_op", ratio(pc.role_ns(kServer) / 1e3, ops_c), "us");
  report.metric("storage.server.us_per_op.byz", ratio(pb.role_ns(kServer) / 1e3, ops_b), "us");
  report.metric("storage.harness.us_per_op",
                ratio((xc.harness_ns + xb.harness_ns) / 1e3, ops), "us");
  report.metric("storage.msgs_per_read", ratio(static_cast<double>(xc.read_msgs), reads_c), "count");
  report.metric("storage.msgs_per_write",
                ratio(static_cast<double>(xc.write_msgs), static_cast<double>(xc.writes)), "count");
  report.metric("storage.rounds_per_read.byz",
                ratio(static_cast<double>(xb.read_rounds), reads_b), "count");
  double rows = 0.0;
  double acks = 0.0;
  for (const rqs::obs::Observer* ob : {&obs_c, &obs_b}) {
    const rqs::obs::MetricsSnapshot snap = ob->metrics().snapshot();
    if (const auto* h = snap.histogram("storage.rdack.rows")) {
      rows += h->mean() * static_cast<double>(h->count());
      acks += static_cast<double>(h->count());
    }
  }
  report.metric("storage.rdack_rows_per_msg", ratio(rows, acks), "count");
  report.metric("sim.events_per_op",
                ratio(static_cast<double>(pc.steps() + pb.steps()), ops), "count");
  const StepProfile::Cell timers_c = pc.tag_total("TIMER");
  const StepProfile::Cell timers_b = pb.tag_total("TIMER");
  report.metric("sim.timer_us_per_op", ratio((timers_c.ns + timers_b.ns) / 1e3, ops), "us");
  report_step_costs(report, {&pc, &pb}, {"WR", "WR_ACK", "RD", "RD_ACK", "TIMER"});
  report.metric("core.check_us", check_ns / 1e3, "us");
  report.metric("trace.overhead_pct", overhead_pct(plain, traced), "%");
  if (!args.span_dir.empty()) {
    report.expect(spans.write(args.span_dir + "/storage_steady.spans.jsonl"),
                  "could not write spans");
  }
}

}  // namespace perfbench
