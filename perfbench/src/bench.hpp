// Shared plumbing of the latency-ladder benchmark: command-line arguments,
// wall-clock sampling, the report printed as the last stdout line, and the
// traced-run step profiler that charges each Simulation::step() to the
// receiving role and message type.
#pragma once

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. Every workload is one thread that never
/// blocks, so this is its wall time less the spans in which the thread did
/// not run (preempted, or its vCPU not scheduled by the host). It costs a
/// system call, so it times windows, batches and explorations, never one op.
[[nodiscard]] inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// splitmix64: turns the --seed argument into workload inputs.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string span_dir;  ///< traced runs write their spans here (optional)
};

/// Wall-clock latency samples in nanoseconds, kept in a log-linear
/// histogram (128 sub-buckets per octave, under 0.8% relative bucket
/// width) so memory stays fixed however many ops a run completes.
/// Percentiles interpolate linearly by rank inside the bucket.
class Samples {
 public:
  void add(std::int64_t ns) {
    ++counts_[index(static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns)))];
    ++n_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double percentile_us(double p) const {
    if (n_ == 0) return 0.0;
    const double rank = std::max(1.0, p / 100.0 * static_cast<double>(n_));
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0 || static_cast<double>(before + c) < rank) {
        before += c;
        continue;
      }
      const double within = (rank - static_cast<double>(before) - 0.5) /
                            static_cast<double>(c);
      return (static_cast<double>(lower(i)) +
              static_cast<double>(width(i)) * std::clamp(within, 0.0, 1.0)) /
             1e3;
    }
    return 0.0;
  }

 private:
  static constexpr std::size_t kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const auto shift = static_cast<std::size_t>(63 - __builtin_clzll(v)) - kSubBits;
    return (shift + 1) * kSub + static_cast<std::size_t>(v >> shift) - kSub;
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t shift = i / kSub - 1;
    return static_cast<std::uint64_t>(kSub + i % kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(64 * kSub);
  std::uint64_t n_{0};
};

/// Linear-interpolation quantile, q in [0, 1].
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Per-window figures of a run, summarized by their fastest 2%. On a
/// shared host the speed of a core drifts in phases of seconds to minutes:
/// a neighbour's load slows every op of a phase by up to 1.9x (most on the
/// allocation-heavy swarm), and under heavy load only a few short spells
/// per run still run at the uncontended speed. The fastest 2% of windows
/// catch those spells unless 98% of a run is slowed, while a change to the
/// program moves every window. Window throughputs are taken on the
/// thread's CPU clock (cpu_ns), per-op latencies on the wall clock (a
/// preemption lands in one op, which a median ignores). Each workload
/// sizes its windows so that every window holds its periodic costs
/// (cluster rebuilds, shrinks). README.md shows the measurement.
class Windows {
 public:
  /// `fast` is the quantile taken of latencies (1 - fast of throughputs):
  /// the fastest 2% by default; 0 (the fastest window) where a run has
  /// only a handful of windows.
  explicit Windows(std::size_t populations, double fast = 0.02)
      : cur_(populations), totals_(populations), p50s_(populations), fast_(fast) {}
  /// One operation's latency; the window's figure is the median.
  void add(std::size_t population, std::int64_t ns) { cur_[population].add(ns); }
  /// `n` operations that took `ns` together; for a population fed this
  /// way the window's figure is the mean, so rare costly ops count in full.
  void add_total(std::size_t population, std::int64_t ns, std::uint64_t n) {
    totals_[population].first += ns;
    totals_[population].second += n;
  }
  /// Ends a window in which `ops` operations took `ns` of CPU time.
  void close(std::uint64_t ops, std::int64_t ns) {
    if (ns > 0) rates_.push_back(static_cast<double>(ops) * 1e9 / static_cast<double>(ns));
    for (std::size_t i = 0; i < cur_.size(); ++i) {
      if (cur_[i].count() > 0) p50s_[i].push_back(cur_[i].percentile_us(50));
      if (totals_[i].second > 0) {
        p50s_[i].push_back(static_cast<double>(totals_[i].first) / 1e3 /
                           static_cast<double>(totals_[i].second));
      }
      cur_[i] = Samples();
      totals_[i] = {};
    }
  }
  /// The faster end of the per-window throughputs (ops/s).
  [[nodiscard]] double rate() const { return quantile(rates_, 1.0 - fast_); }
  /// The faster end of the per-window latencies (us).
  [[nodiscard]] double p50_us(std::size_t population) const {
    return quantile(p50s_[population], fast_);
  }
  [[nodiscard]] std::size_t windows() const noexcept { return rates_.size(); }

 private:
  std::vector<Samples> cur_;
  std::vector<std::pair<std::int64_t, std::uint64_t>> totals_;  // ns, ops
  std::vector<std::vector<double>> p50s_;
  std::vector<double> rates_;
  double fast_;
};

/// What one workload run reports. `metrics` become the JSON object of the
/// last stdout line; `lines` are printed above it for people.
struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> lines;
  std::vector<std::string> problems;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), {value, std::move(unit)}});
  }
  void line(const std::string& label, double value, const char* unit,
            std::size_t samples = 0) {
    char buf[160];
    if (samples > 0) {
      std::snprintf(buf, sizeof(buf), "  %-34s %14.3f %-10s (n=%zu)",
                    label.c_str(), value, unit, samples);
    } else {
      std::snprintf(buf, sizeof(buf), "  %-34s %14.3f %s", label.c_str(),
                    value, unit);
    }
    lines.emplace_back(buf);
  }
  /// Records a failed correctness check; the run reports correct=false.
  void reject(std::string why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(why));
  }
  void expect(bool ok, const std::string& why) {
    if (!ok) reject(why);
  }
  /// Charges one operation's verdict (empty = it passed): a failing op is
  /// counted in `failed`, once, and the run reports correct=false.
  void op_verdict(const std::string& verdict) {
    if (verdict.empty()) return;
    ++failed;
    reject(verdict);
  }
};

/// Runs `round` until `seconds` have elapsed, always finishing the round
/// in progress (so every run attempts whole rounds). Returns the rounds
/// completed, their wall time, and each round's wall time.
struct Timed {
  std::uint64_t rounds{0};
  std::int64_t ns{0};
  std::vector<double> round_ns;
};
template <typename Round>
Timed run_for(double seconds, Round&& round) {
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  Timed t;
  do {
    const std::int64_t r0 = now_ns();
    round();
    const std::int64_t r1 = now_ns();
    t.round_ns.push_back(static_cast<double>(r1 - r0));
    ++t.rounds;
    t.ns = r1 - start;
  } while (t.ns < budget);
  return t;
}

/// trace.overhead_pct: the traced half's faster-quartile round time against
/// the untraced half's.
[[nodiscard]] inline double overhead_pct(const Timed& plain, const Timed& traced) {
  const double base = quantile(plain.round_ns, 0.25);
  return base > 0.0 ? 100.0 * (quantile(traced.round_ns, 0.25) / base - 1.0) : 0.0;
}

/// Moves the calling thread from CPU to CPU, in turn over the CPUs it may
/// run on, and gives it back its own CPU mask when destroyed. On a shared
/// host one vCPU can run 1.4x slower than the others for seconds, while
/// the scheduler keeps a busy thread where it is; moving every window
/// lets a run's windows sample every CPU instead of the one it started on.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (moved_) sched_setaffinity(0, sizeof(mask_), &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof(one), &one) == 0 || moved_;
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  std::size_t turn_{0};
  bool moved_{false};
};

/// run_for, calling close(window_cpu_ns) every `window_rounds` rounds and
/// once more for a final partial window. Each window runs on the next CPU
/// (CpuRotation); the thread's CPU mask is restored on return.
template <typename Round, typename Close>
Timed run_windows(double seconds, std::uint64_t window_rounds, Round&& round,
                  Close&& close) {
  CpuRotation cpus;
  cpus.next();
  std::int64_t start = cpu_ns();
  std::uint64_t in_window = 0;
  const Timed t = run_for(seconds, [&] {
    round();
    if (++in_window == window_rounds) {
      close(cpu_ns() - start);
      cpus.next();
      start = cpu_ns();
      in_window = 0;
    }
  });
  if (in_window > 0) close(cpu_ns() - start);
  return t;
}

/// One recorded span: name, start/end (ns since the run's epoch) and the
/// span that caused it (0 = root). Kept in memory, written when the run
/// ends.
struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::uint32_t id;
  std::uint32_t parent;
};

class SpanLog {
 public:
  static constexpr std::size_t kCap = 200000;
  std::uint32_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint32_t parent = 0) {
    const auto id = static_cast<std::uint32_t>(++issued_);
    if (spans_.size() < kCap) spans_.push_back({name, start, end, id, parent});
    return id;
  }
  /// Writes one JSON object per span; returns false if the file can't open.
  bool write(const std::string& path) const;

 private:
  std::uint64_t issued_{0};
  std::vector<Span> spans_;
};

/// Traced-run profiler: before each step it peeks the next event through
/// Simulation's queue accessors (the heap top is queued_event(0)) and
/// charges the step's wall time to (receiver role, message tag or TIMER /
/// CALLBACK). schedule_at callbacks belong to no process and go to
/// kHarnessRole.
class StepProfile {
 public:
  static constexpr int kRoles = 4;
  static constexpr int kHarnessRole = kRoles - 1;
  struct Cell {
    std::int64_t ns{0};
    std::uint64_t n{0};
  };

  /// role_of maps a process id to a role index in [0, kRoles).
  explicit StepProfile(std::function<int(rqs::ProcessId)> role_of)
      : role_of_(std::move(role_of)) {}

  /// Fires one event; returns its wall time in ns, or -1 if the queue was
  /// empty.
  std::int64_t step(rqs::sim::Simulation& s) {
    if (s.idle()) return -1;
    const rqs::sim::Event& ev = s.queued_event(0);
    std::size_t tag = 0;
    int role = 0;
    switch (ev.kind()) {
      case rqs::sim::Event::kDelivery:
        tag = intern(ev.delivery.msg->tag());
        role = role_of_(ev.delivery.to);
        break;
      case rqs::sim::Event::kTimer:
        tag = intern("TIMER");
        role = role_of_(ev.timer.owner);
        break;
      default:
        tag = intern("CALLBACK");
        role = kHarnessRole;
        break;
    }
    const std::int64_t t0 = now_ns();
    s.step();
    const std::int64_t dt = now_ns() - t0;
    Cell& c = cells_[tag][static_cast<std::size_t>(role)];
    c.ns += dt;
    ++c.n;
    ++steps_;
    return dt;
  }

  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  /// Summed wall time of one role, over every tag (or one tag).
  [[nodiscard]] std::int64_t role_ns(int role) const {
    std::int64_t sum = 0;
    for (const auto& row : cells_) sum += row[static_cast<std::size_t>(role)].ns;
    return sum;
  }
  /// (ns, events) of one tag over every role.
  [[nodiscard]] Cell tag_total(std::string_view tag) const {
    Cell out;
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != tag) continue;
      for (const Cell& c : cells_[i]) {
        out.ns += c.ns;
        out.n += c.n;
      }
    }
    return out;
  }
 private:
  std::size_t intern(std::string_view tag) {
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] == tag) return i;
    }
    tags_.emplace_back(tag);
    cells_.emplace_back();
    return tags_.size() - 1;
  }

  std::function<int(rqs::ProcessId)> role_of_;
  std::vector<std::string> tags_;
  std::vector<std::array<Cell, kRoles>> cells_;
  std::uint64_t steps_{0};
};

/// Reports sim.<TAG>.ns_per_msg (sim.TIMER.ns_per_event) summed over the
/// given profiles: the self time of one step of that kind.
inline void report_step_costs(Report& report,
                              std::initializer_list<const StepProfile*> profiles,
                              std::initializer_list<std::string_view> tags) {
  for (const std::string_view tag : tags) {
    StepProfile::Cell sum;
    for (const StepProfile* p : profiles) {
      const StepProfile::Cell c = p->tag_total(tag);
      sum.ns += c.ns;
      sum.n += c.n;
    }
    report.metric("sim." + std::string(tag) +
                      (tag == "TIMER" ? ".ns_per_event" : ".ns_per_msg"),
                  sum.n == 0 ? 0.0
                             : static_cast<double>(sum.ns) / static_cast<double>(sum.n),
                  "ns");
  }
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Per-layer metrics every traced run reports; a workload that does not
/// reach a layer leaves its metrics at 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog();

// Workloads. Each fills the report; untraced runs report the end-to-end
// metrics, traced runs the per-layer ones.
void run_storage_steady(const Args& args, Report& report);
void run_consensus_decide(const Args& args, Report& report);
void run_swarm_workload(const Args& args, Report& report);
void run_mc_fig1(const Args& args, Report& report);

/// Marks the end of set-up: systems built and checked, clusters built,
/// warm-up done. Printed as the CLOCK_MONOTONIC instant, so the caller
/// that spawned the process measures set-up from the process's start.
void mark_setup_done();

}  // namespace perfbench
