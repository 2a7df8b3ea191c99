// rqs_perfbench: one workload per process.
//
//   rqs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--span-dir <dir>]
//
// Human-readable lines first; the last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. The line
// "setup_done_monotonic_ns <t>" marks the end of set-up on CLOCK_MONOTONIC
// (perfbench/run.py subtracts the spawn instant to get setup_s).
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mib() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // would also count the parent's image from before exec.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void mark_setup_done() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  std::printf("setup_done_monotonic_ns %lld\n",
              static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec);
  std::fflush(stdout);
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
        << "}\n";
  }
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      // rqs_storage (storage_steady)
      {"storage.reader.us_per_read", "us"},
      {"storage.reader.us_per_read.byz", "us"},
      {"storage.writer.us_per_write", "us"},
      {"storage.server.us_per_op", "us"},
      {"storage.server.us_per_op.byz", "us"},
      {"storage.harness.us_per_op", "us"},
      {"storage.msgs_per_read", "count"},
      {"storage.msgs_per_write", "count"},
      {"storage.rounds_per_read.byz", "count"},
      {"storage.rdack_rows_per_msg", "count"},
      // rqs_sim (storage_steady, consensus_decide)
      {"sim.events_per_op", "count"},
      {"sim.timer_us_per_op", "us"},
      {"sim.WR.ns_per_msg", "ns"},
      {"sim.WR_ACK.ns_per_msg", "ns"},
      {"sim.RD.ns_per_msg", "ns"},
      {"sim.RD_ACK.ns_per_msg", "ns"},
      {"sim.PREPARE.ns_per_msg", "ns"},
      {"sim.UPDATE1.ns_per_msg", "ns"},
      {"sim.UPDATE2.ns_per_msg", "ns"},
      {"sim.UPDATE3.ns_per_msg", "ns"},
      {"sim.NEW_VIEW.ns_per_msg", "ns"},
      {"sim.NEW_VIEW_ACK.ns_per_msg", "ns"},
      {"sim.SIGN_REQ.ns_per_msg", "ns"},
      {"sim.SIGN_ACK.ns_per_msg", "ns"},
      {"sim.VIEW_CHANGE.ns_per_msg", "ns"},
      {"sim.DECISION.ns_per_msg", "ns"},
      {"sim.DECISION_PULL.ns_per_msg", "ns"},
      {"sim.SYNC.ns_per_msg", "ns"},
      {"sim.TIMER.ns_per_event", "ns"},
      // rqs_consensus (consensus_decide)
      {"consensus.build_us", "us"},
      {"consensus.acceptor.us_per_decision", "us"},
      {"consensus.learner.us_per_decision", "us"},
      {"consensus.proposer.us_per_decision", "us"},
      {"consensus.msgs_per_decision", "count"},
      {"consensus.update2_per_decision", "count"},
      {"consensus.view_changes_per_decision", "count"},
      // rqs_core
      {"core.check_us", "us"},
      {"core.materialize_us", "us"},
      // rqs_scenario (swarm)
      {"scenario.generate_us", "us"},
      {"scenario.run_storage_us", "us"},
      {"scenario.run_consensus_us", "us"},
      {"scenario.shrink_us", "us"},
      {"scenario.shrink_runs", "count"},
      {"scenario.msgs_per_scenario", "count"},
      // rqs_mc (mc_fig1)
      {"mc.transitions_per_arrival", "count"},
      {"mc.replays_per_arrival", "count"},
      {"mc.sleep_pruned", "count"},
      {"mc.cache_pruned", "count"},
      {"mc.us_per_transition", "us"},
      // every workload
      {"trace.overhead_pct", "%"},
  };
  return kCatalog;
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rqs_perfbench: %s\nusage: rqs_perfbench --workload "
               "storage_steady|consensus_decide|swarm|mc_fig1 --seed N "
               "--seconds S --trace 0|1 [--span-dir DIR]\n",
               why);
  return 2;
}

void print_json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 120.0) {
        return usage("bad --seconds (0 < s <= 120)");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--span-dir") {
      args.span_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report;
  if (args.workload == "storage_steady") {
    perfbench::run_storage_steady(args, report);
  } else if (args.workload == "consensus_decide") {
    perfbench::run_consensus_decide(args, report);
  } else if (args.workload == "swarm") {
    perfbench::run_swarm_workload(args, report);
  } else if (args.workload == "mc_fig1") {
    perfbench::run_mc_fig1(args, report);
  } else {
    return usage("unknown --workload");
  }

  if (args.trace) {
    // Every traced run reports the whole per-layer catalog; layers this
    // workload does not reach stay 0.
    decltype(report.metrics) full;
    for (const auto& [name, unit] : perfbench::per_layer_catalog()) {
      double value = 0.0;
      for (const auto& m : report.metrics) {
        if (m.first == name) value = m.second.first;
      }
      full.push_back({name, {value, unit}});
    }
    report.metrics = std::move(full);
  }

  std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  for (const std::string& l : report.lines) std::printf("%s\n", l.c_str());
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, vu] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    print_json_number(vu.first);
    std::printf(", \"unit\": \"%s\"}", vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
