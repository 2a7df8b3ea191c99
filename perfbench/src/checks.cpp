#include "checks.hpp"

#include <algorithm>

#include "mc/execution.hpp"

namespace perfbench::checks {

namespace {

bool mentions_read_inversion(const std::string& s) {
  return s.find("read inversion") != std::string::npos;
}

}  // namespace

std::string read_value(rqs::Value last_written, rqs::Value returned) {
  if (returned == last_written) return {};
  return "read returned " + std::to_string(returned) + ", last write was " +
         std::to_string(last_written);
}

std::string op_rounds(bool all_correct, rqs::RoundNumber rounds) {
  if (all_correct && rounds != 1) {
    return "all-correct op took " + std::to_string(rounds) + " rounds";
  }
  if (rounds < 1 || rounds > 3) {
    return "op took " + std::to_string(rounds) + " rounds (ladder allows 1..3)";
  }
  return {};
}

std::string agreement(const std::vector<std::optional<rqs::Value>>& learned) {
  if (learned.empty()) return "no learners";
  for (std::size_t i = 0; i < learned.size(); ++i) {
    if (!learned[i]) return "learner " + std::to_string(i) + " never learned";
    if (*learned[i] != *learned[0]) {
      return "learners disagree: " + std::to_string(*learned[0]) + " vs " +
             std::to_string(*learned[i]);
    }
  }
  return {};
}

std::string validity(rqs::Value decided, const std::vector<rqs::Value>& proposed) {
  if (std::find(proposed.begin(), proposed.end(), decided) != proposed.end()) {
    return {};
  }
  return "decided " + std::to_string(decided) + ", which nobody proposed";
}

std::string fast_path(const std::vector<std::optional<std::int64_t>>& delays) {
  for (std::size_t i = 0; i < delays.size(); ++i) {
    if (!delays[i] || *delays[i] != 2) {
      return "uncontended all-correct instance: learner " + std::to_string(i) +
             " took " + (delays[i] ? std::to_string(*delays[i]) : "inf") +
             " delays, expected 2";
    }
  }
  return delays.empty() ? "no learners" : "";
}

std::string broken5_verdict(const rqs::scenario::ScenarioSpec& spec,
                            const rqs::mc::McResult& r) {
  if (!r.error.empty()) return "broken-5 spec rejected: " + r.error;
  if (!r.complete) return "broken-5 exploration incomplete";
  if (r.violations.size() != 1) {
    return "broken-5: expected one violation class, got " +
           std::to_string(r.violations.size());
  }
  const rqs::mc::McViolation& v = r.violations.front();
  if (!mentions_read_inversion(v.signature)) {
    return "broken-5 violation is not a read inversion: " + v.signature;
  }
  rqs::mc::McExecution exec(spec);
  for (const rqs::mc::Choice& c : v.schedule) {
    if (!exec.fire(c)) return "broken-5 violating schedule does not replay";
  }
  std::vector<std::string> found;
  exec.violations(found);
  if (found.empty()) return "broken-5 schedule replays to a clean state";
  return {};
}

std::string clean_verdict(const rqs::mc::McResult& r) {
  if (!r.error.empty()) return "spec rejected: " + r.error;
  if (!r.complete) return "exploration incomplete";
  if (!r.violations.empty()) return "violation: " + r.violations[0].signature;
  return {};
}

std::string same_state_set(const rqs::mc::McResult& naive,
                           const rqs::mc::McResult& reduced) {
  if (!naive.complete || !reduced.complete) return "differential incomplete";
  if (naive.state_digests.empty()) return "no state digests collected";
  if (naive.state_digests != reduced.state_digests) {
    return "naive search reached " + std::to_string(naive.state_digests.size()) +
           " distinct states, DPOR " +
           std::to_string(reduced.state_digests.size());
  }
  return {};
}

std::string same_digest(std::uint64_t a, std::uint64_t b) {
  if (a == b) return {};
  return "swarm digests differ: " + std::to_string(a) + " vs " +
         std::to_string(b);
}

std::string hunt_failures(
    const std::vector<rqs::scenario::SwarmFailure>& failures) {
  for (const rqs::scenario::SwarmFailure& f : failures) {
    const bool inversion =
        std::any_of(f.violations.begin(), f.violations.end(),
                    mentions_read_inversion);
    if (!inversion) {
      return "fig1-hunt seed " + std::to_string(f.seed) +
             " failed without a read inversion";
    }
  }
  return {};
}

std::string known_fault(const std::string& kind,
                        const std::vector<std::string>& violations) {
  for (const std::string& v : violations) {
    if (v.rfind(kind, 0) != 0) return "known " + kind + " fault reproducer: " + v;
  }
  return {};
}

std::string hunt_outcome(std::uint64_t detections,
                         std::size_t smallest_reproducer) {
  if (detections == 0) return "the fig1-hunt share found no read inversion";
  if (smallest_reproducer > 3) {
    return "smallest fig1-hunt reproducer has " +
           std::to_string(smallest_reproducer) + " entries (bar: 3)";
  }
  return {};
}

}  // namespace perfbench::checks
