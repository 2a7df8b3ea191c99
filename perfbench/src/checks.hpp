// The benchmark's own correctness checks. Each is a pure function of what
// the program returned plus what the benchmark itself recorded, so a test
// can feed it a planted bad output (tests/checks_test.cpp). An empty
// string means the output passed; otherwise it says what is wrong.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mc/explorer.hpp"
#include "scenario/spec.hpp"
#include "scenario/swarm.hpp"

namespace perfbench::checks {

/// storage_steady: one op is outstanding at a time, so every read must
/// return exactly the value the benchmark last wrote to that key.
[[nodiscard]] std::string read_value(rqs::Value last_written,
                                     rqs::Value returned);

/// storage_steady: every op of the all-correct deployment takes exactly
/// one round; no op takes more than three.
[[nodiscard]] std::string op_rounds(bool all_correct,
                                    rqs::RoundNumber rounds);

/// consensus_decide: every learner learned, and all learned the same value.
[[nodiscard]] std::string agreement(
    const std::vector<std::optional<rqs::Value>>& learned);

/// consensus_decide: the decided value is one the benchmark proposed.
[[nodiscard]] std::string validity(rqs::Value decided,
                                   const std::vector<rqs::Value>& proposed);

/// consensus_decide: an uncontended all-correct instance learns in exactly
/// two message delays at every learner.
[[nodiscard]] std::string fast_path(
    const std::vector<std::optional<std::int64_t>>& learn_delays);

/// mc_fig1, broken-5: the exploration is complete and yields exactly one
/// violation class, a read inversion, whose schedule replays to a
/// violating state.
[[nodiscard]] std::string broken5_verdict(const rqs::scenario::ScenarioSpec& spec,
                                          const rqs::mc::McResult& result);

/// mc_fig1: a complete exploration with zero violations.
[[nodiscard]] std::string clean_verdict(const rqs::mc::McResult& result);

/// mc_fig1: naive and reduced search reached the same distinct-state set.
[[nodiscard]] std::string same_state_set(const rqs::mc::McResult& naive,
                                         const rqs::mc::McResult& reduced);

/// swarm: two reports of the same slice (different worker counts, or the
/// benchmark's own generate/run loop) carry the same digest.
[[nodiscard]] std::string same_digest(std::uint64_t a, std::uint64_t b);

/// swarm, fig1-hunt share: every reported failure is the Section 1.2 read
/// inversion.
[[nodiscard]] std::string hunt_failures(
    const std::vector<rqs::scenario::SwarmFailure>& failures);

/// swarm, known-fault reproducers: every violation of a reproducer that
/// fails is of the fault's kind (the runner's violation prefix).
[[nodiscard]] std::string known_fault(const std::string& kind,
                                      const std::vector<std::string>& violations);

/// swarm, fig1-hunt share: over a run, at least one read inversion was
/// found and the smallest shrunk reproducer has at most three entries
/// (shrink() is greedy, so single reproducers may stay larger).
[[nodiscard]] std::string hunt_outcome(std::uint64_t detections,
                                       std::size_t smallest_reproducer);

}  // namespace perfbench::checks
