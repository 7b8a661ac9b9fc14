#pragma once
// Per-gate stress-profile extraction.
//
// Aging depends on how each gate is exercised in the field: the fraction of
// time its output sits high (BTI stress duty for the PMOS network; the
// complement stresses the NMOS network) and how often it toggles per clock
// cycle (HCI). Profiles are accumulated from representative operation:
// settled states contribute duty, event logs contribute toggle counts.
//
// Cycles of a profiling chain are independent of one another. A run drains
// the event queue, and the netlists are acyclic (validateOrThrow rejects
// combinational cycles), so the state a cycle leaves behind is exactly the
// combinational evaluation of its inputs — what settle() on those inputs
// establishes. Cycle c of a chain over stimuli x[0..C] is therefore the
// standalone pair settle(x[c]), run(x[c+1]), and any partition of the
// cycles over lanes and workers tallies the same integer counts. Partial
// accumulators combine with merge(); finalize() is the only division, so the
// profile is bit-identical however the cycles were split.

#include <cstdint>
#include <vector>

#include "sim/waveform.h"

namespace lpa {

struct StressProfile {
  std::vector<double> dutyHigh;        ///< P(output == 1), per net
  std::vector<double> togglesPerCycle; ///< mean committed transitions, per net
};

class StressAccumulator {
 public:
  explicit StressAccumulator(std::size_t numNets);

  /// Accounts one settled clock state (values of every net).
  void addSettledState(const std::vector<std::uint8_t>& netValues);

  /// Accounts the transitions of one evaluation cycle.
  void addTransitions(const std::vector<Transition>& transitions);

  /// Adds another accumulator's tallies (exact integer sums, so merge order
  /// never matters). Throws std::invalid_argument on a net count mismatch.
  void merge(const StressAccumulator& other);

  /// Number of settled states seen so far.
  std::uint64_t states() const { return states_; }

  StressProfile finalize() const;

 private:
  std::vector<std::uint64_t> highCount_;
  std::vector<std::uint64_t> toggleCount_;
  std::uint64_t states_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace lpa
