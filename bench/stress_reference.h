#pragma once
// Reference stress-profile chain: the sequential EventSim loop that
// SboxExperiment::stressProfile() ran before it moved onto the batch engine.
// It is the oracle of that path — tests/test_aging.cpp asserts the two are
// bit-identical, and bench_acquire_scaling times one against the other
// (stress_speedup).

#include <cstdint>
#include <cstring>
#include <vector>

#include "aging/stress.h"
#include "sboxes/masked_sbox.h"
#include "sim/delay_model.h"
#include "sim/event_sim.h"
#include "trace/prng.h"

namespace lpa::bench {

/// `cycles` sequential cycles on one EventSim: settle on the first random
/// encoding, then run each next one, tallying the transitions and the
/// settled state of every cycle.
inline StressProfile referenceStressProfile(const MaskedSbox& sbox,
                                            const DelayModel& delays,
                                            const SimOptions& options,
                                            std::uint32_t cycles,
                                            std::uint64_t seed) {
  const Netlist& nl = sbox.netlist();
  StressAccumulator acc(nl.numGates());
  Prng rng(seed);
  EventSim sim(nl, delays, options);
  sim.settle(sbox.encode(rng.nibble(), rng));
  std::vector<std::uint8_t> state(nl.numGates());
  for (std::uint32_t c = 0; c < cycles; ++c) {
    acc.addTransitions(sim.run(sbox.encode(rng.nibble(), rng)));
    for (NetId i = 0; i < nl.numGates(); ++i) state[i] = sim.value(i);
    acc.addSettledState(state);
  }
  return acc.finalize();
}

/// Bytewise equality of two profiles: bit identity, not numeric equality.
inline bool bitIdentical(const StressProfile& a, const StressProfile& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return same(a.dutyHigh, b.dutyHigh) &&
         same(a.togglesPerCycle, b.togglesPerCycle);
}

}  // namespace lpa::bench
