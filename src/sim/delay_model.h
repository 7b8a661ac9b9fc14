#pragma once
// Per-gate propagation delays.
//
// Delay of a gate instance = base(type, fanin) * (1 + loadFactor*(fanout-1))
//                            * processJitter * agingScale.
// Process jitter is a per-instance multiplicative factor drawn once per
// device from N(1, sigma); it breaks arrival-time ties, which is what makes
// combinational races (and hence glitches / ISW early evaluation) visible,
// exactly as transistor-level simulation of a placed netlist would.

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace lpa {

struct DelayOptions {
  double loadFactorPerFanout = 0.15;
  /// Relative process-variation sigma; 0 = nominal delays (no draw).
  /// DelayModel throws std::invalid_argument for a negative, NaN or
  /// infinite value.
  double jitterSigma = 0.03;
  std::uint64_t deviceSeed = 0x5eedULL;  ///< identifies the device instance
};

/// Base (unloaded, fresh) delay in picoseconds of a cell.
double baseDelayPs(GateType t, int fanin);

/// Thread-safety / sharing contract: a DelayModel is rolled once per device
/// instance (the jitter draw in the constructor) and then shared by
/// reference among all EventSim clones of a worker pool — cloning a
/// simulator must NOT re-roll jitter, or the workers would simulate
/// different physical devices and break the acquisition determinism
/// contract (trace/acquisition.h). All accessors are const and safe to call
/// concurrently; the mutators (setAgingFactors/clearAging) may only run
/// while no simulation is in flight (SboxExperiment ages the device
/// strictly between acquisitions).
class DelayModel {
 public:
  DelayModel(const Netlist& nl, const DelayOptions& opts = {});

  /// Current delay of gate `id` in ps (includes load, jitter, aging).
  double delayPs(NetId id) const { return delays_[id]; }
  const std::vector<double>& delays() const { return delays_; }

  /// Applies per-gate aging delay-degradation factors (>= 1), replacing any
  /// previously applied aging (factors compose with the fresh baseline).
  void setAgingFactors(const std::vector<double>& delayScale);

  /// Resets to the fresh (unaged) device.
  void clearAging();

  /// Multiplies gate `id`'s delay by `factor` (> 0). This is the
  /// delay-inflation fault overlay: it scales the fresh baseline too, so
  /// the inflation persists across setAgingFactors/clearAging. Only call
  /// on a private (cloned) model — never on one shared by a worker pool.
  void scaleDelay(NetId id, double factor);

 private:
  std::vector<double> fresh_;
  std::vector<double> delays_;
};

}  // namespace lpa
