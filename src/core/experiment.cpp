#include "core/experiment.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "sim/compiled_design.h"
#include "trace/prng.h"
#include "trace/sharded_pool.h"

namespace lpa {

SboxExperiment::SboxExperiment(SboxStyle style, const ExperimentConfig& cfg)
    : cfg_(cfg),
      sbox_(makeSbox(style)),
      delays_(sbox_->netlist(), cfg.delay),
      power_(sbox_->netlist(), cfg.power),
      sim_(sbox_->netlist(), delays_, cfg.sim) {
  if (cfg_.observe) {
    sim_.attachMetrics(&obs::MetricsRegistry::global());
    power_.attachMetrics(&obs::MetricsRegistry::global());
  }
}

const StressProfile& SboxExperiment::stressProfile() {
  if (!stress_) {
    obs::Span span("stress.profile (" + std::string(sbox_->name()) + ", " +
                   std::to_string(cfg_.stressCycles) + " cycles)");
    const std::size_t numGates = sbox_->netlist().numGates();
    const std::size_t cycles = cfg_.stressCycles;
    // Representative field operation: random texts with fresh masks each
    // cycle, drawn serially from one stream. Cycle c settles on stimulus c
    // and runs stimulus c + 1; duty comes from the settled states, toggles
    // from the events. The cycles are independent (aging/stress.h), so lane
    // l of group g is cycle 64g + l and the groups shard over the pool.
    Prng rng(cfg_.stressSeed);
    std::vector<std::vector<std::uint8_t>> stimuli(cycles + 1);
    for (std::vector<std::uint8_t>& x : stimuli) {
      x = sbox_->encode(rng.nibble(), rng);
    }
    const CompiledDesign design(sbox_->netlist(), delays_, power_);
    const std::size_t numGroups =
        (cycles + BatchSim::kLanes - 1) / BatchSim::kLanes;
    const std::uint32_t threads =
        resolveWorkerThreads(cfg_.acquisition.numThreads, numGroups);
    BatchEngineLease engines(
        design, cfg_.sim, threads,
        cfg_.observe ? &obs::MetricsRegistry::global() : nullptr, nullptr);
    std::vector<StressAccumulator> tallies(threads,
                                           StressAccumulator(numGates));
    detail::shardedFor(
        numGroups, threads,
        [&](std::uint32_t w, std::size_t g) {
          BatchSim& sim = engines[w];
          const auto first = stimuli.begin() + g * BatchSim::kLanes;
          const std::size_t lanes = std::min<std::size_t>(
              BatchSim::kLanes, cycles - g * BatchSim::kLanes);
          sim.settle({first, first + lanes});
          sim.run({first + 1, first + lanes + 1});
          std::vector<std::uint8_t> state(numGates);
          for (std::uint32_t l = 0; l < lanes; ++l) {
            tallies[w].addTransitions(sim.laneTransitions(l));
            for (NetId i = 0; i < numGates; ++i) state[i] = sim.value(i, l);
            tallies[w].addSettledState(state);
          }
        },
        [&](std::size_t g) {
          return "stress cycles [" + std::to_string(g * BatchSim::kLanes) +
                 ", " +
                 std::to_string(std::min<std::size_t>(
                     cycles, (g + 1) * BatchSim::kLanes)) +
                 ") (style " + std::string(sbox_->name()) + ")";
        },
        nullptr, "stress.profile");
    for (std::size_t w = 1; w < tallies.size(); ++w) {
      tallies[0].merge(tallies[w]);
    }
    stress_ = std::make_unique<StressProfile>(tallies[0].finalize());
  }
  return *stress_;
}

AgingFactors SboxExperiment::agingFactorsAt(double months) {
  const StressProfile& profile = stressProfile();
  obs::Span span("aging.evaluate (" + std::to_string(months) + " months)");
  const AgingModel model(cfg_.aging);
  return model.evaluate(profile, months);
}

void SboxExperiment::applyAge(double months) {
  if (months <= 0.0) {
    delays_.clearAging();
    power_.clearAging();
    return;
  }
  const AgingFactors f = agingFactorsAt(months);
  delays_.setAgingFactors(f.delayScale);
  power_.setAgingFactors(f.amplitudeScale);
}

TraceSet SboxExperiment::acquireAt(double months) {
  applyAge(months);
  return acquire(*sbox_, sim_, power_, cfg_.acquisition);
}

SpectralAnalysis SboxExperiment::analyzeAt(double months,
                                           EstimatorMode mode) {
  const TraceSet traces = acquireAt(months);
  return SpectralAnalysis(traces, 0, mode);
}

stats::AdaptiveResult SboxExperiment::adaptiveAcquireAt(
    double months, const stats::StreamingLeakage::Options& statsOpt) {
  applyAge(months);
  return stats::adaptiveAcquire(*sbox_, sim_, power_, cfg_.acquisition,
                                statsOpt);
}

jobs::ResilientResult SboxExperiment::resilientAcquireAt(
    double months, const jobs::JobConfig& job) {
  applyAge(months);
  jobs::JobConfig j = job;
  // Fold the age into the fingerprint: a checkpoint taken at one age must
  // not resume a run at another (aging rescales the power model, so the
  // result bits differ even though AcquisitionConfig is identical).
  std::uint64_t monthsBits = 0;
  std::memcpy(&monthsBits, &months, sizeof(monthsBits));
  j.fingerprintExtra = mix64(j.fingerprintExtra ^ monthsBits);
  return jobs::resilientAcquire(*sbox_, sim_, power_, cfg_.acquisition, j);
}

void SboxExperiment::attachProfiler(obs::Profiler* profiler) {
  cfg_.acquisition.profiler = profiler;
  sim_.attachProfiler(profiler);
  power_.attachProfiler(profiler);
}

stats::LeakageEstimate SboxExperiment::estimateAt(double months,
                                                  EstimatorMode mode) {
  const TraceSet traces = acquireAt(months);
  stats::StreamingLeakage::Options opt;
  opt.mode = mode;
  stats::StreamingLeakage stream(traces.numSamples(), opt);
  stream.addTraceSet(traces);
  return stream.estimate();
}

}  // namespace lpa
