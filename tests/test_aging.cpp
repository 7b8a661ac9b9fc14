#include "aging/aging_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bench/stress_reference.h"
#include "core/experiment.h"
#include "obs/event_journal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sboxes/masked_sbox.h"

namespace lpa {
namespace {

TEST(Bti, DriftGrowsSublinearlyInTime) {
  const BtiModel m;
  const double d1 = m.longTermDriftV(12, 1.0);
  const double d2 = m.longTermDriftV(24, 1.0);
  const double d3 = m.longTermDriftV(36, 1.0);
  EXPECT_GT(d1, 0.0);
  EXPECT_GT(d2, d1);
  EXPECT_GT(d3, d2);
  // Saturating: equal time increments add progressively less drift.
  EXPECT_LT(d2 - d1, d1);
  EXPECT_LT(d3 - d2, d2 - d1 + 1e-12);
}

TEST(Bti, DutyDependenceAndZeroCases) {
  const BtiModel m;
  EXPECT_EQ(m.longTermDriftV(0.0, 1.0), 0.0);
  EXPECT_EQ(m.longTermDriftV(48.0, 0.0), 0.0);
  EXPECT_GT(m.longTermDriftV(48.0, 1.0), m.longTermDriftV(48.0, 0.5));
  EXPECT_GT(m.longTermDriftV(48.0, 0.5), m.longTermDriftV(48.0, 0.1));
}

TEST(Bti, AlternatingStressRecoveryStaysBelowContinuous) {
  // Fig. 1 of the paper: a device stressed every other month drifts less
  // than one under continuous stress.
  const BtiModel m;
  const auto continuous =
      m.simulatePhases(6.0, 1.0, [](int) { return true; });
  const auto alternating =
      m.simulatePhases(6.0, 1.0, [](int i) { return i % 2 == 0; });
  ASSERT_EQ(continuous.size(), alternating.size());
  EXPECT_GT(continuous.back().driftV, alternating.back().driftV);
  // Both trajectories are non-negative and the continuous one is monotone.
  for (std::size_t i = 1; i < continuous.size(); ++i) {
    EXPECT_GE(continuous[i].driftV, continuous[i - 1].driftV);
    EXPECT_GE(alternating[i].driftV, 0.0);
  }
  // Recovery phases actually reduce the drift.
  EXPECT_LT(alternating[2].driftV, alternating[1].driftV);
}

TEST(Bti, RecoveryNeverGoesNegativeAndKeepsPermanentPart) {
  const BtiModel m;
  BtiState s = m.stressStep(BtiState{}, 12.0);
  const double total = s.totalV();
  const double permanent = s.permanentV;
  EXPECT_NEAR(permanent, (1.0 - m.params().recoverableFraction) * total,
              1e-12);
  for (int i = 0; i < 100; ++i) s = m.recoveryStep(s, 1.0);
  EXPECT_NEAR(s.totalV(), permanent, 1e-9);
  EXPECT_LT(s.totalV(), total);
}

TEST(Bti, StressStepMatchesLongTermUnderFullDuty) {
  const BtiModel m;
  BtiState s;
  for (int i = 0; i < 12; ++i) s = m.stressStep(s, 1.0);
  EXPECT_NEAR(s.totalV(), m.longTermDriftV(12.0, 1.0), 1e-9);
}

TEST(Hci, ActivityAndTimeDependence) {
  const HciModel m;
  EXPECT_EQ(m.driftV(48.0, 0.0), 0.0);
  EXPECT_EQ(m.driftV(0.0, 1.0), 0.0);
  EXPECT_GT(m.driftV(48.0, 2.0), m.driftV(48.0, 1.0));
  EXPECT_GT(m.driftV(48.0, 1.0), m.driftV(12.0, 1.0));
  // Normalization: B is the 48-month drift at 1 toggle/cycle.
  EXPECT_NEAR(m.driftV(48.0, 1.0), m.params().bVoltsPerUnit, 1e-12);
}

TEST(StressAccumulator, DutyAndToggleBookkeeping) {
  StressAccumulator acc(3);
  acc.addSettledState({1, 0, 1});
  acc.addSettledState({1, 0, 0});
  acc.addTransitions({{0.0, 2, 1}, {1.0, 2, 0}});
  acc.addTransitions({});
  const StressProfile p = acc.finalize();
  EXPECT_DOUBLE_EQ(p.dutyHigh[0], 1.0);
  EXPECT_DOUBLE_EQ(p.dutyHigh[1], 0.0);
  EXPECT_DOUBLE_EQ(p.dutyHigh[2], 0.5);
  EXPECT_DOUBLE_EQ(p.togglesPerCycle[2], 1.0);
  EXPECT_DOUBLE_EQ(p.togglesPerCycle[0], 0.0);
  EXPECT_THROW(acc.addSettledState({1}), std::invalid_argument);
}

TEST(StressAccumulator, MergeIsExactInAnyOrder) {
  // Three partial tallies of one five-cycle chain, and the same cycles fed
  // to a single accumulator: every merge order must reproduce it exactly.
  std::vector<StressAccumulator> parts(3, StressAccumulator(3));
  StressAccumulator whole(3);
  const std::vector<std::vector<std::uint8_t>> states = {
      {1, 0, 1}, {1, 1, 0}, {0, 0, 1}, {1, 0, 0}, {1, 1, 1}};
  const std::vector<std::vector<Transition>> events = {
      {{0.0, 2, 1}, {1.0, 2, 0}}, {{3.0, 1, 1}}, {}, {{2.0, 0, 1}},
      {{0.5, 1, 0}, {0.7, 1, 1}, {0.9, 2, 1}}};
  for (std::size_t c = 0; c < states.size(); ++c) {
    StressAccumulator& part = parts[c % parts.size()];
    part.addSettledState(states[c]);
    part.addTransitions(events[c]);
    whole.addSettledState(states[c]);
    whole.addTransitions(events[c]);
  }
  const StressProfile expected = whole.finalize();
  std::vector<std::size_t> order = {0, 1, 2};
  do {
    StressAccumulator merged(3);
    for (std::size_t i : order) merged.merge(parts[i]);
    EXPECT_EQ(merged.states(), whole.states());
    EXPECT_TRUE(bench::bitIdentical(merged.finalize(), expected));
  } while (std::next_permutation(order.begin(), order.end()));
  // Merging an empty accumulator is the identity.
  StressAccumulator same = whole;
  same.merge(StressAccumulator(3));
  EXPECT_TRUE(bench::bitIdentical(same.finalize(), expected));
  EXPECT_THROW(same.merge(StressAccumulator(2)), std::invalid_argument);
}

TEST(AgingModel, FactorsAreBoundedAndMonotone) {
  StressProfile p;
  p.dutyHigh = {0.5, 0.9, 0.1};
  p.togglesPerCycle = {0.5, 2.0, 0.0};
  const AgingModel model;
  const AgingFactors f12 = model.evaluate(p, 12.0);
  const AgingFactors f48 = model.evaluate(p, 48.0);
  for (std::size_t i = 0; i < p.dutyHigh.size(); ++i) {
    EXPECT_GT(f12.vthShiftV[i], 0.0);
    EXPECT_LT(f12.amplitudeScale[i], 1.0);
    EXPECT_GT(f12.delayScale[i], 1.0);
    EXPECT_LT(f48.amplitudeScale[i], f12.amplitudeScale[i]);
    EXPECT_GT(f48.delayScale[i], f12.delayScale[i]);
    // Delay coupling: delayScale = 1 + frac * (1/amplitude - 1).
    EXPECT_NEAR(f12.delayScale[i],
                1.0 + model.params().delayCouplingFraction *
                          (1.0 / f12.amplitudeScale[i] - 1.0),
                1e-9);
  }
}

TEST(AgingModel, FreshDeviceIsUnscaled) {
  StressProfile p;
  p.dutyHigh = {0.5};
  p.togglesPerCycle = {1.0};
  const AgingFactors f = AgingModel().evaluate(p, 0.0);
  EXPECT_DOUBLE_EQ(f.amplitudeScale[0], 1.0);
  EXPECT_DOUBLE_EQ(f.delayScale[0], 1.0);
}

TEST(Experiment, StressProfileIsPlausible) {
  ExperimentConfig cfg;
  cfg.stressCycles = 64;
  SboxExperiment exp(SboxStyle::Opt, cfg);
  const StressProfile& p = exp.stressProfile();
  ASSERT_EQ(p.dutyHigh.size(), exp.sbox().netlist().numGates());
  double dutySum = 0.0;
  double toggles = 0.0;
  for (std::size_t i = 0; i < p.dutyHigh.size(); ++i) {
    EXPECT_GE(p.dutyHigh[i], 0.0);
    EXPECT_LE(p.dutyHigh[i], 1.0);
    dutySum += p.dutyHigh[i];
    toggles += p.togglesPerCycle[i];
  }
  EXPECT_GT(dutySum, 0.0);
  EXPECT_GT(toggles, 0.0) << "random operation must toggle gates";
}

TEST(Experiment, AgingFactorsShrinkPowerOverYears) {
  ExperimentConfig cfg;
  cfg.stressCycles = 64;
  SboxExperiment exp(SboxStyle::Opt, cfg);
  const AgingFactors y1 = exp.agingFactorsAt(12.0);
  const AgingFactors y4 = exp.agingFactorsAt(48.0);
  double m1 = 0.0, m4 = 0.0;
  for (std::size_t i = 0; i < y1.amplitudeScale.size(); ++i) {
    m1 += y1.amplitudeScale[i];
    m4 += y4.amplitudeScale[i];
  }
  EXPECT_LT(m4, m1);
}

TEST(Experiment, StressProfileMatchesReferenceChain) {
  // The lane-group profile must equal the sequential EventSim chain bit for
  // bit: cycle counts straddling the 64-lane group edge, both delay
  // disciplines, one and several workers. 0 cycles is the uniform prior.
  for (SboxStyle style : allSboxStyles()) {
    for (DelayKind kind : {DelayKind::Transport, DelayKind::Inertial}) {
      for (std::uint32_t cycles : {0u, 1u, 63u, 64u, 65u, 512u}) {
        ExperimentConfig cfg;
        cfg.sim.kind = kind;
        cfg.stressCycles = cycles;
        cfg.observe = false;
        const std::string where = std::string(sboxStyleName(style)) +
                                  (kind == DelayKind::Transport
                                       ? " transport "
                                       : " inertial ") +
                                  std::to_string(cycles) + " cycles";
        StressProfile reference;
        for (std::uint32_t threads : {1u, 4u}) {
          cfg.acquisition.numThreads = threads;
          SboxExperiment exp(style, cfg);
          if (threads == 1) {
            const DelayModel delays(exp.sbox().netlist(), cfg.delay);
            reference = bench::referenceStressProfile(
                exp.sbox(), delays, cfg.sim, cycles, cfg.stressSeed);
          }
          const StressProfile& p = exp.stressProfile();
          EXPECT_TRUE(bench::bitIdentical(p, reference))
              << where << ", " << threads << " threads";
          if (cycles == 0) {
            for (std::size_t i = 0; i < p.dutyHigh.size(); ++i) {
              ASSERT_EQ(p.dutyHigh[i], 0.5) << where;
              ASSERT_EQ(p.togglesPerCycle[i], 0.0) << where;
            }
          }
        }
      }
    }
  }
}

TEST(Experiment, StressProfileIsNotChargedToAcquisition) {
  // Stress profiling runs on the batch engine and the worker pool, but it
  // is not an acquisition: no traces counted, no acquire-* journal entries,
  // its worker spans carry its own label and its simulator counters land in
  // sim.batch.* (not the reference engine's sim.*).
  ExperimentConfig cfg;
  cfg.acquisition.numThreads = 4;
  SboxExperiment exp(SboxStyle::Glut, cfg);
  auto& registry = obs::MetricsRegistry::global();
  auto& journal = obs::EventJournal::global();
  auto& collector = obs::TraceCollector::global();
  const obs::MetricsSnapshot before = registry.snapshot();
  const std::uint64_t emittedBefore = journal.emitted();
  collector.clear();
  collector.enable();
  exp.stressProfile();
  collector.disable();
  const obs::MetricsSnapshot after = registry.snapshot();
  const auto delta = [&](const char* name) {
    return after.counterOr(name, 0) - before.counterOr(name, 0);
  };
  EXPECT_EQ(delta("acquire.traces_total"), 0u);
  EXPECT_EQ(delta("sim.batch.runs"), cfg.stressCycles);
  EXPECT_EQ(delta("sim.batch.batches"), cfg.stressCycles / 64);
  EXPECT_GT(delta("sim.batch.events_processed"), 0u);
  EXPECT_EQ(delta("sim.runs"), 0u);
  EXPECT_EQ(delta("sim.events_processed"), 0u);

  for (const obs::JournalEvent& e :
       journal.tail(journal.emitted() - emittedBefore)) {
    EXPECT_NE(e.kind.rfind("acquire", 0), 0u) << e.kind;
  }

  const obs::Json trace = obs::Json::parse(collector.toJson().dump());
  collector.clear();
  std::size_t workerSpans = 0;
  for (const obs::Json& e : trace.find("traceEvents")->elements()) {
    if (e.find("ph")->asString() != "X") continue;
    const std::string name = e.find("name")->asString();
    EXPECT_EQ(name.rfind("stress.profile", 0), 0u) << name;
    if (name.rfind("stress.profile shard w", 0) == 0) ++workerSpans;
  }
  EXPECT_EQ(workerSpans, 4u);
}

}  // namespace
}  // namespace lpa
