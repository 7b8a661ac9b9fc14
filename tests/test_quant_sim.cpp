// Tier-1 suite for the quantized-grid batch mode (sim/batch_sim.h,
// DESIGN.md §14): the grid contract on real implementation styles (every
// commit on the 50 GS/s grid, at most one commit per net per sample
// period, exact final states), seed determinism across repeats and
// clones, the lane-occupancy payoff (quantized waves pop at least twice
// the lanes of exact waves on the GLUT workload, measured through the
// profiler census), and the eligibility guards (the reference engine
// rejects the mode; a grid-less or too-deep design rejects the batch constructor).

#include "sim/batch_sim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/profiler.h"
#include "sim/event_sim.h"
#include "trace/acquisition.h"
#include "trace/prng.h"

namespace lpa {
namespace {

struct LaneStimulus {
  std::vector<std::uint8_t> init;
  std::vector<std::uint8_t> fin;
};

std::vector<LaneStimulus> drawStimuli(const MaskedSbox& sbox,
                                      std::size_t lanes, Prng& rng) {
  std::vector<LaneStimulus> out(lanes);
  for (auto& s : out) {
    s.init = sbox.encode(0, rng);
    s.fin = sbox.encode(rng.nibble(), rng);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> inits(
    const std::vector<LaneStimulus>& st) {
  std::vector<std::vector<std::uint8_t>> v;
  v.reserve(st.size());
  for (const auto& s : st) v.push_back(s.init);
  return v;
}

std::vector<std::vector<std::uint8_t>> fins(
    const std::vector<LaneStimulus>& st) {
  std::vector<std::vector<std::uint8_t>> v;
  v.reserve(st.size());
  for (const auto& s : st) v.push_back(s.fin);
  return v;
}

SimOptions quantOptions(DelayKind kind) {
  SimOptions opts;
  opts.kind = kind;
  opts.timeQuantization = TimeQuantization::SampleGrid;
  return opts;
}

void expectSameTransitions(const std::vector<Transition>& a,
                           const std::vector<Transition>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timePs, b[i].timePs) << "transition " << i;
    EXPECT_EQ(a[i].net, b[i].net) << "transition " << i;
    EXPECT_EQ(a[i].newValue, b[i].newValue) << "transition " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << "transition " << i;
  }
}

// The quantized contract, lane by lane: commits sit on the sample grid
// (step 0 = the input application), per-net commit times advance by at
// least one period with alternating values, the last commit carries the
// final state, and final states equal the exact reference engine's.
void expectGridContract(const MaskedSbox& sbox, DelayKind kind,
                        std::uint64_t seed) {
  SCOPED_TRACE(std::string(sbox.name()) + " kind=" +
               std::to_string(static_cast<int>(kind)));
  const DelayModel dm(sbox.netlist());
  const PowerModel pm(sbox.netlist());
  const CompiledDesign design(sbox.netlist(), dm, pm);
  const double dt = design.samplePeriodPs;
  ASSERT_GT(dt, 0.0);

  SimOptions exact;
  exact.kind = kind;
  Prng rng(seed);
  const auto st = drawStimuli(sbox, BatchSim::kLanes, rng);

  BatchSim quant(design, quantOptions(kind));
  quant.settle(inits(st));
  quant.run(fins(st));

  const NetId nets = sbox.netlist().numGates();
  for (std::uint32_t l = 0; l < BatchSim::kLanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    EventSim ref(sbox.netlist(), dm, exact);
    ref.settle(st[l].init);
    ref.run(st[l].fin);
    for (NetId n = 0; n < nets; ++n) {
      ASSERT_EQ(ref.value(n), quant.value(n, l)) << "final net " << n;
    }
    EXPECT_EQ(ref.outputValues(), quant.outputValues(l));

    std::vector<double> lastTimePs(nets, 0.0);
    std::vector<std::uint8_t> lastValue(nets, 0);
    std::vector<std::uint8_t> seen(nets, 0);
    for (const Transition& t : quant.laneTransitions(l)) {
      const double steps = std::round(t.timePs / dt);
      ASSERT_GE(steps, 0.0);
      ASSERT_EQ(steps * dt, t.timePs) << "off-grid commit on net " << t.net;
      if (seen[t.net]) {
        ASSERT_GE(t.timePs, lastTimePs[t.net] + dt)
            << "net " << t.net << " committed twice within one period";
        ASSERT_NE(t.newValue, lastValue[t.net])
            << "no-change commit on net " << t.net;
      }
      seen[t.net] = 1;
      lastTimePs[t.net] = t.timePs;
      lastValue[t.net] = t.newValue;
    }
    for (NetId n = 0; n < nets; ++n) {
      if (seen[n]) ASSERT_EQ(lastValue[n], quant.value(n, l)) << "net " << n;
    }
  }
}

TEST(QuantSim, GridContractOnRealStylesBothDelayKinds) {
  for (SboxStyle style : {SboxStyle::Lut, SboxStyle::Glut}) {
    const auto sbox = makeSbox(style);
    for (DelayKind kind : {DelayKind::Inertial, DelayKind::Transport}) {
      expectGridContract(*sbox, kind, 0x0DD5EED);
    }
  }
}

TEST(QuantSim, RepeatAndCloneBitIdentical) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  const SimOptions qopts = quantOptions(DelayKind::Inertial);

  Prng rng(0xC10E);
  const auto st = drawStimuli(*sbox, BatchSim::kLanes, rng);

  BatchSim first(design, qopts);
  BatchSim cloned = first.clone();
  first.settle(inits(st));
  first.run(fins(st));

  BatchSim second(design, qopts);
  second.settle(inits(st));
  second.run(fins(st));
  cloned.settle(inits(st));
  cloned.run(fins(st));

  for (std::uint32_t l = 0; l < BatchSim::kLanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    expectSameTransitions(first.laneTransitions(l),
                          second.laneTransitions(l));
    expectSameTransitions(first.laneTransitions(l),
                          cloned.laneTransitions(l));
    EXPECT_EQ(first.outputValues(l), second.outputValues(l));
  }
}

// The tentpole payoff, pinned through the profiler's lane-occupancy
// census: merging every event inside one sample period into a single wave
// roughly doubles the mean popped lanes per wave on the GLUT workload.
// Measured at this operating point: ~14.0/64 quantized vs ~7.0/64 exact
// (1.95-1.99x across device ages); the floor is 1.8x so the test stays
// robust to small legitimate drifts while still failing if the merge
// path degrades. (The >= 2x wall-clock acceptance is the perf gate's
// batch_quant_speedup ratio — waves also roughly halve, which the
// occupancy census alone does not capture.)
TEST(QuantSim, QuantizedPoppedOccupancyNearlyDoublesOnGlut) {
  const auto census = [](TimeQuantization q) {
    ExperimentConfig cfg;
    cfg.acquisition.tracesPerClass = 16;  // 256 traces = 4 full lane groups
    cfg.acquisition.numThreads = 1;
    cfg.acquisition.engine = SimEngine::Batch;
    cfg.acquisition.timeQuantization = q;
    obs::Profiler profiler;
    SboxExperiment exp(SboxStyle::Glut, cfg);
    exp.attachProfiler(&profiler);
    exp.acquireAt(0.0);
    EXPECT_GT(profiler.waves(), 0u);
    return profiler.meanPoppedLanes();
  };
  const double exact = census(TimeQuantization::Exact);
  const double quant = census(TimeQuantization::SampleGrid);
  ASSERT_GT(exact, 0.0);
  EXPECT_GE(quant, 1.8 * exact)
      << "quantized popped occupancy " << quant << " vs exact " << exact;
}

TEST(QuantSim, ScalarEnginesRejectQuantizedOptions) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  const SimOptions qopts = quantOptions(DelayKind::Inertial);
  EXPECT_THROW(EventSim(sbox->netlist(), dm, qopts), std::invalid_argument);
  // The batch engine accepts it on an eligible design.
  EXPECT_NO_THROW(BatchSim(design, qopts));
}

TEST(QuantSim, IneligibleDesignsRejectQuantizedBatch) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  const SimOptions qopts = quantOptions(DelayKind::Transport);

  // No sample grid to quantize onto.
  CompiledDesign gridless = design;
  gridless.samplePeriodPs = 0.0;
  EXPECT_THROW(BatchSim(gridless, qopts), std::invalid_argument);

  // Step horizon beyond the calendar capacity (a combinational depth no
  // real style reaches; forged here by inflating the level count).
  CompiledDesign tooDeep = design;
  tooDeep.numLevels = 1u << 20;
  EXPECT_THROW(BatchSim(tooDeep, qopts), std::invalid_argument);

  // Exact mode remains indifferent to both forgeries' quantized guards.
  SimOptions eopts;
  eopts.kind = DelayKind::Transport;
  EXPECT_NO_THROW(BatchSim(gridless, eopts));
}

}  // namespace
}  // namespace lpa
