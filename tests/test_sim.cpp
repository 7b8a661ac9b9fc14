// Event-driven simulator tests: timing, glitches, inertial vs transport
// delays, and consistency with zero-delay evaluation.

#include "sim/event_sim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "netlist/builder.h"
#include "sboxes/masked_sbox.h"
#include "trace/prng.h"

namespace lpa {
namespace {

DelayOptions noJitter() {
  DelayOptions d;
  d.jitterSigma = 0.0;
  d.loadFactorPerFanout = 0.0;
  return d;
}

TEST(DelayModel, BaseDelaysScaleWithFaninAndLoad) {
  EXPECT_GT(baseDelayPs(GateType::And, 4), baseDelayPs(GateType::And, 2));
  EXPECT_GT(baseDelayPs(GateType::Xor, 2), baseDelayPs(GateType::Inv, 1));
  EXPECT_EQ(baseDelayPs(GateType::Input, 0), 0.0);

  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId i1 = b.inv(a);
  // i1 drives three loads; i2 drives one.
  const NetId i2 = b.inv(i1);
  const NetId i3 = b.inv(i1);
  const NetId i4 = b.inv(i1);
  b.output(b.andGate({i2, i3, i4}), "y");
  const Netlist nl = b.take();
  DelayOptions opts;
  opts.jitterSigma = 0.0;
  opts.loadFactorPerFanout = 0.2;
  const DelayModel dm(nl, opts);
  EXPECT_GT(dm.delayPs(i1), dm.delayPs(i2));
  EXPECT_DOUBLE_EQ(dm.delayPs(i2), baseDelayPs(GateType::Inv, 1));
}

TEST(DelayModel, ZeroJitterGivesNominalDelaysAndBadSigmaThrows) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId x = b.xorGate(a, b.inv(a));
  b.output(b.nandGate({x, a, a}), "y");
  const Netlist nl = b.take();
  DelayOptions opts;
  opts.jitterSigma = 0.0;
  opts.loadFactorPerFanout = 0.0;
  for (std::uint64_t seed : {1ULL, 0x5eedULL}) {
    opts.deviceSeed = seed;  // no draw, so the device seed is irrelevant
    const DelayModel dm(nl, opts);
    for (NetId id = 0; id < nl.numGates(); ++id) {
      const Gate& g = nl.gate(id);
      EXPECT_EQ(dm.delayPs(id), baseDelayPs(g.type, g.numFanin))
          << "gate " << id;
    }
  }
  for (double bad : {-0.01, std::nan(""), HUGE_VAL}) {
    opts.jitterSigma = bad;
    EXPECT_THROW(DelayModel(nl, opts), std::invalid_argument) << bad;
  }
}

TEST(DelayModel, AgingFactorsApplyAndClear) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId i1 = b.inv(a);
  b.output(i1, "y");
  const Netlist nl = b.take();
  DelayModel dm(nl, noJitter());
  const double fresh = dm.delayPs(i1);
  std::vector<double> scale(nl.numGates(), 1.0);
  scale[i1] = 1.25;
  dm.setAgingFactors(scale);
  EXPECT_DOUBLE_EQ(dm.delayPs(i1), fresh * 1.25);
  dm.clearAging();
  EXPECT_DOUBLE_EQ(dm.delayPs(i1), fresh);
  EXPECT_THROW(dm.setAgingFactors({1.0}), std::invalid_argument);
}

TEST(EventSim, SingleInverterTiming) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId y = b.inv(a);
  b.output(y, "y");
  const Netlist nl = b.take();
  const DelayModel dm(nl, noJitter());
  EventSim sim(nl, dm);
  sim.settle({0});
  const auto tr = sim.run({1});
  ASSERT_EQ(tr.size(), 2u);  // input change + inverter output
  EXPECT_EQ(tr[0].net, a);
  EXPECT_DOUBLE_EQ(tr[0].timePs, 0.0);
  EXPECT_EQ(tr[1].net, y);
  EXPECT_DOUBLE_EQ(tr[1].timePs, baseDelayPs(GateType::Inv, 1));
  EXPECT_EQ(sim.value(y), 0);
}

TEST(EventSim, NoChangeNoEvents) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  b.output(b.inv(a), "y");
  const Netlist nl = b.take();
  const DelayModel dm(nl, noJitter());
  EventSim sim(nl, dm);
  sim.settle({1});
  EXPECT_TRUE(sim.run({1}).empty());
}

// Classic hazard circuit: y = a AND (NOT a) should glitch high briefly when
// a rises, because the inverter path is slower.
Netlist hazardCircuit(NetId* outAnd) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId na = b.invChain(a, 3, /*allowOdd=*/true);  // slow NOT a
  const NetId y = b.andGate({a, na});
  b.output(y, "y");
  if (outAnd != nullptr) *outAnd = y;
  return b.take();
}

TEST(EventSim, StaticHazardProducesGlitchUnderTransportAndInertial) {
  NetId yNet = kInvalidNet;
  const Netlist nl = hazardCircuit(&yNet);
  const DelayModel dm(nl, noJitter());
  // The 3-inverter path adds 24 ps; the AND delay is 14 ps, so the 24 ps
  // high pulse at the AND inputs survives the inertial filter too.
  for (DelayKind kind : {DelayKind::Inertial, DelayKind::Transport}) {
    EventSim sim(nl, dm, kind);
    sim.settle({0});
    const auto tr = sim.run({1});
    int yTransitions = 0;
    for (const Transition& t : tr) yTransitions += (t.net == yNet) ? 1 : 0;
    EXPECT_EQ(yTransitions, 2) << "glitch expected (up and back down)";
    EXPECT_EQ(sim.value(yNet), 0);
  }
}

TEST(EventSim, InertialDelaySwallowsShortPulse) {
  // Feed a pulse shorter than the consumer's delay: INV chain generates a
  // 8 ps pulse into a slow 4-input AND (20 ps): swallowed under inertial,
  // visible under transport.
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId na = b.inv(a);                   // 8 ps
  const NetId pulse = b.andGate({a, na});      // one-inverter hazard, ~8 ps
  const NetId slow = b.andGate({pulse, pulse, pulse, pulse});  // 20 ps
  b.output(slow, "y");
  const Netlist nl = b.take();
  const DelayModel dm(nl, noJitter());

  EventSim inertial(nl, dm, DelayKind::Inertial);
  inertial.settle({0});
  int slowToggles = 0;
  for (const Transition& t : inertial.run({1})) {
    slowToggles += (t.net == slow) ? 1 : 0;
  }
  EXPECT_EQ(slowToggles, 0) << "short pulse must be swallowed";

  EventSim transport(nl, dm, DelayKind::Transport);
  transport.settle({0});
  slowToggles = 0;
  for (const Transition& t : transport.run({1})) {
    slowToggles += (t.net == slow) ? 1 : 0;
  }
  EXPECT_EQ(slowToggles, 2) << "transport delay propagates every pulse";
}

TEST(EventSim, FinalStateMatchesZeroDelayEvaluation) {
  // Property: after quiescence the event simulator must agree with the
  // functional evaluator, for every implementation and random stimuli.
  Prng rng(0xD15C0);
  for (SboxStyle style : allSboxStyles()) {
    const auto sbox = makeSbox(style);
    const Netlist& nl = sbox->netlist();
    const DelayModel dm(nl);
    EventSim sim(nl, dm);
    std::vector<std::uint8_t> cur = sbox->encode(rng.nibble(), rng);
    sim.settle(cur);
    for (int step = 0; step < 20; ++step) {
      const auto next = sbox->encode(rng.nibble(), rng);
      sim.run(next);
      const auto expect = nl.evaluate(next);
      for (NetId n = 0; n < nl.numGates(); ++n) {
        ASSERT_EQ(sim.value(n), expect[n])
            << sbox->name() << " net " << n << " step " << step;
      }
    }
  }
}

TEST(EventSim, TransitionsAreTimeOrdered) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  Prng rng(3);
  sim.settle(sbox->encode(0, rng));
  const auto tr = sim.run(sbox->encode(9, rng));
  for (std::size_t i = 1; i < tr.size(); ++i) {
    EXPECT_LE(tr[i - 1].timePs, tr[i].timePs);
  }
  EXPECT_FALSE(tr.empty());
}

TEST(EventSim, GlitchesExistInTableBasedMaskedCircuits) {
  // The paper's core observation: combinational races in masked tables
  // produce transitions beyond the functional minimum.
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  Prng rng(11);
  std::uint64_t glitches = 0;
  for (int t = 0; t < 32; ++t) {
    sim.settle(sbox->encode(0, rng));
    const auto tr = sim.run(sbox->encode(rng.nibble(), rng));
    glitches +=
        summarizeActivity(tr, sbox->netlist().numGates()).glitchTransitions;
  }
  EXPECT_GT(glitches, 0u);
}

TEST(ActivityStats, CountsGlitchesAndLastEvent) {
  std::vector<Transition> tr = {
      {0.0, 1, 1}, {5.0, 2, 1}, {9.0, 2, 0}, {12.0, 3, 1}};
  const ActivityStats s = summarizeActivity(tr, 8);
  EXPECT_EQ(s.totalTransitions, 4u);
  EXPECT_EQ(s.glitchTransitions, 1u);
  EXPECT_DOUBLE_EQ(s.lastEventPs, 12.0);
}

TEST(EventSim, RunRejectsWrongInputCount) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  EXPECT_THROW(sim.run({1, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace lpa
