// Thread-invariance suite for the parallel acquisition engine.
//
// The determinism contract (trace/acquisition.h) promises that the trace
// set is a pure function of the seed: every trace draws its masks and its
// power-noise seed from a stream derived from (seed, traceIndex), so the
// worker count can only change *who* simulates a trace, never *what* the
// trace contains. These tests pin that down bit-for-bit.

#include "trace/acquisition.h"

#include <gtest/gtest.h>

#include <iterator>
#include <thread>

#include "core/experiment.h"
#include "core/leakage.h"
#include "trace/prng.h"
#include "trace_set_match.h"

namespace lpa {
namespace {

/// Bitwise equality of two trace sets (labels and samples).
TEST(StreamDerivation, IsPureAndCollisionFree) {
  EXPECT_EQ(deriveStreamSeed(5, 7), deriveStreamSeed(5, 7));
  // Adjacent streams of one seed, and the same stream of adjacent seeds,
  // must all be distinct (full-avalanche mixing).
  for (std::uint64_t i = 0; i < 64; ++i) {
    for (std::uint64_t j = i + 1; j < 64; ++j) {
      EXPECT_NE(deriveStreamSeed(1, i), deriveStreamSeed(1, j));
      EXPECT_NE(deriveStreamSeed(i, 0), deriveStreamSeed(j, 1));
    }
  }
}

TEST(AcquireParallel, MaskedAcquisitionIsThreadInvariant) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;
  cfg.numThreads = 1;
  const TraceSet one = acquire(*sbox, sim, pm, cfg);
  for (std::uint32_t t : {2u, 3u, 4u}) {
    cfg.numThreads = t;
    const TraceSet many = acquire(*sbox, sim, pm, cfg);
    EXPECT_TRUE(sameTraceSet(one, many));
  }
}

TEST(AcquireParallel, SpectralTotalsMatchToTheLastUlp) {
  const auto sbox = makeSbox(SboxStyle::Isw);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;
  cfg.numThreads = 1;
  const SpectralAnalysis sa1(acquire(*sbox, sim, pm, cfg));
  cfg.numThreads = 4;
  const SpectralAnalysis sa4(acquire(*sbox, sim, pm, cfg));
  // Identical inputs must give identical doubles, not merely close ones.
  EXPECT_EQ(sa1.totalLeakagePower(), sa4.totalLeakagePower());
  EXPECT_EQ(sa1.totalSingleBitLeakage(), sa4.totalSingleBitLeakage());
  EXPECT_EQ(sa1.totalMultiBitLeakage(), sa4.totalMultiBitLeakage());
  for (std::uint32_t u = 0; u < 16; ++u) {
    for (std::uint32_t t = 0; t < sa1.numSamples(); ++t) {
      ASSERT_EQ(sa1.coefficient(u, t), sa4.coefficient(u, t));
    }
  }
}

TEST(AcquireParallel, NoiseIsAFunctionOfTraceIdentity) {
  // The seed-PR's latent bug: the noise seed used to come from the shared
  // sequential generator, tying it to schedule position. With noise turned
  // on, thread-invariance holds only if the noise stream is derived from
  // (seed, traceIndex).
  const auto sbox = makeSbox(SboxStyle::Rsm);
  const DelayModel dm(sbox->netlist());
  PowerOptions popts;
  popts.noiseSigma = 0.05;
  const PowerModel pm(sbox->netlist(), popts);
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 3;
  cfg.numThreads = 1;
  const TraceSet one = acquire(*sbox, sim, pm, cfg);
  cfg.numThreads = 4;
  const TraceSet four = acquire(*sbox, sim, pm, cfg);
  EXPECT_TRUE(sameTraceSet(one, four));
}

TEST(AcquireParallel, AutoAndOversubscribedThreadCounts) {
  const auto sbox = makeSbox(SboxStyle::Opt);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 2;  // 32 traces
  cfg.numThreads = 1;
  const TraceSet one = acquire(*sbox, sim, pm, cfg);
  cfg.numThreads = 0;  // auto = hardware concurrency
  EXPECT_TRUE(sameTraceSet(one, acquire(*sbox, sim, pm, cfg)));
  cfg.numThreads = 7;  // does not divide the trace count
  EXPECT_TRUE(sameTraceSet(one, acquire(*sbox, sim, pm, cfg)));
  cfg.numThreads = 1000;  // more workers than traces
  EXPECT_TRUE(sameTraceSet(one, acquire(*sbox, sim, pm, cfg)));
}

TEST(AcquireParallel, KeyedAcquisitionIsThreadInvariant) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  const TraceSet one = acquireKeyed(*sbox, sim, pm, 0xB, 96, /*seed=*/9,
                                    /*numThreads=*/1);
  for (std::uint32_t t : {2u, 4u}) {
    const TraceSet many = acquireKeyed(*sbox, sim, pm, 0xB, 96, 9, t);
    EXPECT_TRUE(sameTraceSet(one, many));
  }
}

TEST(AcquireParallel, ExperimentPipelineIsThreadInvariant) {
  // End-to-end through SboxExperiment, including aging applied to the
  // shared DelayModel before the workers' engines are set up.
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 4;
  cfg.stressCycles = 32;
  cfg.acquisition.numThreads = 1;
  SboxExperiment seq(SboxStyle::Ti, cfg);
  cfg.acquisition.numThreads = 4;
  SboxExperiment par(SboxStyle::Ti, cfg);
  for (double months : {0.0, 24.0}) {
    EXPECT_EQ(seq.analyzeAt(months).totalLeakagePower(),
              par.analyzeAt(months).totalLeakagePower())
        << "at " << months << " months";
  }
}

// Lane groups are packed by stimulus, not by index (trace/acquisition.h),
// and every lane is bit-identical to its own scalar run, so packing must
// be invisible: Auto equals the reference engine bit for bit on the two
// styles whose packed groups differ most from consecutive ones — RSM-ROM
// (deep ripple planes) and TI (many shares) — at any thread count.
TEST(AcquireParallel, PackedLaneGroupsMatchReferenceBitForBit) {
  for (SboxStyle style : {SboxStyle::RsmRom, SboxStyle::Ti}) {
    SCOPED_TRACE("style " + std::to_string(static_cast<int>(style)));
    const auto sbox = makeSbox(style);
    const DelayModel dm(sbox->netlist());
    const PowerModel pm(sbox->netlist());
    EventSim sim(sbox->netlist(), dm);
    AcquisitionConfig cfg;
    cfg.tracesPerClass = 64;  // the paper's 1024 traces, 16 lane groups
    cfg.numThreads = 1;
    cfg.engine = SimEngine::Reference;
    const TraceSet reference = acquire(*sbox, sim, pm, cfg);
    cfg.engine = SimEngine::Auto;
    for (std::uint32_t t : {1u, 3u}) {
      cfg.numThreads = t;
      EXPECT_TRUE(sameTraceSet(reference, acquire(*sbox, sim, pm, cfg)));
    }
  }
}

// Packing is a function of one call's stimuli, so slices whose bounds
// split lane groups anywhere pack differently from the full run — and
// must still concatenate to it bit for bit (the checkpoint/resume
// contract of acquireRange).
TEST(AcquireParallel, UnalignedSlicesConcatenateToFullRun) {
  const auto sbox = makeSbox(SboxStyle::RsmRom);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 16;  // 256 traces
  cfg.numThreads = 2;
  const TraceSet full = acquire(*sbox, sim, pm, cfg);
  TraceSet got(pm.options().numSamples);
  const std::size_t bounds[] = {0, 37, 101, 130, 192, 255, 256};
  for (std::size_t k = 0; k + 1 < std::size(bounds); ++k) {
    got.append(acquireRange(*sbox, sim, pm, cfg, bounds[k], bounds[k + 1]));
  }
  EXPECT_TRUE(sameTraceSet(full, got));
}

TEST(AcquireParallel, DecodeMismatchPropagatesFromWorkers) {
  // A worker throwing (here: encode/decode mismatch provoked by a corrupt
  // schedule is not constructible from outside, so use mismatched shapes)
  // must surface as an exception, not a crash or a silent partial set.
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  PowerOptions popts;
  popts.numSamples = 10;  // power model shaped for a different window
  const PowerModel pm(sbox->netlist(), popts);
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 2;
  cfg.numThreads = 4;
  // TraceSet shards are created with pm's sample count, so this is fine —
  // but appending mismatched shapes must throw. Simulate by merging sets
  // of different shapes directly.
  TraceSet a(10), b(12);
  EXPECT_THROW(a.append(b), std::invalid_argument);
  // And the engine itself completes normally on a well-shaped config.
  EXPECT_NO_THROW(acquire(*sbox, sim, pm, cfg));
}

TEST(EventSimClone, ClonesAreIndependentAndEquivalent) {
  const auto sbox = makeSbox(SboxStyle::Opt);
  const DelayModel dm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  Prng rng(3);
  const auto in0 = sbox->encode(0x0, rng);
  const auto in1 = sbox->encode(0x9, rng);
  sim.settle(in0);
  const auto ref = sim.run(in1);
  EventSim copy = sim.clone();
  copy.settle(in0);
  const auto got = copy.run(in1);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].timePs, got[i].timePs);
    EXPECT_EQ(ref[i].net, got[i].net);
    EXPECT_EQ(ref[i].newValue, got[i].newValue);
    EXPECT_EQ(ref[i].weight, got[i].weight);
  }
  // Running the clone must not have disturbed the original.
  sim.settle(in0);
  const auto again = sim.run(in1);
  EXPECT_EQ(again.size(), ref.size());
}

}  // namespace
}  // namespace lpa
