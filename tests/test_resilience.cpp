// Tier-1 tests for the durability layer (jobs/): checkpoint file format,
// estimator state serialization, acquireRange slicing, crash-safe
// checkpoint/resume (including a real SIGKILL kill-harness), deadlines,
// retry/escalation, and engine quarantine.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <fstream>
#include <string>

#include "core/experiment.h"
#include "jobs/checkpoint.h"
#include "jobs/resilient.h"
#include "jobs/trace_digest.h"
#include "obs/event_journal.h"
#include "obs/run_report.h"
#include "stats/report.h"
#include "trace/acquisition.h"
#include "trace_set_match.h"

namespace lpa {
namespace {

std::string tmpPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Cheap fixed-schedule operating point: OPT netlist, 8 traces/class
/// (128 traces), uneven 48-trace groups (exercises the partial last
/// group).
ExperimentConfig smallConfig() {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 8;
  cfg.acquisition.numThreads = 1;
  return cfg;
}

constexpr stats::StreamingLeakage::Options kFourFolds{
    EstimatorMode::Debiased, /*numFolds=*/4, 0.95};

// ---------------------------------------------------------------- slicing

TEST(AcquireRange, SlicesConcatenateToFullAcquire) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const Netlist& nl = exp.sbox().netlist();
  const DelayModel delays(nl, ecfg.delay);
  const PowerModel power(nl, ecfg.power);
  EventSim sim(nl, delays, ecfg.sim);

  const AcquisitionConfig& cfg = ecfg.acquisition;
  const TraceSet full = acquireRange(exp.sbox(), sim, power, cfg, 0, 128);
  EXPECT_TRUE(sameTraceSet(full, acquire(exp.sbox(), sim, power, cfg)));

  // Re-acquire in three uneven slices, mixing engines per slice.
  AcquisitionConfig c1 = cfg;
  c1.engine = SimEngine::Reference;
  TraceSet got = acquireRange(exp.sbox(), sim, power, c1, 0, 50);
  AcquisitionConfig c2 = cfg;
  c2.engine = SimEngine::Auto;
  got.append(acquireRange(exp.sbox(), sim, power, c2, 50, 51));
  AcquisitionConfig c3 = cfg;
  c3.engine = SimEngine::Batch;
  got.append(acquireRange(exp.sbox(), sim, power, c3, 51, 128));

  EXPECT_TRUE(sameTraceSet(got, full));
  EXPECT_EQ(acquireRange(exp.sbox(), sim, power, cfg, 7, 7).size(), 0u);
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, cfg, 10, 9),
               std::invalid_argument);
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, cfg, 0, 129),
               std::invalid_argument);
  AcquisitionConfig bad = cfg;
  bad.adaptive = true;
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, bad, 0, 16),
               std::invalid_argument);
}

// ----------------------------------------------------------- checkpoints

jobs::Checkpoint sampleCheckpoint() {
  jobs::Checkpoint cp;
  cp.fingerprint = 0xFEEDFACE12345678ULL;
  cp.seed = 42;
  cp.numSamples = 3;
  cp.groupTraces = 2;
  cp.groupsTotal = 5;
  cp.completedGroups = 2;
  cp.groupDigests = {11, 22};
  cp.lineage = {"g1/5:aa", "g2/5:bb"};
  cp.traces = TraceSet(3);
  cp.traces.add(4, {1.0, 2.0, 3.0});
  cp.traces.add(9, {0.5, -0.25, 1e-12});
  cp.traces.add(0, {0.0, 0.0, 7.0});
  cp.traces.add(15, {-1.0, 2.5, 3.5});
  stats::StreamingLeakage stream(3, kFourFolds);
  stream.addTraceSet(cp.traces);
  cp.streamState = stream.serialize();
  return cp;
}

TEST(Checkpoint, SaveLoadRoundTrips) {
  const std::string path = tmpPath("lpa_ckpt_roundtrip.bin");
  const jobs::Checkpoint cp = sampleCheckpoint();
  jobs::saveCheckpoint(path, cp);

  std::string whyNot = "unset";
  const auto back = jobs::loadCheckpoint(path, &whyNot);
  ASSERT_TRUE(back.has_value()) << whyNot;
  EXPECT_EQ(whyNot, "");
  EXPECT_EQ(back->fingerprint, cp.fingerprint);
  EXPECT_EQ(back->seed, cp.seed);
  EXPECT_EQ(back->numSamples, cp.numSamples);
  EXPECT_EQ(back->groupTraces, cp.groupTraces);
  EXPECT_EQ(back->groupsTotal, cp.groupsTotal);
  EXPECT_EQ(back->completedGroups, cp.completedGroups);
  EXPECT_EQ(back->groupDigests, cp.groupDigests);
  EXPECT_EQ(back->lineage, cp.lineage);
  EXPECT_TRUE(sameTraceSet(back->traces, cp.traces));
  EXPECT_EQ(back->streamState, cp.streamState);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsAbsent) {
  std::string whyNot;
  EXPECT_FALSE(
      jobs::loadCheckpoint(tmpPath("lpa_ckpt_missing.bin"), &whyNot));
  EXPECT_EQ(whyNot, "no checkpoint file");
}

TEST(Checkpoint, TornAndCorruptFilesRejected) {
  const std::string path = tmpPath("lpa_ckpt_torn.bin");
  jobs::saveCheckpoint(path, sampleCheckpoint());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 32u);

  // A torn tail (crash mid-write without the atomic rename) must load as
  // "absent", never as a shorter run.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  std::string whyNot;
  EXPECT_FALSE(jobs::loadCheckpoint(path, &whyNot));
  EXPECT_NE(whyNot, "");

  // A single flipped payload byte fails the whole-file checksum.
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_FALSE(jobs::loadCheckpoint(path, &whyNot));
  EXPECT_NE(whyNot, "");

  // Garbage that keeps the magic but not the structure.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "LPACKPT1 this is not a checkpoint";
  }
  EXPECT_FALSE(jobs::loadCheckpoint(path, &whyNot));
  std::remove(path.c_str());
}

// ----------------------------------------------------- estimator snapshot

TEST(StreamState, StreamingLeakageRoundTripContinuesBitIdentically) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const TraceSet traces = exp.acquireAt(0.0);
  ASSERT_EQ(traces.size(), 128u);

  // Fold half, snapshot, restore, fold the rest on both estimators.
  stats::StreamingLeakage live(traces.numSamples(), kFourFolds);
  for (std::size_t i = 0; i < 64; ++i) live.addTrace(traces.label(i), traces.trace(i));
  const std::vector<std::uint8_t> snap = live.serialize();
  auto restored = stats::StreamingLeakage::deserialize(snap.data(), snap.size());
  ASSERT_TRUE(restored.has_value());
  for (std::size_t i = 64; i < traces.size(); ++i) {
    live.addTrace(traces.label(i), traces.trace(i));
    restored->addTrace(traces.label(i), traces.trace(i));
  }
  const stats::LeakageEstimate a = live.estimate();
  const stats::LeakageEstimate b = restored->estimate();
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.totalCi.halfWidth, b.totalCi.halfWidth);
  EXPECT_EQ(a.singleBit, b.singleBit);
  EXPECT_EQ(a.traces, b.traces);

  // Torn snapshots are rejected, not misread.
  EXPECT_FALSE(
      stats::StreamingLeakage::deserialize(snap.data(), snap.size() - 1));
  EXPECT_FALSE(stats::StreamingLeakage::deserialize(snap.data(), 4));
}

// ------------------------------------------------------- resilient runner

TEST(ResilientAcquire, MatchesPlainAcquire) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const TraceSet expected = plain.acquireAt(0.0);

  jobs::JobConfig job;
  job.groupTraces = 48;  // 128 traces -> groups of 48/48/32
  job.statsOpt = kFourFolds;
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(sameTraceSet(res.traces, expected));
  EXPECT_EQ(res.resilience.stopReason, "completed");
  EXPECT_FALSE(res.resilience.truncated);
  EXPECT_FALSE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsTotal, 3u);
  EXPECT_EQ(res.resilience.groupsCompleted, 3u);
  EXPECT_EQ(res.resilience.retries, 0u);

  // The estimate is the streaming fold of exactly these traces.
  stats::StreamingLeakage stream(expected.numSamples(), kFourFolds);
  stream.addTraceSet(expected);
  EXPECT_EQ(res.estimate.total, stream.estimate().total);
}

TEST(ResilientAcquire, DrainStopAndResumeBitIdentical) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  const SimEngine engines[] = {SimEngine::Reference, SimEngine::Batch};
  for (SimEngine firstEngine : engines) {
    for (std::uint32_t threads : {1u, 2u}) {
      const std::string path = tmpPath(
          "lpa_resume_" + std::to_string(static_cast<int>(firstEngine)) +
          "_" + std::to_string(threads) + ".ckpt");
      jobs::JobConfig job;
      job.checkpointPath = path;
      job.groupTraces = 32;  // 4 groups
      job.statsOpt = kFourFolds;
      job.stopAfterGroups = 2;

      ExperimentConfig cfg = ecfg;
      cfg.acquisition.engine = firstEngine;
      cfg.acquisition.numThreads = threads;
      SboxExperiment first(SboxStyle::Opt, cfg);
      const jobs::ResilientResult half = first.resilientAcquireAt(0.0, job);
      EXPECT_TRUE(half.resilience.truncated);
      EXPECT_EQ(half.resilience.stopReason, "drain");
      EXPECT_EQ(half.resilience.groupsCompleted, 2u);
      EXPECT_EQ(half.traces.size(), 64u);

      // Resume under a *different* engine and thread count: the result
      // must still be bit-identical to the uninterrupted run.
      jobs::JobConfig rest = job;
      rest.stopAfterGroups = 0;
      ExperimentConfig cfg2 = ecfg;
      cfg2.acquisition.engine = firstEngine == SimEngine::Reference
                                    ? SimEngine::Batch
                                    : SimEngine::Reference;
      cfg2.acquisition.numThreads = threads == 1 ? 2 : 1;
      SboxExperiment second(SboxStyle::Opt, cfg2);
      const jobs::ResilientResult full = second.resilientAcquireAt(0.0, rest);
      EXPECT_TRUE(full.resilience.resumed);
      EXPECT_FALSE(full.resilience.truncated);
      EXPECT_EQ(full.resilience.stopReason, "completed");
      EXPECT_EQ(full.resilience.groupsCompleted, 4u);
      EXPECT_EQ(jobs::digestOfTraceSet(full.traces), expected)
          << "engine " << static_cast<int>(firstEngine) << " threads "
          << threads;
      // Lineage accumulated across both sessions.
      EXPECT_GE(full.resilience.lineage.size(), 4u);
      std::remove(path.c_str());
    }
  }
}

TEST(ResilientAcquire, ForeignCheckpointIsIgnored) {
  ExperimentConfig ecfg = smallConfig();
  const std::string path = tmpPath("lpa_resume_foreign.ckpt");
  jobs::JobConfig job;
  job.checkpointPath = path;
  job.groupTraces = 32;
  job.stopAfterGroups = 2;
  SboxExperiment first(SboxStyle::Opt, ecfg);
  (void)first.resilientAcquireAt(0.0, job);

  // Same path, different seed: the checkpoint must not be adopted.
  ExperimentConfig other = ecfg;
  other.acquisition.seed = 0x1234;
  jobs::JobConfig job2 = job;
  job2.stopAfterGroups = 0;
  SboxExperiment second(SboxStyle::Opt, other);
  const jobs::ResilientResult res = second.resilientAcquireAt(0.0, job2);
  EXPECT_FALSE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsCompleted, 4u);

  SboxExperiment plain(SboxStyle::Opt, other);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
            jobs::digestOfTraceSet(plain.acquireAt(0.0)));
  std::remove(path.c_str());
}

TEST(ResilientAcquire, FingerprintExcludesEngineAndThreads) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const PowerModel power(exp.sbox().netlist(), ecfg.power);
  jobs::JobConfig job;

  AcquisitionConfig a = ecfg.acquisition;
  AcquisitionConfig b = a;
  b.engine = SimEngine::Batch;
  b.numThreads = 7;
  b.deadlineMs = 1234;
  b.trapBudget = 1;
  EXPECT_EQ(jobs::acquisitionFingerprint(exp.sbox(), power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), power, b, job));

  AcquisitionConfig c = a;
  c.seed ^= 1;
  EXPECT_NE(jobs::acquisitionFingerprint(exp.sbox(), power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), power, c, job));
  jobs::JobConfig job2;
  job2.groupTraces = job.groupTraces + 16;
  EXPECT_NE(jobs::acquisitionFingerprint(exp.sbox(), power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), power, a, job2));
}

// A checkpoint is adopted only when its fingerprint matches, so the value
// for a fixed exact config is pinned: any change to what the fingerprint
// folds orphans every checkpoint already on disk. OPT, default power,
// 8 traces/class, default JobConfig.
TEST(ResilientAcquire, ExactFingerprintIsPinned) {
  ExperimentConfig ecfg;
  ecfg.acquisition.tracesPerClass = 8;
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const PowerModel power(exp.sbox().netlist(), ecfg.power);
  EXPECT_EQ(jobs::acquisitionFingerprint(exp.sbox(), power, ecfg.acquisition,
                                         jobs::JobConfig{}),
            0x284F6DED1F9D06FCULL);
}

TEST(ResilientAcquire, DeadlineReturnsValidatedPartialReport) {
  ExperimentConfig ecfg = smallConfig();
  ecfg.acquisition.tracesPerClass = 32;  // 512 traces, 4 groups of 128
  ecfg.acquisition.deadlineMs = 500;
  jobs::JobConfig job;
  job.groupTraces = 128;
  job.statsOpt = kFourFolds;
  // Deterministic virtual clock: the deadline trips exactly after two
  // committed groups, never mid-group.
  job.elapsedMsOverride = [](std::uint64_t committed) {
    return committed >= 2 ? 1000.0 : 0.0;
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(res.resilience.truncated);
  EXPECT_EQ(res.resilience.stopReason, "deadline");
  EXPECT_EQ(res.resilience.groupsCompleted, 2u);
  EXPECT_EQ(res.traces.size(), 256u);

  // The partial prefix is the plain run's prefix.
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const TraceSet full = plain.acquireAt(0.0);
  for (std::size_t i = 0; i < res.traces.size(); ++i) {
    ASSERT_EQ(res.traces.label(i), full.label(i));
  }

  // Partial statistics are real: finite CIs from the committed prefix.
  EXPECT_EQ(res.estimate.traces, 256u);
  EXPECT_TRUE(std::isfinite(res.estimate.totalCi.halfWidth));
  EXPECT_GT(res.estimate.total, 0.0);

  // And the run report carrying both blocks validates against /3.
  obs::RunReport report("deadline-partial");
  report.setSeed(ecfg.acquisition.seed);
  report.setMetrics(obs::MetricsRegistry::global().snapshot());
  stats::fillStatistics(report, res.estimate,
                        res.resilience.stopReason.c_str());
  jobs::fillResilience(report, res.resilience);
  report.setDigest(std::string("fnv:") + "0");
  const obs::Json j = report.toJson();
  EXPECT_EQ(obs::RunReport::validate(j), "");
  EXPECT_EQ(j.find("resilience")->find("truncated")->asBool(), true);
  EXPECT_EQ(j.find("resilience")->find("stop_reason")->asString(),
            "deadline");
}

TEST(ResilientAcquire, TransientFailureRetriesBitIdentically) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.baseBackoffMs = 0;
  job.beforeGroupHook = [](std::uint64_t group, std::uint32_t attempt,
                           SimEngine) {
    if (group == 1 && attempt == 0) {
      throw std::runtime_error("transient worker failure");
    }
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
  EXPECT_EQ(res.resilience.retries, 1u);
  EXPECT_EQ(res.resilience.stopReason, "completed");
}

TEST(ResilientAcquire, RetryBudgetEscalatesWithGroupIdentity) {
  ExperimentConfig ecfg = smallConfig();
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.maxAttempts = 3;
  job.retry.baseBackoffMs = 0;
  job.beforeGroupHook = [](std::uint64_t group, std::uint32_t, SimEngine) {
    if (group == 1) throw std::runtime_error("permanent failure");
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  try {
    (void)exp.resilientAcquireAt(0.0, job);
    FAIL() << "expected WorkerError";
  } catch (const WorkerError& e) {
    EXPECT_EQ(e.index(), 1u);
    EXPECT_NE(std::string(e.what()).find("resilient group 1"),
              std::string::npos);
    // The root cause is nested and recoverable.
    bool sawCause = false;
    try {
      std::rethrow_if_nested(e);
    } catch (const std::runtime_error& cause) {
      sawCause =
          std::string(cause.what()).find("permanent failure") !=
          std::string::npos;
    }
    EXPECT_TRUE(sawCause);
  }

  // trapBudget 0: the very first failure escalates, no retries at all.
  jobs::JobConfig strict = job;
  ExperimentConfig tight = ecfg;
  tight.acquisition.trapBudget = 0;
  strict.beforeGroupHook = [](std::uint64_t, std::uint32_t attempt,
                              SimEngine) {
    if (attempt == 0) throw std::runtime_error("one-shot failure");
  };
  SboxExperiment exp2(SboxStyle::Opt, tight);
  EXPECT_THROW((void)exp2.resilientAcquireAt(0.0, strict), WorkerError);
}

TEST(ResilientAcquire, SpotCheckMismatchQuarantinesAndRepairs) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  ExperimentConfig cfg = ecfg;
  cfg.acquisition.engine = SimEngine::Batch;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.spotCheckEveryGroups = 1;  // sample every fast-engine group
  // Model a silently-wrong fast engine: corrupt one sample of every group
  // it produces (the hook sees which engine ran the group).
  job.perturbHook = [](TraceSet& group, std::uint64_t, SimEngine ranWith) {
    if (ranWith == SimEngine::Reference) return;
    TraceSet corrupted(group.numSamples());
    for (std::size_t i = 0; i < group.size(); ++i) {
      std::vector<double> samples(group.trace(i),
                                  group.trace(i) + group.numSamples());
      if (i == 0) samples[0] += 1.0;
      corrupted.add(group.label(i), std::move(samples));
    }
    group = std::move(corrupted);
  };
  SboxExperiment exp(SboxStyle::Opt, cfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  // Group 0's spot-check catches the corruption, quarantines the fast
  // engine, and commits the reference bits; every later group runs under
  // Reference, so the final digest matches the clean run exactly.
  EXPECT_TRUE(res.resilience.quarantined);
  ASSERT_EQ(res.resilience.events.size(), 1u);
  EXPECT_EQ(res.resilience.events[0].group, 0u);
  EXPECT_EQ(res.resilience.events[0].reason, "spot-check-mismatch");
  EXPECT_EQ(res.resilience.spotChecks, 1u);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
}

TEST(ResilientAcquire, RepeatedDivergenceQuarantinesEngine) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  ExperimentConfig cfg = ecfg;
  cfg.acquisition.engine = SimEngine::Batch;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.maxAttempts = 4;
  job.retry.baseBackoffMs = 0;
  job.quarantineAfterDivergences = 2;
  // A fast engine that reliably trips the watchdog: quarantine must kick
  // in after two divergences and finish the run under Reference.
  job.beforeGroupHook = [](std::uint64_t, std::uint32_t, SimEngine engine) {
    if (engine != SimEngine::Reference) throw SimDiverged(0, 0.0);
  };
  SboxExperiment exp(SboxStyle::Opt, cfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(res.resilience.quarantined);
  ASSERT_EQ(res.resilience.events.size(), 1u);
  EXPECT_EQ(res.resilience.events[0].reason, "sim-diverged");
  EXPECT_EQ(res.resilience.retries, 2u);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
}

/// Number of acquisition calls journalled since event `since`.
std::size_t acquireCallsSince(std::uint64_t since) {
  const obs::EventJournal& journal = obs::EventJournal::global();
  std::size_t calls = 0;
  for (const obs::JournalEvent& ev :
       journal.tail(static_cast<std::size_t>(journal.emitted() - since))) {
    if (ev.kind == "acquire-start") ++calls;
  }
  return calls;
}

TEST(ResilientAcquire, WindowsSpanGroupsBetweenCheckpoints) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const TraceSet expected = plain.acquireAt(0.0);

  // 128 traces in 11 groups of 12 (the last one of 8), a checkpoint every
  // 4 groups, drained after 6. One worker's window floor is 11 groups, so
  // the first session calls [0, 4) and [4, 6), the resumed one [6, 10) and
  // [10, 11): every window ends at a checkpoint write or the drain point.
  const std::string path = tmpPath("lpa_resume_windows.ckpt");
  jobs::JobConfig job;
  job.checkpointPath = path;
  job.groupTraces = 12;
  job.checkpointEveryGroups = 4;
  job.stopAfterGroups = 6;
  job.statsOpt = kFourFolds;
  jobs::ResilientResult res;
  for (int session = 0; session < 2; ++session) {
    SboxExperiment exp(SboxStyle::Opt, ecfg);
    const std::uint64_t since = obs::EventJournal::global().emitted();
    res = exp.resilientAcquireAt(0.0, job);
    EXPECT_EQ(acquireCallsSince(since), 2u) << "session " << session;
    EXPECT_EQ(res.traces.size(), session == 0 ? 72u : 128u);
    job.stopAfterGroups = 0;
  }
  EXPECT_TRUE(sameTraceSet(res.traces, expected));
  EXPECT_EQ(res.resilience.stopReason, "completed");
  stats::StreamingLeakage stream(expected.numSamples(), kFourFolds);
  stream.addTraceSet(expected);
  EXPECT_EQ(res.estimate.total, stream.estimate().total);

  // The lineage a run committing one group per call writes: the digest of
  // the committed prefix at every checkpoint (cadence and drain).
  std::vector<std::string> lineage;
  for (std::size_t groups : {4u, 6u, 10u, 11u}) {
    jobs::DigestAccumulator prefix;
    prefix.addRange(expected, 0, std::min<std::size_t>(groups * 12, 128));
    lineage.push_back("g" + std::to_string(groups) + "/11:" + prefix.hex());
  }
  EXPECT_EQ(res.resilience.lineage, lineage);
  std::remove(path.c_str());
}

TEST(ResilientAcquire, DeadlineInsideAWindowDiscardsTheRest) {
  ExperimentConfig ecfg = smallConfig();  // one window of all 4 groups
  ecfg.acquisition.deadlineMs = 500;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.elapsedMsOverride = [](std::uint64_t committed) {
    return committed >= 2 ? 1000.0 : 0.0;
  };
  obs::Counter discarded =
      obs::MetricsRegistry::global().counter("adaptive.traces_discarded");
  const std::uint64_t discarded0 = discarded.value();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);
  EXPECT_EQ(res.resilience.stopReason, "deadline");
  EXPECT_EQ(res.resilience.groupsCompleted, 2u);
  EXPECT_EQ(res.traces.size(), 64u);
  EXPECT_EQ(discarded.value() - discarded0, 64u);
}

// ------------------------------------------------------- SIGKILL harness

TEST(KillHarness, SigkillMidRunResumesBitIdentically) {
  // A fixed run in 32-trace groups, and an adaptive one whose 32-trace
  // batches are its groups and whose target is never met (on RSM: OPT's
  // noise-free classes resolve the CI to ~0): 4 groups each.
  for (const bool adaptive : {false, true}) {
    ExperimentConfig ecfg = smallConfig();
    const SboxStyle style = adaptive ? SboxStyle::Rsm : SboxStyle::Opt;
    if (adaptive) {
      ecfg.acquisition.adaptive = true;
      ecfg.acquisition.batchSize = 32;
      ecfg.acquisition.targetCiRel = 1e-9;
    }
    SboxExperiment plain(style, ecfg);
    const std::uint64_t expected =
        jobs::digestOfTraceSet(plain.acquireAt(0.0));

    const SimEngine engines[] = {SimEngine::Reference, SimEngine::Batch};
    for (SimEngine engine : engines) {
      for (std::uint32_t threads : {1u, 2u}) {
        const std::string path = tmpPath(
            std::string(adaptive ? "lpa_kill_adaptive_" : "lpa_kill_") +
            std::to_string(static_cast<int>(engine)) + "_" +
            std::to_string(threads) + ".ckpt");

        const pid_t child = fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
          // Child: run with a hook that SIGKILLs the process the moment
          // group 2 starts — groups 0 and 1 are already durably
          // checkpointed, group 2 dies uncommitted.
          jobs::JobConfig job;
          job.checkpointPath = path;
          job.groupTraces = 32;
          job.beforeGroupHook = [](std::uint64_t group, std::uint32_t,
                                   SimEngine) {
            if (group == 2) ::raise(SIGKILL);
          };
          ExperimentConfig cfg = ecfg;
          cfg.acquisition.engine = engine;
          cfg.acquisition.numThreads = threads;
          try {
            SboxExperiment victim(style, cfg);
            (void)victim.resilientAcquireAt(0.0, job);
          } catch (...) {
          }
          ::_exit(3);  // only reached if the SIGKILL never fired
        }

        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status))
            << "child exited with status " << status
            << " instead of dying by signal";
        ASSERT_EQ(WTERMSIG(status), SIGKILL);

        // Parent: resume from the orphaned checkpoint (any engine/threads)
        // and verify bit-identity with the uninterrupted run.
        jobs::JobConfig job;
        job.checkpointPath = path;
        job.groupTraces = 32;
        ExperimentConfig cfg = ecfg;
        cfg.acquisition.engine = engine;
        cfg.acquisition.numThreads = threads;
        SboxExperiment resumer(style, cfg);
        const jobs::ResilientResult res = resumer.resilientAcquireAt(0.0, job);
        EXPECT_TRUE(res.resilience.resumed);
        EXPECT_EQ(res.resilience.groupsCompleted, 4u);
        EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected)
            << (adaptive ? "adaptive" : "fixed") << " engine "
            << static_cast<int>(engine) << " threads " << threads;
        std::remove(path.c_str());
      }
    }
  }
}

}  // namespace
}  // namespace lpa
