// Slow-tier tests for convergence-gated acquisition (stats/adaptive.h):
// determinism across thread counts and engines, the early-stop-is-a-prefix
// contract, stop semantics, the AcquisitionConfig::adaptive routing, and a
// drained + resumed adaptive run of the durable runner (jobs/resilient.h)
// continuing the uninterrupted run prefix-identically.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "stats/adaptive.h"
#include "trace_set_match.h"

namespace lpa {
namespace {

ExperimentConfig adaptiveConfig() {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 128;  // budget: 2048 traces
  cfg.acquisition.batchSize = 256;
  cfg.acquisition.targetCiRel = 0.45;
  return cfg;
}

constexpr stats::StreamingLeakage::Options kFourFolds{
    EstimatorMode::Debiased, /*numFolds=*/4, 0.95};

TEST(AdaptiveAcquire, BitReproducibleAcrossThreadCounts) {
  ExperimentConfig cfg = adaptiveConfig();
  cfg.acquisition.numThreads = 1;
  SboxExperiment one(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult a = one.adaptiveAcquireAt(0.0, kFourFolds);

  cfg.acquisition.numThreads = 0;  // hardware concurrency
  SboxExperiment many(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult b = many.adaptiveAcquireAt(0.0, kFourFolds);

  EXPECT_TRUE(sameTraceSet(a.traces, b.traces));
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.batches, b.batches);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].total, b.history[i].total);
    EXPECT_EQ(a.history[i].ciHalfWidth, b.history[i].ciHalfWidth);
  }
}

TEST(AdaptiveAcquire, BitIdenticalAcrossEngines) {
  ExperimentConfig cfg = adaptiveConfig();
  cfg.acquisition.engine = SimEngine::Reference;
  SboxExperiment ref(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult a = ref.adaptiveAcquireAt(0.0, kFourFolds);

  cfg.acquisition.engine = SimEngine::Auto;  // batch: batches are >= 64
  SboxExperiment fast(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult b = fast.adaptiveAcquireAt(0.0, kFourFolds);

  EXPECT_TRUE(sameTraceSet(a.traces, b.traces));
  EXPECT_EQ(a.estimate.total, b.estimate.total);
  EXPECT_EQ(a.stop, b.stop);

  cfg.acquisition.engine = SimEngine::Batch;  // forced bit-parallel engine
  SboxExperiment bat(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult c = bat.adaptiveAcquireAt(0.0, kFourFolds);

  EXPECT_TRUE(sameTraceSet(a.traces, c.traces));
  EXPECT_EQ(a.estimate.total, c.estimate.total);
  EXPECT_EQ(a.stop, c.stop);

  // Batch engine + single worker: the lane-group sharding must be thread
  // invariant exactly like the scalar engines.
  cfg.acquisition.numThreads = 1;
  SboxExperiment batOne(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult d = batOne.adaptiveAcquireAt(0.0, kFourFolds);
  EXPECT_TRUE(sameTraceSet(a.traces, d.traces));
  EXPECT_EQ(a.estimate.total, d.estimate.total);
}

TEST(AdaptiveAcquire, EarlyStopIsPrefixOfFullBudgetRun) {
  // The gated run must return exactly the first N traces of the run that
  // exhausts the budget: the stop rule reads the estimates, never the
  // trace generation (batch b's seed depends only on (seed, b)).
  ExperimentConfig gated = adaptiveConfig();
  SboxExperiment g(SboxStyle::Isw, gated);
  const stats::AdaptiveResult early = g.adaptiveAcquireAt(0.0, kFourFolds);
  ASSERT_EQ(early.stop, stats::AdaptiveStop::CiTarget)
      << "tune targetCiRel: the gated run must stop early for this test";
  ASSERT_LT(early.traces.size(), 2048u);

  ExperimentConfig full = adaptiveConfig();
  full.acquisition.targetCiRel = 1e-9;  // unreachable: burn the budget
  SboxExperiment f(SboxStyle::Isw, full);
  const stats::AdaptiveResult exhausted = f.adaptiveAcquireAt(0.0, kFourFolds);
  EXPECT_EQ(exhausted.stop, stats::AdaptiveStop::MaxTraces);
  EXPECT_EQ(exhausted.traces.size(), 2048u);

  EXPECT_TRUE(traceSetIsPrefix(early.traces, exhausted.traces));
}

TEST(AdaptiveAcquire, StopSemanticsAndHistory) {
  ExperimentConfig cfg = adaptiveConfig();
  SboxExperiment exp(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult res = exp.adaptiveAcquireAt(0.0, kFourFolds);

  EXPECT_EQ(res.stop, stats::AdaptiveStop::CiTarget);
  EXPECT_LT(res.traces.size(), 2048u);
  EXPECT_EQ(res.traces.size(), 256u * res.batches);
  EXPECT_EQ(res.estimate.traces, res.traces.size());
  EXPECT_LE(res.estimate.totalCi.relHalfWidth, 0.45);
  ASSERT_EQ(res.history.size(), res.batches);
  for (std::size_t i = 0; i < res.history.size(); ++i) {
    EXPECT_EQ(res.history[i].traces, 256u * (i + 1));
  }
  // Only the last point may meet the target (the loop stops there).
  for (std::size_t i = 0; i + 1 < res.history.size(); ++i) {
    EXPECT_GT(res.history[i].ciRel, 0.45);
  }
}

TEST(AdaptiveAcquire, AcquireRoutesTheAdaptiveFlag) {
  // acquire()/acquireAt() with cfg.adaptive = true must return exactly the
  // traces of the explicit adaptiveAcquire call.
  ExperimentConfig cfg = adaptiveConfig();
  SboxExperiment exp(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult res = exp.adaptiveAcquireAt(0.0);

  cfg.acquisition.adaptive = true;
  SboxExperiment routed(SboxStyle::Isw, cfg);
  const TraceSet traces = routed.acquireAt(0.0);
  EXPECT_TRUE(sameTraceSet(traces, res.traces));
}

TEST(AdaptiveAcquire, RejectsMalformedConfig) {
  ExperimentConfig cfg = adaptiveConfig();
  SboxExperiment exp(SboxStyle::Isw, cfg);

  ExperimentConfig bad = cfg;
  bad.acquisition.batchSize = 0;
  SboxExperiment b0(SboxStyle::Isw, bad);
  EXPECT_THROW(b0.adaptiveAcquireAt(0.0), std::invalid_argument);

  bad = cfg;
  bad.acquisition.batchSize = 100;  // not a multiple of 16
  SboxExperiment b1(SboxStyle::Isw, bad);
  EXPECT_THROW(b1.adaptiveAcquireAt(0.0), std::invalid_argument);

  bad = cfg;
  bad.acquisition.targetCiRel = 0.0;
  SboxExperiment b2(SboxStyle::Isw, bad);
  EXPECT_THROW(b2.adaptiveAcquireAt(0.0), std::invalid_argument);

  bad = cfg;
  bad.acquisition.maxTraces = 100;  // not a multiple of 16
  SboxExperiment b3(SboxStyle::Isw, bad);
  EXPECT_THROW(b3.adaptiveAcquireAt(0.0), std::invalid_argument);
}

std::string tmpPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

const char* stopName(stats::AdaptiveStop stop) {
  return stop == stats::AdaptiveStop::CiTarget ? "ci-target" : "max-traces";
}

TEST(AdaptiveResilience, DrainAndResumeIsPrefixIdenticalContinuation) {
  const SimEngine engines[] = {SimEngine::Reference, SimEngine::Batch};
  for (SimEngine engine : engines) {
    for (std::uint32_t threads : {1u, 0u}) {  // 0 = hardware concurrency
      // RSM (masked: real within-class variance), a 512-trace budget in
      // batches of 128, and a target that exhausts it.
      ExperimentConfig cfg;
      cfg.acquisition.tracesPerClass = 32;
      cfg.acquisition.adaptive = true;
      cfg.acquisition.batchSize = 128;
      cfg.acquisition.targetCiRel = 1e-6;
      cfg.acquisition.engine = engine;
      cfg.acquisition.numThreads = threads;

      SboxExperiment plain(SboxStyle::Rsm, cfg);
      const stats::AdaptiveResult full = plain.adaptiveAcquireAt(0.0, kFourFolds);

      const std::string path = tmpPath(
          "lpa_adaptive_resume_" + std::to_string(static_cast<int>(engine)) +
          "_" + std::to_string(threads) + ".ckpt");
      jobs::JobConfig job;
      job.checkpointPath = path;
      job.statsOpt = kFourFolds;
      job.stopAfterGroups = 2;
      SboxExperiment first(SboxStyle::Rsm, cfg);
      const jobs::ResilientResult half = first.resilientAcquireAt(0.0, job);
      EXPECT_TRUE(half.resilience.truncated);
      EXPECT_EQ(half.resilience.stopReason, "drain");
      ASSERT_EQ(half.traces.size(), 256u);
      // The drained run is a strict prefix of the uninterrupted one.
      ASSERT_TRUE(traceSetIsPrefix(half.traces, full.traces));

      jobs::JobConfig rest = job;
      rest.stopAfterGroups = 0;
      SboxExperiment second(SboxStyle::Rsm, cfg);
      const jobs::ResilientResult res = second.resilientAcquireAt(0.0, rest);
      EXPECT_TRUE(res.resilience.resumed);
      EXPECT_TRUE(sameTraceSet(res.traces, full.traces))
          << "engine " << static_cast<int>(engine) << " threads " << threads;
      EXPECT_EQ(res.estimate.total, full.estimate.total);
      EXPECT_EQ(res.resilience.groupsCompleted, full.batches);
      EXPECT_EQ(res.resilience.stopReason, stopName(full.stop));
      std::remove(path.c_str());
    }
  }
}

}  // namespace
}  // namespace lpa
