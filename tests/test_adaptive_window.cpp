// Tier-1 tests for adaptive acquisition in multi-batch windows
// (stats/adaptive.h, "Acquisition windows"): whatever the window size, the
// kept traces, history, batch count and stop reason equal those of one
// acquire() call per batch; failures, aborts and progress keep the
// one-batch-per-call semantics; and the budget is never allocated up front.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "crypto/present.h"
#include "jobs/resilient.h"
#include "jobs/trace_digest.h"
#include "obs/metrics.h"
#include "stats/adaptive.h"
#include "trace/sharded_pool.h"
#include "trace_set_match.h"

namespace lpa {
namespace {

/// The simulator stack SboxExperiment builds, around any MaskedSbox.
struct Rig {
  Rig(const MaskedSbox& s, const ExperimentConfig& c)
      : sbox(s),
        delays(s.netlist(), c.delay),
        power(s.netlist(), c.power),
        sim(s.netlist(), delays, c.sim) {}
  const MaskedSbox& sbox;
  DelayModel delays;
  PowerModel power;
  EventSim sim;
};

/// The oracle: one public acquire() per batch under its derived seed,
/// folded into the estimator batch by batch, stop rule after each.
stats::AdaptiveResult oneBatchAtATime(Rig& rig, const AcquisitionConfig& cfg) {
  stats::AdaptiveResult res{TraceSet(rig.power.options().numSamples), {},
                            {}};
  stats::StreamingLeakage stream(rig.power.options().numSamples);
  stats::ConvergenceMonitor monitor({cfg.targetCiRel, /*minTraces=*/0});
  while (res.traces.size() < cfg.maxTraces) {
    AcquisitionConfig bcfg = cfg;
    bcfg.progress = {};
    bcfg.tracesPerClass = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg.batchSize,
                                cfg.maxTraces - res.traces.size()) /
        16);
    bcfg.seed = stats::adaptiveBatchSeed(cfg.seed, res.batches++);
    const TraceSet batch = acquire(rig.sbox, rig.sim, rig.power, bcfg);
    res.traces.append(batch);
    stream.addTraceSet(batch);
    res.estimate = stream.estimate();
    monitor.observe(res.estimate);
    if (monitor.converged()) {
      res.stop = stats::AdaptiveStop::CiTarget;
      break;
    }
  }
  res.history = monitor.history();
  return res;
}

void expectSameRun(const stats::AdaptiveResult& got,
                   const stats::AdaptiveResult& want) {
  ASSERT_TRUE(sameTraceSet(got.traces, want.traces));
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.stop, want.stop);
  EXPECT_EQ(got.estimate.total, want.estimate.total);
  ASSERT_EQ(got.history.size(), want.history.size());
  for (std::size_t i = 0; i < got.history.size(); ++i) {
    EXPECT_EQ(got.history[i].total, want.history[i].total);
    EXPECT_EQ(got.history[i].ciHalfWidth, want.history[i].ciHalfWidth);
  }
}

std::uint64_t counterValue(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// 16 batches of 64 traces. Windows are 2, 4 or 8 batches at first (1, 2,
/// 4 threads) and double with the batches kept, so they end after 2, 4, 8
/// or 16 batches: the targets below stop a run after 5 (ISW) or 6 (GLUT)
/// batches, inside a window for every thread count.
ExperimentConfig windowConfig(SboxStyle style) {
  ExperimentConfig cfg;
  cfg.acquisition.batchSize = 64;
  cfg.acquisition.maxTraces = 1024;
  cfg.acquisition.targetCiRel = style == SboxStyle::Isw ? 0.40 : 0.75;
  return cfg;
}

TEST(AdaptiveWindow, MatchesOneBatchPerCallAcrossEnginesAndThreads) {
  for (SboxStyle style : {SboxStyle::Isw, SboxStyle::Glut}) {
    const std::unique_ptr<MaskedSbox> sbox = makeSbox(style);
    ExperimentConfig cfg = windowConfig(style);
    cfg.acquisition.numThreads = 1;
    Rig oracleRig(*sbox, cfg);
    const stats::AdaptiveResult want =
        oneBatchAtATime(oracleRig, cfg.acquisition);
    ASSERT_EQ(want.stop, stats::AdaptiveStop::CiTarget);
    ASSERT_EQ(want.batches, style == SboxStyle::Isw ? 5u : 6u)
        << "retune targetCiRel: the stop must land inside a window";

    for (SimEngine engine : {SimEngine::Auto, SimEngine::Reference}) {
      for (std::uint32_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string(sbox->name()) + " engine " +
                     std::to_string(static_cast<int>(engine)) + ", " +
                     std::to_string(threads) + " threads");
        cfg.acquisition.engine = engine;
        cfg.acquisition.numThreads = threads;
        Rig rig(*sbox, cfg);
        const std::uint64_t discarded0 =
            counterValue("adaptive.traces_discarded");
        const std::uint64_t simulated0 = counterValue("acquire.traces_total");
        const stats::AdaptiveResult got = stats::adaptiveAcquire(
            rig.sbox, rig.sim, rig.power, cfg.acquisition);
        expectSameRun(got, want);
        // The stop landed inside a window: its later batches were
        // simulated and discarded, and acquire.traces_total counts them.
        const std::uint64_t discarded =
            counterValue("adaptive.traces_discarded") - discarded0;
        EXPECT_GT(discarded, 0u);
        EXPECT_EQ(counterValue("acquire.traces_total") - simulated0,
                  got.traces.size() + discarded);
      }
    }
  }
}

TEST(AdaptiveWindow, ExhaustedBudgetDiscardsNothing) {
  ExperimentConfig cfg = windowConfig(SboxStyle::Isw);
  cfg.acquisition.targetCiRel = 1e-9;
  cfg.acquisition.maxTraces = 720;  // 11 full batches and one of 16
  cfg.acquisition.numThreads = 4;
  const std::unique_ptr<MaskedSbox> sbox = makeSbox(SboxStyle::Isw);
  Rig rig(*sbox, cfg);
  const std::uint64_t discarded0 = counterValue("adaptive.traces_discarded");
  const stats::AdaptiveResult got =
      stats::adaptiveAcquire(rig.sbox, rig.sim, rig.power, cfg.acquisition);
  EXPECT_EQ(counterValue("adaptive.traces_discarded"), discarded0);
  EXPECT_EQ(got.stop, stats::AdaptiveStop::MaxTraces);
  EXPECT_EQ(got.batches, 12u);
  expectSameRun(got, oneBatchAtATime(rig, cfg.acquisition));
}

TEST(AdaptiveWindow, HugeBudgetIsNotAllocatedUpFront) {
  // A budget far beyond what the run keeps must cost nothing: the result
  // grows one window at a time instead of reserving maxTraces.
  ExperimentConfig cfg;
  cfg.acquisition.batchSize = 256;
  cfg.acquisition.targetCiRel = 0.45;
  cfg.acquisition.maxTraces = 2048;
  const stats::StreamingLeakage::Options fourFolds{EstimatorMode::Debiased,
                                                   /*numFolds=*/4, 0.95};
  SboxExperiment small(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult want = small.adaptiveAcquireAt(0.0, fourFolds);
  ASSERT_EQ(want.stop, stats::AdaptiveStop::CiTarget);
  ASSERT_EQ(want.traces.size(), 512u);
  ASSERT_EQ(want.batches, 2u);
  for (std::uint64_t budget : {std::uint64_t(1) << 28,
                               std::uint64_t(1) << 40}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    cfg.acquisition.maxTraces = budget;
    SboxExperiment huge(SboxStyle::Isw, cfg);
    expectSameRun(huge.adaptiveAcquireAt(0.0, fourFolds), want);
  }
}

/// Fails the decode check of exactly one trace of the 16-batch run of
/// windowConfig(): the first trace j of adaptive batch `k` whose final
/// encoding no other trace of the run shares, rebuilt from the documented
/// stream derivation (stats/adaptive.h, trace/acquisition.h). Everything
/// else delegates to the real style.
class PlantedFailureSbox final : public MaskedSbox {
 public:
  PlantedFailureSbox(SboxStyle style, const AcquisitionConfig& cfg,
                     std::uint64_t k)
      : inner_(makeSbox(style)) {
    nl_ = inner_->netlist();
    std::vector<std::vector<std::uint8_t>> fins;
    for (std::uint64_t b = 0; b < cfg.maxTraces / cfg.batchSize; ++b) {
      const std::uint64_t seed = stats::adaptiveBatchSeed(cfg.seed, b);
      const std::vector<std::uint8_t> schedule =
          balancedClassSchedule(cfg.batchSize / 16, seed);
      for (std::size_t j = 0; j < cfg.batchSize; ++j) {
        Prng rng(deriveStreamSeed(seed, j));
        (void)inner_->encode(cfg.initialValue, rng);
        fins.push_back(inner_->encode(schedule[j], rng));
      }
    }
    for (j_ = 0; j_ < cfg.batchSize; ++j_) {
      planted_ = fins[k * cfg.batchSize + j_];
      if (std::count(fins.begin(), fins.end(), planted_) == 1) return;
    }
    throw std::logic_error("no trace of the batch has a unique encoding");
  }
  /// Index of the failing trace within its batch.
  std::size_t index() const { return j_; }

  SboxStyle style() const override { return inner_->style(); }
  int randomBits() const override { return inner_->randomBits(); }
  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    return inner_->encode(plain, rng);
  }
  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    const std::uint8_t v = inner_->decode(outputs, inputs);
    return inputs == planted_ ? static_cast<std::uint8_t>(v ^ 1u) : v;
  }

 private:
  std::unique_ptr<MaskedSbox> inner_;
  std::vector<std::uint8_t> planted_;
  std::size_t j_ = 0;
};

/// Runs `fn`, which must throw a WorkerError, and returns it rendered as
/// (index, what, nested what).
template <typename Fn>
std::string workerErrorOf(const Fn& fn) {
  try {
    fn();
  } catch (const WorkerError& e) {
    std::string nested;
    try {
      std::rethrow_if_nested(e);
    } catch (const std::exception& inner) {
      nested = inner.what();
    }
    return std::to_string(e.index()) + " | " + e.what() + " | " + nested;
  }
  ADD_FAILURE() << "expected a WorkerError";
  return "";
}

TEST(AdaptiveWindow, FailureIsReportedAsTheOneBatchCallReportsIt) {
  // ISW stops after 5 batches (windowConfig). A failure planted in batch 3
  // is reached and must surface exactly as acquire() of batch 3 reports
  // it; one planted in batch 6 lies past the stop point and must never be
  // reported, although multi-batch windows simulate it.
  const ExperimentConfig cfg = windowConfig(SboxStyle::Isw);
  const std::unique_ptr<MaskedSbox> clean = makeSbox(SboxStyle::Isw);
  Rig cleanRig(*clean, cfg);
  const stats::AdaptiveResult want =
      oneBatchAtATime(cleanRig, cfg.acquisition);
  ASSERT_EQ(want.batches, 5u);

  const PlantedFailureSbox reached(SboxStyle::Isw, cfg.acquisition, 3);
  const PlantedFailureSbox pastStop(SboxStyle::Isw, cfg.acquisition, 6);
  Rig reachedRig(reached, cfg);
  AcquisitionConfig batch3 = cfg.acquisition;
  batch3.tracesPerClass = cfg.acquisition.batchSize / 16;
  batch3.seed = stats::adaptiveBatchSeed(cfg.acquisition.seed, 3);
  const std::string oracleError = workerErrorOf([&] {
    (void)acquire(reached, reachedRig.sim, reachedRig.power, batch3);
  });
  ASSERT_EQ(oracleError.rfind(std::to_string(reached.index()) +
                                  " | acquire trace ",
                              0),
            0u)
      << oracleError;

  for (SimEngine engine : {SimEngine::Auto, SimEngine::Reference}) {
    for (std::uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                   ", " + std::to_string(threads) + " threads");
      AcquisitionConfig acfg = cfg.acquisition;
      acfg.engine = engine;
      acfg.numThreads = threads;
      Rig rig(reached, cfg);
      const std::uint64_t retries0 = counterValue("jobs.retries");
      EXPECT_EQ(workerErrorOf([&] {
                  (void)stats::adaptiveAcquire(reached, rig.sim, rig.power,
                                               acfg);
                }),
                oracleError);
      EXPECT_EQ(counterValue("jobs.retries"), retries0)
          << "a plain adaptive run makes one attempt per batch";
      Rig pastRig(pastStop, cfg);
      expectSameRun(
          stats::adaptiveAcquire(pastStop, pastRig.sim, pastRig.power, acfg),
          want);

      // The durable runner with retries on: the failed window is redone
      // one batch per call, and that window attempt is not a retry.
      AcquisitionConfig adaptive = acfg;
      adaptive.adaptive = true;
      jobs::JobConfig job;
      job.retry.baseBackoffMs = 0;
      const jobs::ResilientResult durable = jobs::resilientAcquire(
          pastStop, pastRig.sim, pastRig.power, adaptive, job);
      EXPECT_EQ(jobs::digestOfTraceSet(durable.traces),
                jobs::digestOfTraceSet(want.traces));
      EXPECT_EQ(durable.resilience.stopReason, "ci-target");
      EXPECT_EQ(durable.resilience.retries, 0u);
    }
  }
}

TEST(AdaptiveWindow, ProgressIsMonotoneWithinBudgetAndAbortIsRelabelled) {
  ExperimentConfig cfg = windowConfig(SboxStyle::Isw);
  cfg.acquisition.targetCiRel = 1e-9;
  cfg.acquisition.numThreads = 4;
  const std::unique_ptr<MaskedSbox> sbox = makeSbox(SboxStyle::Isw);
  Rig rig(*sbox, cfg);

  std::vector<std::uint64_t> seen;
  AcquisitionConfig acfg = cfg.acquisition;
  acfg.progress = [&](const obs::ProgressUpdate& u) {
    EXPECT_EQ(std::string(u.label), "adaptive-acquire");
    EXPECT_EQ(u.total, acfg.maxTraces);
    seen.push_back(u.done);
    return true;
  };
  (void)stats::adaptiveAcquire(rig.sbox, rig.sim, rig.power, acfg);
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_LE(seen[i], acfg.maxTraces);
    if (i > 0) {
      EXPECT_GE(seen[i], seen[i - 1]);
    }
  }
  EXPECT_EQ(seen.back(), acfg.maxTraces);

  // A sink that aborts at its first update past the first window (8
  // batches; a window's first update is never rate-limited): the abort is
  // not retried and carries the run's label and budget.
  acfg.progress = [&](const obs::ProgressUpdate& u) { return u.done <= 512; };
  try {
    (void)stats::adaptiveAcquire(rig.sbox, rig.sim, rig.power, acfg);
    FAIL() << "the sink's abort must stop the run";
  } catch (const obs::ProgressAborted& e) {
    EXPECT_NE(std::string(e.what()).find("adaptive-acquire"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.total(), acfg.maxTraces);
    EXPECT_GT(e.done(), 512u);  // the first window finished
    EXPECT_LE(e.done(), acfg.maxTraces);
  }
}

}  // namespace
}  // namespace lpa
