#include "stats/adaptive.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "trace/sharded_pool.h"

namespace lpa::stats {

const char* adaptiveStopName(AdaptiveStop stop) {
  switch (stop) {
    case AdaptiveStop::CiTarget:
      return "ci-target";
    case AdaptiveStop::MaxTraces:
      return "max-traces";
  }
  return "unknown";
}

AdaptiveResult adaptiveAcquire(const MaskedSbox& sbox, EventSim& sim,
                               const PowerModel& power,
                               const AcquisitionConfig& cfg,
                               const StreamingLeakage::Options& statsOpt) {
  if (cfg.batchSize == 0 || cfg.batchSize % 16 != 0) {
    throw std::invalid_argument(
        "adaptiveAcquire: batchSize must be a positive multiple of 16");
  }
  const std::uint64_t maxTraces =
      cfg.maxTraces != 0 ? cfg.maxTraces : 16ULL * cfg.tracesPerClass;
  if (maxTraces == 0 || maxTraces % 16 != 0) {
    throw std::invalid_argument(
        "adaptiveAcquire: maxTraces must be a positive multiple of 16");
  }
  if (!(cfg.targetCiRel > 0.0)) {
    throw std::invalid_argument("adaptiveAcquire: targetCiRel must be > 0");
  }

  obs::Span span("adaptive.acquire (target ciRel " +
                 std::to_string(cfg.targetCiRel) + ", budget " +
                 std::to_string(maxTraces) + ")");
  auto& reg = obs::MetricsRegistry::global();

  const auto start = std::chrono::steady_clock::now();
  // Window rule (see the header): at least two 64-lane groups per worker,
  // and at least as many batches as are already kept, so the number of
  // calls grows logarithmically with the batches a run keeps.
  const std::uint64_t batchSize = cfg.batchSize;
  const std::uint64_t totalBatches = (maxTraces + batchSize - 1) / batchSize;
  const std::uint64_t threads =
      resolveWorkerThreads(cfg.numThreads, ~std::size_t(0));
  const std::uint64_t floorBatches =
      (2 * threads * BatchSim::kLanes + batchSize - 1) / batchSize;

  AdaptiveResult res{TraceSet(power.options().numSamples)};
  StreamingLeakage stream(power.options().numSamples, statsOpt);
  ConvergenceMonitor monitor({cfg.targetCiRel, /*minTraces=*/0});

  std::uint64_t acquired = 0;     // traces of the kept batches
  std::uint64_t reported = 0;     // progress high-water mark
  std::uint64_t sequentialTo = 0;  // batches below this run one per call
  bool stopped = false;
  while (acquired < maxTraces && !stopped) {
    const std::uint64_t window =
        res.batches < sequentialTo
            ? 1
            : std::min(totalBatches - res.batches,
                       std::max<std::uint64_t>(res.batches, floorBatches));
    const std::uint64_t windowTraces =
        std::min(window * batchSize, maxTraces - acquired);

    AcquisitionConfig wcfg = cfg;
    wcfg.progress = {};
    if (cfg.progress) {
      // Re-report window-relative progress against the overall budget. Pure
      // rendering; the high-water mark keeps it monotone across the
      // one-batch redo of a failed window.
      wcfg.progress = [&, base = acquired](const obs::ProgressUpdate& u) {
        reported = std::max(reported, base + u.done);
        obs::ProgressUpdate o;
        o.label = "adaptive-acquire";
        o.done = reported;
        o.total = maxTraces;
        o.elapsedSec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        o.ratePerSec = o.elapsedSec > 0.0
                           ? static_cast<double>(o.done) / o.elapsedSec
                           : 0.0;
        o.etaSec = o.done > 0 ? o.elapsedSec / static_cast<double>(o.done) *
                                    static_cast<double>(o.total - o.done)
                              : -1.0;
        return cfg.progress(o);
      };
    }

    res.traces.resize(acquired + windowTraces);
    try {
      acquireAdaptiveWindow(sbox, sim, power, wcfg, res.batches,
                            windowTraces, res.traces, acquired);
    } catch (const obs::ProgressAborted& e) {
      throw obs::ProgressAborted("adaptive-acquire", acquired + e.done(),
                                 maxTraces);
    } catch (...) {
      if (window == 1) throw;
      // The failure may lie past the stop point, and its report must be
      // the one-batch run's: redo this window one batch per call.
      res.traces.resize(acquired);
      sequentialTo = res.batches + window;
      continue;
    }

    // Fold the window batch by batch, applying the stop rule after each,
    // exactly as one call per batch would.
    const std::uint64_t windowEnd = acquired + windowTraces;
    while (acquired < windowEnd) {
      const std::uint64_t batchEnd =
          std::min(acquired + batchSize, windowEnd);
      for (std::uint64_t i = acquired; i < batchEnd; ++i) {
        stream.addTrace(res.traces.label(i), res.traces.trace(i));
      }
      reg.counter("adaptive.traces").add(batchEnd - acquired);
      acquired = batchEnd;
      ++res.batches;

      res.estimate = stream.estimate();
      monitor.observe(res.estimate);
      reg.counter("adaptive.batches").add(1);

      if (monitor.converged()) {
        stopped = true;
        break;
      }
    }
    if (stopped) {
      reg.counter("adaptive.traces_discarded").add(windowEnd - acquired);
      res.traces.resize(acquired);
    }
  }
  res.stop = stopped ? AdaptiveStop::CiTarget : AdaptiveStop::MaxTraces;

  res.history = monitor.history();
  reg.counter(res.stop == AdaptiveStop::CiTarget
                  ? "adaptive.stop_ci_target"
                  : "adaptive.stop_max_traces")
      .add(1);
  reg.gauge("adaptive.traces_used").set(static_cast<double>(acquired));
  return res;
}

}  // namespace lpa::stats
