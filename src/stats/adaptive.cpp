#include "stats/adaptive.h"

#include <exception>
#include <string>

#include "jobs/resilient.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"

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
  obs::Span span("adaptive.acquire (target ciRel " +
                 std::to_string(cfg.targetCiRel) + ")");
  AcquisitionConfig acfg = cfg;
  acfg.adaptive = true;
  acfg.deadlineMs = 0;
  jobs::JobConfig job;
  job.retry.maxAttempts = 1;
  job.statsOpt = statsOpt;
  jobs::ResilientResult run;
  try {
    run = jobs::resilientAcquire(sbox, sim, power, acfg, job);
  } catch (const WorkerError& e) {
    std::rethrow_if_nested(e);  // the failing batch's own report
    throw;
  }

  AdaptiveResult res{std::move(run.traces), std::move(run.estimate),
                     std::move(run.history),
                     static_cast<std::uint32_t>(run.resilience.groupsCompleted),
                     run.resilience.stopReason == "ci-target"
                         ? AdaptiveStop::CiTarget
                         : AdaptiveStop::MaxTraces};
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("adaptive.batches").add(res.batches);
  reg.counter("adaptive.traces").add(res.traces.size());
  reg.counter(res.stop == AdaptiveStop::CiTarget ? "adaptive.stop_ci_target"
                                                 : "adaptive.stop_max_traces")
      .add(1);
  reg.gauge("adaptive.traces_used").set(static_cast<double>(res.traces.size()));
  return res;
}

}  // namespace lpa::stats
