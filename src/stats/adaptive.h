#pragma once
// Convergence-gated trace acquisition (DESIGN.md §10).
//
// `adaptiveAcquire` collects traces in deterministic class-balanced batches,
// folds each batch into a StreamingLeakage estimator, and stops as soon as
// the relative half-width of the total-leakage confidence interval meets
// the target — typically well before the fixed-count budget on styles whose
// estimate converges quickly. It is an adapter over the one acquisition
// loop, jobs::resilientAcquire in adaptive mode (jobs/resilient.h): no
// checkpoint, no deadline, one attempt per batch.
//
// ## Determinism contract
//
// Batch b runs the ordinary acquisition protocol under its own derived
// master seed adaptiveBatchSeed(seed, b), so every trace of batch b depends
// only on (seed, b, its index within the batch) — never on thread count,
// wall clock, window size, or how earlier batches came out. Combined with
// the stop rule being a pure function of the folded traces, the whole
// adaptive run is bit-reproducible given (seed, batchSize), and a run that
// stops early returns a prefix of the traces the maxTraces run would
// return. The nested-derivation pattern mirrors the fault campaign's (~1
// domain); the substream family so far:
//   ~0 = schedule shuffle, ~1 = fault campaign, ~2 = adaptive batches.
//
// The loop simulates W batches per call and folds them one at a time with
// the stop rule after each, discarding batches past the stop (the window
// rule and its waste bound are in jobs/resilient.h). Failures, aborts and
// progress keep the semantics of one acquire() call per batch: a failure
// is rethrown exactly as acquire() of the failing batch reports it (index,
// message, nested cause) and one past the stop point is never reported; a
// cooperative abort is rethrown as ProgressAborted("adaptive-acquire",
// traces done, maxTraces); cfg.progress sees ("adaptive-acquire", done,
// maxTraces) updates with `done` monotone and <= maxTraces.

#include <cstdint>
#include <vector>

#include "power/power_model.h"
#include "sboxes/masked_sbox.h"
#include "sim/event_sim.h"
#include "stats/convergence.h"
#include "stats/streaming_leakage.h"
#include "trace/acquisition.h"
#include "trace/prng.h"
#include "trace/trace_set.h"

namespace lpa::stats {

/// Stream index of the adaptive batch-seed domain; far outside any trace
/// index, distinct from the schedule (~0) and fault-campaign (~1) domains.
inline constexpr std::uint64_t kAdaptiveBatchStream = ~2ULL;

/// Master seed of batch `b` of the adaptive run seeded with `seed`.
inline std::uint64_t adaptiveBatchSeed(std::uint64_t seed, std::uint64_t b) {
  return deriveStreamSeed(deriveStreamSeed(seed, kAdaptiveBatchStream), b);
}

enum class AdaptiveStop : std::uint8_t {
  CiTarget,   ///< the CI target was met before the budget ran out
  MaxTraces,  ///< the trace budget was exhausted first
};

const char* adaptiveStopName(AdaptiveStop stop);

struct AdaptiveResult {
  TraceSet traces;           ///< the kept batches' traces, batch order
  LeakageEstimate estimate;  ///< the final streaming estimate
  std::vector<ConvergencePoint> history;  ///< one point per batch
  std::uint32_t batches = 0;
  AdaptiveStop stop = AdaptiveStop::MaxTraces;
};

/// Runs convergence-gated acquisition per `cfg` (see AcquisitionConfig's
/// adaptive block; cfg.adaptive itself is ignored — calling this *is*
/// opting in — and so are cfg.deadlineMs and cfg.trapBudget). `statsOpt`
/// controls the estimator (mode, folds, confidence). Progress is reported
/// against the maxTraces budget through cfg.progress; metrics land in the
/// global registry (adaptive.batches, adaptive.traces,
/// adaptive.traces_discarded, stats.ci_rel, ...). The result grows one
/// window at a time, so a budget far beyond the traces a run keeps costs
/// nothing up front.
AdaptiveResult adaptiveAcquire(const MaskedSbox& sbox, EventSim& sim,
                               const PowerModel& power,
                               const AcquisitionConfig& cfg,
                               const StreamingLeakage::Options& statsOpt = {});

}  // namespace lpa::stats
