#pragma once
// Convergence-gated trace acquisition (DESIGN.md §10).
//
// `adaptiveAcquire` collects traces in deterministic class-balanced batches,
// folds each batch into a StreamingLeakage estimator, and stops as soon as
// the relative half-width of the total-leakage confidence interval meets
// the target — typically well before the fixed-count budget on styles whose
// estimate converges quickly.
//
// ## Determinism contract
//
// Batch b runs the ordinary acquisition protocol under its own derived
// master seed
//
//   batchSeed_b = adaptiveBatchSeed(seed, b)
//               = deriveStreamSeed(deriveStreamSeed(seed,
//                                                   kAdaptiveBatchStream), b)
//
// so every trace of batch b depends only on (seed, b, its index within the
// batch) — never on thread count, wall clock, or how earlier batches came
// out. Combined with the stop rule being a pure function of the folded
// traces, the whole adaptive run is bit-reproducible given (seed,
// batchSize), and a run that stops early returns a prefix of the traces the
// maxTraces run would return. The nested-derivation pattern mirrors the
// fault campaign's (~1 domain); the substream family so far:
//   ~0 = schedule shuffle, ~1 = fault campaign, ~2 = adaptive batches.
//
// ## Acquisition windows
//
// Batches are acquired in windows: W consecutive batches drawn, packed and
// simulated in one call (acquireAdaptiveWindow, trace/acquisition.h), then
// folded into the estimator one batch at a time with the stop rule applied
// after each batch, exactly as one call per batch would. Batches of the
// window past the stop point are discarded. Since every lane of the batch
// engine is bit-identical to its own scalar run, the kept traces, the
// history, `batches`, `stop` and the estimate do not depend on W.
//
// W is derived, not configured:
//
//   W = min(batches left in the budget,
//           max(batches kept so far, ceil(2 * T * 64 / batchSize)))
//
// with T the resolved worker count (cfg.numThreads, 0 = hardware
// concurrency). The second term gives every worker two 64-lane groups —
// what the pool's guided self-scheduling needs to balance — and the first
// doubles the window as the run grows, so a run makes O(log) calls and
// packs lane groups from ever more stimuli. The waste bound: a stopped run
// simulated fewer than max(kept traces, 2 * T * 64) traces it discards; a
// run that exhausts its budget discards none. Discarded traces are counted
// in `adaptive.traces_discarded`; `acquire.traces_total` counts every
// simulated trace, discarded ones included.
//
// ## Failure, abort and progress semantics
//
// They stay those of one call per batch:
//   * a window of W > 1 batches that throws (a WorkerError from a trace, or
//     any exception while drawing) is redone one batch per call, so the run
//     reports exactly the error — index, message, nested cause — that
//     acquire() of the failing batch reports, and a failure past the stop
//     point is never reported;
//   * a cooperative abort (obs::ProgressAborted) is not retried; it is
//     rethrown as ProgressAborted("adaptive-acquire", kept traces + the
//     window's finished traces, maxTraces);
//   * cfg.progress sees ("adaptive-acquire", done, maxTraces) updates with
//     `done` monotone and <= maxTraces.

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
/// opting in). `statsOpt` controls the estimator (mode, folds, confidence).
/// Progress is reported against the maxTraces budget through cfg.progress;
/// metrics land in the global registry (adaptive.batches, adaptive.traces,
/// adaptive.traces_discarded, stats.ci_rel, ...). The result grows one
/// window at a time, so a budget far beyond the traces a run keeps costs
/// nothing up front.
AdaptiveResult adaptiveAcquire(const MaskedSbox& sbox, EventSim& sim,
                               const PowerModel& power,
                               const AcquisitionConfig& cfg,
                               const StreamingLeakage::Options& statsOpt = {});

}  // namespace lpa::stats
