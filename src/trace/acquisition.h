#pragma once
// The paper's trace-sampling protocol (Fig. 5).
//
// Each trace:
//   1. the circuit settles on a random encoding of the fixed constant
//      (0000)b — class '0' (e.g. A_init ^ MI_init = 0 in GLUT);
//   2. at t = 0 a random encoding of the final text t is applied;
//   3. the supply current of the transition window is sampled
//      (100 samples over 2 ns at 50 GS/s).
//
// Class balance: with `tracesPerClass` = 64 and 16 classes this reproduces
// the paper's 1024-trace dataset. Final classes are visited in shuffled
// order (random but balanced, as in the paper).
//
// ## Determinism contract (parallel acquisition)
//
// Acquisition is deterministic in `seed` and *invariant in `numThreads`*:
// the returned TraceSet is bit-identical whether it was collected by one
// worker or many. This holds because no randomness is consumed
// sequentially across traces:
//
//   * the balanced class schedule is shuffled by a dedicated stream,
//     Prng(deriveStreamSeed(seed, kScheduleStream));
//   * trace i draws *everything* it needs — initial-state masks, final
//     encoding masks/gadget randomness, and its power-noise seed — from
//     its own stream Prng(deriveStreamSeed(seed, i)), where i is the
//     trace's position in the schedule (== its index in the TraceSet).
//
// In particular the noise seed passed to PowerModel::sample is a function
// of (seed, i), i.e. of the trace's *identity*, never of schedule position
// in some shared generator or of which worker ran the trace.
//
// A call draws the stimuli of all its traces first, then packs them into
// work items. On the batch engine an item is a lane group of up to 64
// traces, packed by stimulus: traces sorted by (initial encoding, final
// encoding, index) fill consecutive groups, so lanes that settle on the
// same state and apply similar inputs commit at the same times and share
// event waves. Packing depends only on the call's stimuli, and it is
// invisible in the result: every lane is bit-identical to its own scalar
// run whichever lanes share its group. On the reference engine an item is
// one trace. On the batch engine each worker slot runs on an engine taken
// from the process-wide free list (BatchEngineLease, sim/batch_sim.h) and
// re-bound to the call's lowering of `sim`'s netlist and DelayModel; on
// the reference engine worker 0 runs on `sim` itself and every other
// worker on a clone of it. Either way every worker simulates the same
// device (process jitter is shared, not re-rolled). Workers claim items
// from the pool's shared cursor (trace/sharded_pool.h) and write every
// trace straight into its schedule slot of one pre-sized TraceSet.
//
// ## Failure semantics
//
// A trace that throws (decode mismatch, SimDiverged from the watchdog,
// out-of-memory, ...) is recorded by the call, not thrown into the pool,
// and rethrown after the workers finish as a WorkerError
// (trace/sharded_pool.h) that names the trace index, its class/plaintext,
// and the implementation style, with the original exception nested.
// WorkerError::index() is exactly the LOWEST failing trace, on both
// engines and for any thread count: once a failure is recorded, workers
// skip only the items whose lowest trace index is at or above it, so every
// item that could hold a lower failing trace still runs. A lane group
// checks its lanes in trace order and blames the first that fails the
// decode check; a failure of the whole group (SimDiverged) blames the
// trace of BatchSim::divergedLane(). A trace failure outranks a
// cooperative abort (ProgressAborted) that races with it; the trace
// reported is then the lowest failure recorded before the abort.

#include <cstdint>

#include "obs/progress.h"
#include "power/power_model.h"
#include "sboxes/masked_sbox.h"
#include "sim/event_sim.h"
#include "trace/trace_set.h"

namespace lpa {

/// Which simulation engine serves an acquisition.
///
/// `Auto` (the default) serves every eligible design with the bit-parallel
/// batch engine (sim/batch_sim.h, up to 64 traces per gate operation; a
/// budget below the lane width runs one partial group) and falls back to
/// the reference EventSim otherwise — Auto never throws. Eligibility is
/// purely a property of the design: no fault overlay on the netlist and a
/// power model built for it (acquisition never needs the recorded
/// transition list; power deposition is fused into the commit step). The
/// two engines are bit-identical (same traces, same determinism digest,
/// same per-trace event tallies; enforced by tests/test_batch_sim.cpp and
/// the differential fuzzer), so `Auto` is safe everywhere; `Reference` and
/// `Batch` force one engine for A/B benchmarking and CI digest
/// cross-checks. Forcing `Batch` on an ineligible design throws
/// std::invalid_argument.
enum class SimEngine : std::uint8_t {
  Auto,       ///< batch on an eligible design, reference otherwise
  Reference,  ///< always the reference EventSim
  Batch,      ///< require the bit-parallel batch engine (throws if
              ///< ineligible)
};

struct AcquisitionConfig {
  std::uint32_t tracesPerClass = 64;
  std::uint8_t initialValue = 0x0;  ///< the fixed constant of the protocol
  /// Part of the calibrated operating point (DESIGN.md §5): the masked
  /// styles' finite-sample leakage estimates are mask-draw dependent, and
  /// this seed reproduces the paper's Fig. 7 ordering with the per-trace
  /// stream derivation.
  std::uint64_t seed = 0xCAFE0003ULL;
  /// Worker threads for acquisition. 0 = std::thread::hardware_concurrency.
  /// Any value yields bit-identical results (see determinism contract).
  std::uint32_t numThreads = 0;
  /// Optional progress sink (obs/progress.h): called rate-limited with
  /// (done, total, ETA) as traces finish; returning false aborts the
  /// acquisition cooperatively (throws obs::ProgressAborted). Reporting is
  /// a pure sink — with or without a sink the TraceSet is bit-identical.
  obs::ProgressFn progress;
  /// Engine selection; any choice yields bit-identical results (see
  /// SimEngine).
  SimEngine engine = SimEngine::Auto;
  /// Optional cost-attribution profiler (obs/profiler.h): the engine
  /// serving the run (every worker's batch engine, or the reference
  /// simulator and its worker clones) attaches to it and flushes per-run
  /// tallies. Pure sink — with or without a profiler the TraceSet is
  /// bit-identical. The profiler must outlive the acquisition and have
  /// nets pre-sized (engines call ensureNets before workers start).
  obs::Profiler* profiler = nullptr;

  // ## Convergence-gated (adaptive) acquisition
  //
  // With `adaptive` set, acquire() delegates to stats::adaptiveAcquire
  // (stats/adaptive.h), and jobs::resilientAcquire runs convergence-gated
  // groups: traces arrive in deterministic batches of `batchSize` — batch b
  // is a balanced mini-schedule run under the derived substream
  // stats::adaptiveBatchSeed(seed, b), so batch contents depend only on
  // (seed, b, batchSize) — and the run stops as soon as the relative
  // half-width of the streaming total-leakage CI reaches `targetCiRel`, or
  // at `maxTraces`. The one acquisition loop (jobs/resilient.h) simulates
  // several batches per call (acquireAdaptiveWindow) and folds them one at
  // a time. The collected TraceSet is bit-reproducible given (seed,
  // batchSize) and thread-count invariant, and a converged run's traces
  // are a prefix of the maxTraces run's.
  // `tracesPerClass` only serves as the default for maxTraces.
  bool adaptive = false;
  /// Stop once halfWidth(total-leakage CI) / total <= this.
  double targetCiRel = 0.10;
  /// Traces per adaptive batch; must be a positive multiple of 16 so every
  /// batch stays class-balanced.
  std::uint32_t batchSize = 128;
  /// Adaptive trace budget; 0 = 16 * tracesPerClass. Must be a multiple
  /// of 16.
  std::uint64_t maxTraces = 0;

  // ## Durable (deadline-bounded, retrying) acquisition
  //
  // These knobs are honored by the resilience layer (jobs/resilient.h),
  // which commits acquisition group by group with checkpoint/resume; plain
  // acquire() and stats::adaptiveAcquire ignore them (they have no
  // partial-result channel to return a truncated TraceSet through).

  /// Wall-clock budget in milliseconds for a resilient run (0 = none).
  /// The deadline cancels cooperatively through the ProgressMeter abort
  /// path; the run returns the committed prefix with `truncated` set in
  /// its ResilienceInfo instead of throwing.
  std::uint64_t deadlineMs = 0;
  /// Total retried group attempts a resilient run tolerates before the
  /// per-group failure escalates as a structured WorkerError.
  std::uint32_t trapBudget = 16;
};

/// The Fig. 5 protocol's balanced, shuffled 16-class schedule: 16 *
/// tracesPerClass entries, shuffled by the dedicated schedule stream of
/// `seed`. Exposed so other trace consumers (the fault campaign) reuse the
/// exact protocol.
std::vector<std::uint8_t> balancedClassSchedule(std::uint32_t tracesPerClass,
                                                std::uint64_t seed);

/// Collects a balanced, labelled trace set from `sbox` using the simulator
/// and power model (both must be built for sbox.netlist()). `sim` supplies
/// the netlist, delay model, options and metrics attachment of every
/// worker's engine (the batch engines are bound to a lowering of it, the
/// reference engine clones it); its state after the call is unspecified.
TraceSet acquire(const MaskedSbox& sbox, EventSim& sim,
                 const PowerModel& power,
                 const AcquisitionConfig& cfg = {});

/// Collects the contiguous slice [begin, end) of the run acquire() would
/// collect for `cfg` (global schedule indices; end <= 16 * tracesPerClass).
/// Because trace i draws everything from Prng(deriveStreamSeed(seed, i)),
/// concatenating slices in index order is bit-identical to one full
/// acquire() — the property the checkpoint/resume layer (jobs/resilient.h)
/// is built on: a window of fixed-run groups is one slice. Engine and
/// thread count are free per slice. cfg.adaptive must be false (adaptive
/// runs are sliced by batch, not by index).
TraceSet acquireRange(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      std::size_t begin, std::size_t end);

/// One window of an adaptive run (jobs/resilient.h, its one caller): the
/// `numTraces` traces of run batches firstBatch, firstBatch + 1, ...
/// drawn, packed and simulated in ONE call, written to slots [outBase,
/// outBase + numTraces) of the pre-sized `out`. Window trace i belongs to
/// batch b = firstBatch + i / batchSize at index j = i mod batchSize, and
/// is drawn exactly as acquire() draws trace j of that batch: class from
/// balancedClassSchedule(size_b / 16, batchSeed_b), everything else from
/// Prng(deriveStreamSeed(batchSeed_b, j)), with batchSeed_b =
/// stats::adaptiveBatchSeed(cfg.seed, b) and size_b = cfg.batchSize except
/// for a trailing partial batch. Every lane is bit-identical to its own
/// scalar run, so the window's slots equal the one-batch-per-call traces,
/// however lane groups pack across batches. Failures follow the runner's
/// semantics with window indices (WorkerError::index() = i, the message
/// names "acquire trace i"); with a one-batch window, index and message are
/// exactly acquire()'s for that batch. Progress is reported against
/// numTraces through cfg.progress. Throws std::invalid_argument unless
/// cfg.batchSize and numTraces are multiples of 16 and the window fits in
/// `out`.
void acquireAdaptiveWindow(const MaskedSbox& sbox, EventSim& sim,
                           const PowerModel& power,
                           const AcquisitionConfig& cfg,
                           std::uint64_t firstBatch, std::size_t numTraces,
                           TraceSet& out, std::size_t outBase);

/// Variant for attack studies (CPA): the final value is `plain ^ key` with
/// uniformly random `plain`; the trace label is the *plaintext* nibble.
/// Follows the same determinism contract: trace i depends only on
/// (seed, i), so results are invariant in `numThreads` (0 = auto).
/// Every trace gets the same decode sanity check as acquire(): the
/// netlist must compute S(plain ^ key).
TraceSet acquireKeyed(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, std::uint8_t key,
                      std::uint32_t numTraces, std::uint64_t seed = 1,
                      std::uint32_t numThreads = 0,
                      SimEngine engine = SimEngine::Auto);

}  // namespace lpa
