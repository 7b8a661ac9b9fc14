#pragma once
// Durable acquisition: checkpoint/resume, deadlines, retry, quarantine
// (DESIGN.md §12). `resilientAcquire` is the one acquisition loop for fixed
// and convergence-gated runs — stats::adaptiveAcquire is an adapter over
// it — and commits the run group by group, checkpointing the committed
// prefix crash-safely (jobs/checkpoint.h), so a campaign survives SIGKILL,
// preemption and transient worker failures without losing committed work.
//
// ## Resume invariant
//
// Group g is the schedule slice [g*groupTraces, ...) of a fixed run, or
// batch g (under stats::adaptiveBatchSeed(seed, g)) of an adaptive one: a
// pure function of (seed, g), never of wall clock, engine, thread count,
// window or earlier groups. A resume re-folds the checkpoint's committed
// traces in index order into a fresh estimator, the same fold the
// uninterrupted run made. So a resumed run's traces, estimate and digest
// are bit-identical to the uninterrupted run's, and the checkpoint
// fingerprint EXCLUDES engine and thread count but INCLUDES everything
// that determines result bits (netlist, seed, protocol and estimator knobs).
//
// ## Windows
//
// W consecutive groups are simulated in one call (acquireRange, or
// acquireAdaptiveWindow for batches), T being the resolved worker count:
//
//   W = min(groups left, max(groups committed, ceil(2 * T * 64 / groupTraces)))
//
// — two 64-lane groups per worker, doubling as the run grows. A window
// never runs past the next checkpoint write or stopAfterGroups drain point,
// and is committed group by group: perturb hook, spot-check, fold, stop
// rule, checkpoint cadence, deadline check. A stop, deadline or quarantine
// discards the rest of the window (`adaptive.traces_discarded`: fewer than
// max(kept traces, 2 * T * 64)). Lanes are bit-identical to scalar runs,
// so results do not depend on W.
//
// ## Failure handling
//
// A failed window of W > 1 groups is redone one group per call, so a
// failure is reported as the one-group call reports it, never past a stop
// point; that attempt counts as neither a retry nor a divergence. Group
// failures retry with bounded backoff (RetryPolicy, trace/sharded_pool.h),
// invisibly in the result bits; the last attempt, or cfg.trapBudget
// retries, escalates as a WorkerError naming the group, failure nested. A
// deadline (cfg.deadlineMs) cancels cooperatively and returns the
// committed prefix with `truncated` set; a user abort is rethrown as
// obs::ProgressAborted against the budget. Progress (monotone, capped by
// the budget) and aborts are labelled "adaptive-acquire" or
// "resilient-acquire". Engine quarantine: a deterministic sample of
// fast-engine groups is re-run under Reference and digest-compared; a
// mismatch or repeated SimDiverged demotes the run to Reference and
// records a QuarantineEvent. All of it lands in the run report's
// `resilience` block via fillResilience().

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/run_report.h"
#include "power/power_model.h"
#include "sboxes/masked_sbox.h"
#include "sim/event_sim.h"
#include "stats/convergence.h"
#include "stats/streaming_leakage.h"
#include "trace/acquisition.h"
#include "trace/sharded_pool.h"
#include "trace/trace_set.h"

namespace lpa::jobs {

/// Stream index of the spot-check sampling domain; the substream family:
/// ~0 = schedule shuffle, ~1 = fault campaign, ~2 = adaptive batches,
/// ~3 = quarantine spot-check.
inline constexpr std::uint64_t kSpotCheckStream = ~3ULL;

/// One engine-quarantine decision: which group triggered it and why
/// ("spot-check-mismatch" or "sim-diverged").
struct QuarantineEvent {
  std::uint64_t group = 0;
  std::string reason;
};

/// The fate of one resilient run, rendered into the run report's
/// `resilience` block by fillResilience().
struct ResilienceInfo {
  bool resumed = false;      ///< started from a loaded checkpoint
  bool truncated = false;    ///< stopped early (deadline or drain)
  bool quarantined = false;  ///< fast engine demoted to Reference
  std::uint64_t groupsTotal = 0;
  std::uint64_t groupsCompleted = 0;
  std::uint32_t groupTraces = 0;
  std::uint64_t retries = 0;     ///< retried group attempts (all causes)
  std::uint64_t spotChecks = 0;  ///< reference re-runs performed
  std::vector<QuarantineEvent> events;
  /// "g<k>/<n>:<prefix digest>" per checkpoint written, across resumes.
  std::vector<std::string> lineage;
  /// "completed" | "ci-target" | "max-traces" | "deadline" | "drain".
  std::string stopReason = "completed";
};

struct JobConfig {
  /// Checkpoint file ("" = run without durability; deadline/retry/
  /// quarantine still apply).
  std::string checkpointPath;
  /// Traces per commit group for fixed-schedule runs (adaptive runs group
  /// by batch: groupTraces := cfg.batchSize). Any positive count works —
  /// slices need no class balance of their own.
  std::uint32_t groupTraces = 256;
  /// Checkpoint cadence: write after every k-th committed group (a final
  /// checkpoint is always written when the run stops with new work).
  std::uint32_t checkpointEveryGroups = 1;
  RetryPolicy retry;
  /// Spot-check cadence: re-run ~1/k of committed fast-engine groups
  /// under Reference and digest-compare (0 = off). Which residue of k is
  /// sampled derives from Prng(deriveStreamSeed(seed, kSpotCheckStream)).
  std::uint32_t spotCheckEveryGroups = 0;
  /// Quarantine the fast engine after this many SimDiverged failures.
  std::uint32_t quarantineAfterDivergences = 2;
  /// Graceful drain for tests/operators: stop (truncated, "drain") after
  /// committing this many groups IN THIS SESSION (0 = no limit).
  std::uint64_t stopAfterGroups = 0;
  /// Estimator options; part of the checkpoint fingerprint.
  stats::StreamingLeakage::Options statsOpt;
  /// Extra bits folded into the fingerprint (e.g. device age) so runs
  /// that differ outside AcquisitionConfig cannot cross-resume.
  std::uint64_t fingerprintExtra = 0;

  // ## Test hooks (all default-empty; pure observers unless they throw)

  /// Called before every group attempt — for a multi-group window, once
  /// per group of the window before it is simulated. Kill harnesses
  /// SIGKILL here, fault-injection tests throw from here.
  std::function<void(std::uint64_t group, std::uint32_t attempt,
                     SimEngine engine)>
      beforeGroupHook;
  /// May corrupt a freshly acquired group (before the spot-check sees
  /// it) to exercise quarantine; `engine` is the engine that ran it. The
  /// group must keep its size.
  std::function<void(TraceSet& group, std::uint64_t groupIndex,
                     SimEngine engine)>
      perturbHook;
  /// Deterministic clock for deadline tests: elapsed ms as a function of
  /// groups committed this session (empty = steady_clock wall time).
  std::function<double(std::uint64_t groupsCommittedThisRun)>
      elapsedMsOverride;
};

struct ResilientResult {
  TraceSet traces{0};
  stats::LeakageEstimate estimate;
  ResilienceInfo resilience;
  /// Adaptive runs: one point per group folded in this session, after
  /// the point of the restored estimate if the run resumed.
  std::vector<stats::ConvergencePoint> history;
};

/// Fingerprint binding a checkpoint to one logical run: netlist digest +
/// style + protocol/estimator knobs + job.fingerprintExtra. Engine,
/// thread count, deadline, cadence and retry knobs are excluded by
/// design (see the resume invariant above).
std::uint64_t acquisitionFingerprint(const MaskedSbox& sbox,
                                     const PowerModel& power,
                                     const AcquisitionConfig& cfg,
                                     const JobConfig& job);

/// Runs the durable acquisition described above. Honors cfg.adaptive
/// (convergence-gated groups), cfg.deadlineMs and cfg.trapBudget; `sim`
/// supplies the workers' engines exactly as in acquire(). Throws
/// WorkerError on retry-budget exhaustion and obs::ProgressAborted on a
/// user abort; a deadline or drain stop returns normally with
/// resilience.truncated set.
ResilientResult resilientAcquire(const MaskedSbox& sbox, EventSim& sim,
                                 const PowerModel& power,
                                 const AcquisitionConfig& cfg,
                                 const JobConfig& job = {});

/// The `resilience` block of the run report for one run.
obs::Json resilienceJson(const ResilienceInfo& info);

/// resilienceJson + RunReport::setResilience in one call.
void fillResilience(obs::RunReport& report, const ResilienceInfo& info);

}  // namespace lpa::jobs
