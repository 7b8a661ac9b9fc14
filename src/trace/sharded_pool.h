#pragma once
// Fail-safe sharded worker pool shared by the acquisition engine, the
// stress profiler and the fault-injection campaign runner.
//
// Work items [0, n) are handed out from one shared atomic cursor in
// ascending index order. A worker claims a run of the unclaimed items — a
// 1 / (2 x threads) share of them, shrinking to single items at the tail
// (guided self-scheduling) — so items of uneven cost (the acquisition's
// stimulus-packed lane groups) balance across workers. The calling thread
// is worker 0; the other workers are threads spawned per call and joined
// before it returns (no thread outlives a call; what outlives it on the
// batch engine is the engines, sim/batch_sim.h). Worker w is the index of
// the caller's per-worker state (an engine slot, a tally). Which worker
// runs which item depends on thread timing; callers keep their results
// invariant in the thread count by writing item i's result to slot i
// (acquisition, fault campaign) or by merging per-worker tallies exactly
// (stress profiling).
//
// Failure semantics ("fail-safe acquisition"):
//   * a failing item stops every item above it: workers check before each
//     item and skip it once a failure at or below its index is recorded,
//     so doomed work stops early instead of running to completion;
//   * items below the lowest recorded failure still run, so the failure
//     reported is exactly the lowest failing item, for any thread count
//     (the cursor is monotone: a run is claimed before any higher one);
//   * the winning failure is rethrown as a WorkerError carrying the item
//     index and a caller-supplied description of the item's identity, with
//     the original exception nested (std::throw_with_nested) for callers
//     that need the root cause.
//
// Observability (obs/): an optional ProgressMeter is stepped once per
// finished item (relaxed atomic; the render callback is rate-limited inside
// the meter) and doubles as a cooperative abort channel — a sink returning
// false makes every worker stop before its next item and the pool throw
// ProgressAborted. An optional span label wraps each worker's run in a
// Chrome-trace span on that worker's own track, so chrome://tracing shows
// one row per worker. Both hooks are pure sinks: the work a finished item
// computed is never altered (zero-perturbation).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/progress.h"
#include "obs/trace_span.h"

namespace lpa {

/// A worker failure annotated with the identity of the failing work item.
/// what() = "<description of item>: <original what()>"; the original
/// exception is nested and recoverable via std::rethrow_if_nested.
class WorkerError : public std::runtime_error {
 public:
  WorkerError(std::size_t index, const std::string& what)
      : std::runtime_error(what), index_(index) {}

  /// Index of the failing work item (for acquisition: the trace index).
  std::size_t index() const { return index_; }

 private:
  std::size_t index_;
};

/// Bounded-exponential-backoff policy for retrying transient worker
/// failures (the resilience layer wraps whole checkpoint groups in it).
/// Attempt k sleeps retryBackoffMs(policy, k) before the next try; the
/// sleep is pure scheduling — the retried work re-derives the same
/// per-item substreams, so a retry is bit-identical to a clean first run.
struct RetryPolicy {
  std::uint32_t maxAttempts = 3;   ///< total tries (1 = no retry)
  std::uint64_t baseBackoffMs = 1; ///< sleep after the first failure
};

/// Ceiling of every retry backoff.
inline constexpr std::uint64_t kMaxRetryBackoffMs = 100;

/// Backoff before the attempt that follows failure number `attempt`
/// (0-based): base * 2^attempt, capped at kMaxRetryBackoffMs.
inline std::uint64_t retryBackoffMs(const RetryPolicy& policy,
                                    std::uint32_t attempt) {
  std::uint64_t ms = policy.baseBackoffMs;
  for (std::uint32_t k = 0; k < attempt && ms < kMaxRetryBackoffMs; ++k) {
    ms *= 2;
  }
  return std::min(ms, kMaxRetryBackoffMs);
}

/// Runs fn(attempt) until it returns, retrying with bounded exponential
/// backoff. On each failure `onFailure(attempt, eptr)` is consulted FIRST
/// (so bookkeeping — retry counters, quarantine decisions — happens even
/// for the final attempt): returning false makes the failure escalate
/// immediately (non-transient); returning true retries until
/// policy.maxAttempts is exhausted, then the last exception propagates.
template <typename Fn, typename OnFailure>
auto retryWithBackoff(const RetryPolicy& policy, const Fn& fn,
                      const OnFailure& onFailure) -> decltype(fn(0u)) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return fn(attempt);
    } catch (...) {
      const bool retryable = onFailure(attempt, std::current_exception());
      if (!retryable || attempt + 1 >= policy.maxAttempts) throw;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(retryBackoffMs(policy, attempt)));
  }
}

/// Resolves a worker-count request against the amount of work:
/// 0 = hardware concurrency, never more threads than items.
inline std::uint32_t resolveWorkerThreads(std::uint32_t requested,
                                          std::size_t work) {
  std::uint32_t t = requested != 0
                        ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
  if (work == 0) work = 1;
  return static_cast<std::uint32_t>(std::min<std::size_t>(t, work));
}

namespace detail {

/// The lowest-index failure among concurrent work: record() keeps the
/// failure with the smallest index (thread-safe), below() tells a worker
/// whether an index could still lower it, and rethrowIfAny() rethrows the
/// winner as a WorkerError (see the header comment).
class LowestFailure {
 public:
  /// Keeps `error` if `index` is lower than every failure recorded so far.
  void record(std::size_t index, std::exception_ptr error) {
    std::lock_guard<std::mutex> lk(mu_);
    if (index < lowest_.load(std::memory_order_relaxed)) {
      error_ = std::move(error);
      lowest_.store(index, std::memory_order_relaxed);
    }
  }

  /// True while no failure at or below `index` has been recorded.
  bool below(std::size_t index) const {
    return index < lowest_.load(std::memory_order_relaxed);
  }

  /// Rethrows the recorded failure as WorkerError(index, describe(index) +
  /// ": " + what()) with the original nested; no-op if none was recorded.
  /// Call after the workers have joined.
  template <typename Describe>
  void rethrowIfAny(const Describe& describe) const {
    if (error_ == nullptr) return;
    const std::size_t index = lowest_.load(std::memory_order_relaxed);
    try {
      std::rethrow_exception(error_);
    } catch (const std::exception& e) {
      std::throw_with_nested(
          WorkerError(index, describe(index) + ": " + e.what()));
    } catch (...) {
      std::throw_with_nested(WorkerError(index, describe(index)));
    }
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t(0);
  std::mutex mu_;
  std::atomic<std::size_t> lowest_{kNone};
  std::exception_ptr error_;
};

/// Runs body(w, i) for every i in [0, n) on `threads` workers that claim
/// runs of items from a shared cursor in ascending index order (see the
/// header comment). `describe(i)` renders the item's identity for error
/// reporting and is only called on failure. `progress`, if given, is
/// stepped per finished item and consulted for cooperative abort (throws
/// obs::ProgressAborted); `spanLabel`, if given, wraps each worker's run in
/// a Chrome-trace span. See the header comment for failure semantics.
template <typename Body, typename Describe>
void shardedFor(std::size_t n, std::uint32_t threads, const Body& body,
                const Describe& describe,
                obs::ProgressMeter* progress = nullptr,
                const char* spanLabel = nullptr) {
  if (n == 0) return;

  LowestFailure failure;
  std::atomic<std::size_t> cursor{0};
  const std::size_t divisor = 2 * std::size_t(std::max(threads, 1u));
  const auto aborted = [&] {
    return progress != nullptr && progress->abortRequested();
  };
  const auto work = [&](std::uint32_t w) {
    if (spanLabel && w > 0) {
      obs::TraceCollector::global().nameThisThreadTrack(
          "worker-" + std::to_string(w));
    }
    obs::Span span(
        spanLabel ? std::string(spanLabel) + " shard w" + std::to_string(w)
                  : std::string(),
        spanLabel ? &obs::TraceCollector::global() : nullptr);
    std::size_t begin = cursor.load(std::memory_order_relaxed);
    for (;;) {
      // Claim [begin, end): a share of the unclaimed items that shrinks to
      // single items at the tail (guided self-scheduling).
      std::size_t end;
      do {
        if (begin >= n) return;
        end = begin + std::max<std::size_t>(1, (n - begin) / divisor);
      } while (!cursor.compare_exchange_weak(begin, end,
                                             std::memory_order_relaxed));
      for (std::size_t i = begin; i < end; ++i) {
        // A failure stops every item above it; lower ones still run, so
        // the lowest failing item is always reached.
        if (!failure.below(i) || aborted()) return;
        try {
          body(w, i);
          if (progress) progress->step();
        } catch (...) {
          failure.record(i, std::current_exception());
          return;
        }
      }
      begin = cursor.load(std::memory_order_relaxed);
    }
  };

  // The calling thread is worker 0; only the others are spawned.
  std::vector<std::thread> pool;
  for (std::uint32_t w = 1; w < threads; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();

  failure.rethrowIfAny(describe);
  if (aborted()) {
    // Denominate in the meter's units, not the pool's item count — a work
    // item may cover several meter units (the batch engine's lane groups),
    // and the payload must match what the aborting sink was shown.
    throw obs::ProgressAborted(spanLabel ? spanLabel : "sharded work",
                               progress->done(), progress->total());
  }
}

/// shardedFor with a private reference simulator per worker: runs
/// body(sim, w, i) with `sim` = `proto` itself for worker 0 and a clone of
/// it for every other worker (EventSim's clone()-for-worker-pools
/// contract: clones share the design and the metrics attachment). Every
/// item must establish its own starting state (settle), so which instance
/// runs it is invisible. The batch engine needs no clones: its workers take
/// engines from the free list (BatchEngineLease, sim/batch_sim.h).
template <typename Sim, typename Body, typename Describe>
void shardedForEachClone(Sim& proto, std::size_t n, std::uint32_t threads,
                         const Body& body, const Describe& describe,
                         obs::ProgressMeter* progress = nullptr,
                         const char* spanLabel = nullptr) {
  std::vector<Sim> clones;
  clones.reserve(threads > 1 ? threads - 1 : 0);
  for (std::uint32_t w = 1; w < threads; ++w) clones.push_back(proto.clone());
  shardedFor(
      n, threads,
      [&](std::uint32_t w, std::size_t i) {
        body(w == 0 ? proto : clones[w - 1], w, i);
      },
      describe, progress, spanLabel);
}

}  // namespace detail

}  // namespace lpa
