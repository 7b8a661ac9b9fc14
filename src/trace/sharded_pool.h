#pragma once
// Fail-safe sharded worker pool shared by the acquisition engine and the
// fault-injection campaign runner.
//
// Work items [0, n) are split into contiguous index blocks, one per worker
// thread (the PR 1 sharding scheme: results concatenated in index order are
// invariant in the thread count as long as item i depends only on i).
//
// Failure semantics ("fail-safe acquisition"):
//   * the first item that throws sets an atomic abort flag; every worker
//     checks it before starting its next item, so doomed shards stop early
//     instead of running to completion;
//   * among all failures that occurred before the abort propagated, the one
//     with the LOWEST item index wins (not first-by-worker-order, which
//     would depend on thread timing);
//   * the winning failure is rethrown as a WorkerError carrying the item
//     index and a caller-supplied description of the item's identity, with
//     the original exception nested (std::throw_with_nested) for callers
//     that need the root cause.
//
// Observability (obs/): an optional ProgressMeter is stepped once per
// finished item (relaxed atomic; the render callback is rate-limited inside
// the meter) and doubles as a cooperative abort channel — a sink returning
// false makes every worker stop before its next item and the pool throw
// ProgressAborted. An optional span label wraps each worker's shard in a
// Chrome-trace span on that worker's own track, so chrome://tracing shows
// one row per worker with its shard extent. Both hooks are pure sinks: the
// work a finished item computed is never altered (zero-perturbation).

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
  std::uint64_t maxBackoffMs = 100;
};

/// Backoff before the attempt that follows failure number `attempt`
/// (0-based): base * 2^attempt, capped at maxBackoffMs.
inline std::uint64_t retryBackoffMs(const RetryPolicy& policy,
                                    std::uint32_t attempt) {
  std::uint64_t ms = policy.baseBackoffMs;
  for (std::uint32_t k = 0; k < attempt && ms < policy.maxBackoffMs; ++k) {
    ms *= 2;
  }
  return std::min(ms, policy.maxBackoffMs);
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

/// Runs body(w, i) for every i in [0, n), sharded over `threads` workers in
/// contiguous blocks (worker w covers [n*w/threads, n*(w+1)/threads)).
/// `describe(i)` renders the item's identity for error reporting and is
/// only called on failure. `progress`, if given, is stepped per finished
/// item and consulted for cooperative abort (throws obs::ProgressAborted);
/// `spanLabel`, if given, wraps each worker's shard in a Chrome-trace span.
/// See the header comment for failure semantics.
template <typename Body, typename Describe>
void shardedFor(std::size_t n, std::uint32_t threads, const Body& body,
                const Describe& describe,
                obs::ProgressMeter* progress = nullptr,
                const char* spanLabel = nullptr) {
  if (n == 0) return;

  std::exception_ptr failError;
  std::size_t failIndex = 0;
  bool failed = false;
  const auto aborted = [&] {
    return progress != nullptr && progress->abortRequested();
  };
  const auto shardSpanName = [&](std::uint32_t w, std::size_t begin,
                                 std::size_t end) {
    return std::string(spanLabel) + " shard w" + std::to_string(w) + " [" +
           std::to_string(begin) + ", " + std::to_string(end) + ")";
  };

  if (threads <= 1) {
    obs::Span span(spanLabel ? shardSpanName(0, 0, n) : std::string(),
                   spanLabel ? &obs::TraceCollector::global() : nullptr);
    for (std::size_t i = 0; i < n && !failed && !aborted(); ++i) {
      try {
        body(0u, i);
        if (progress) progress->step();
      } catch (...) {
        failError = std::current_exception();
        failIndex = i;
        failed = true;
      }
    }
  } else {
    std::atomic<bool> abort{false};
    std::mutex mu;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        const std::size_t begin = n * w / threads;
        const std::size_t end = n * (w + 1) / threads;
        if (spanLabel) {
          obs::TraceCollector::global().nameThisThreadTrack(
              "worker-" + std::to_string(w));
        }
        obs::Span span(spanLabel ? shardSpanName(w, begin, end)
                                 : std::string(),
                       spanLabel ? &obs::TraceCollector::global() : nullptr);
        for (std::size_t i = begin; i < end; ++i) {
          if (abort.load(std::memory_order_relaxed) || aborted()) return;
          try {
            body(w, i);
            if (progress) progress->step();
          } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            if (!failed || i < failIndex) {
              failError = std::current_exception();
              failIndex = i;
              failed = true;
            }
            abort.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  if (failed) {
    try {
      std::rethrow_exception(failError);
    } catch (const std::exception& e) {
      std::throw_with_nested(
          WorkerError(failIndex, describe(failIndex) + ": " + e.what()));
    } catch (...) {
      std::throw_with_nested(WorkerError(failIndex, describe(failIndex)));
    }
  }
  if (aborted()) {
    // Denominate in the meter's units, not the pool's item count — a work
    // item may cover several meter units (the batch engine's lane groups),
    // and the payload must match what the aborting sink was shown.
    throw obs::ProgressAborted(spanLabel ? spanLabel : "sharded work",
                               progress->done(), progress->total());
  }
}

/// shardedFor with a private simulator per worker: runs body(sim, w, i)
/// with `sim` = `proto` itself for worker 0 and a clone of it for every
/// other worker (the engines' clone()-for-worker-pools contract: clones
/// share the design and the metrics attachment). Every item must establish
/// its own starting state (settle), so which instance runs it is invisible.
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
