#include "jobs/resilient.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "jobs/checkpoint.h"
#include "jobs/trace_digest.h"
#include "netlist/stats.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "stats/convergence.h"
#include "trace/prng.h"

namespace lpa::jobs {

namespace {

/// FNV-1a over a lineage entry string: the flow-event id linking the
/// checkpoint-write in one process to the resume-adoption in the next.
/// Both sides hash the same "g<k>/<n>:<digest>" text, so the ids match
/// across restarts with no shared state beyond the checkpoint itself.
std::uint64_t flowIdOf(const std::string& lineageEntry) {
  return digestOfBytes(lineageEntry.data(), lineageEntry.size());
}

/// Best-effort message of the exception behind `eptr`, for journal fields.
std::string describeError(std::exception_ptr eptr) {
  try {
    std::rethrow_exception(eptr);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// True when `eptr` is a SimDiverged or wraps one through any depth of
/// nesting (the sharded pool rethrows worker failures as WorkerError with
/// the original nested).
bool causedByDivergence(std::exception_ptr eptr) {
  try {
    std::rethrow_exception(eptr);
  } catch (const SimDiverged&) {
    return true;
  } catch (const std::exception& e) {
    try {
      std::rethrow_if_nested(e);
    } catch (...) {
      return causedByDivergence(std::current_exception());
    }
    return false;
  } catch (...) {
    return false;
  }
}

/// Overwrites traces [base, base + src.size()) of `dst` with `src`.
void place(const TraceSet& src, TraceSet& dst, std::size_t base) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst.set(base + i, src.label(i), src.trace(i));
  }
}

}  // namespace

std::uint64_t acquisitionFingerprint(const MaskedSbox& sbox,
                                     const PowerModel& power,
                                     const AcquisitionConfig& cfg,
                                     const JobConfig& job) {
  DigestAccumulator h;
  h.addU64(netlistDigest(sbox.netlist()));
  h.addU64(static_cast<std::uint64_t>(sbox.style()));
  h.addU64(power.options().numSamples);
  h.addU64(cfg.seed);
  h.addU64(cfg.tracesPerClass);
  h.addU64(cfg.initialValue);
  h.addU64(cfg.adaptive ? 1 : 0);
  if (cfg.adaptive) {
    h.addU64(cfg.batchSize);
    h.addU64(cfg.maxTraces != 0 ? cfg.maxTraces : 16ULL * cfg.tracesPerClass);
    h.add(cfg.targetCiRel);
  } else {
    h.addU64(job.groupTraces);
  }
  h.addU64(static_cast<std::uint64_t>(job.statsOpt.mode));
  h.addU64(job.statsOpt.numFolds);
  h.add(job.statsOpt.confidence);
  h.addU64(job.fingerprintExtra);
  return h.value();
}

ResilientResult resilientAcquire(const MaskedSbox& sbox, EventSim& sim,
                                 const PowerModel& power,
                                 const AcquisitionConfig& cfg,
                                 const JobConfig& job) {
  const std::uint32_t numSamples = power.options().numSamples;
  std::uint64_t totalTraces = 0;
  std::uint64_t groupTraces = 0;
  if (cfg.adaptive) {
    if (cfg.batchSize == 0 || cfg.batchSize % 16 != 0) {
      throw std::invalid_argument(
          "resilientAcquire: batchSize must be a positive multiple of 16");
    }
    totalTraces =
        cfg.maxTraces != 0 ? cfg.maxTraces : 16ULL * cfg.tracesPerClass;
    if (totalTraces == 0 || totalTraces % 16 != 0) {
      throw std::invalid_argument(
          "resilientAcquire: maxTraces must be a positive multiple of 16");
    }
    if (!(cfg.targetCiRel > 0.0)) {
      throw std::invalid_argument(
          "resilientAcquire: targetCiRel must be > 0");
    }
    groupTraces = cfg.batchSize;
  } else {
    if (job.groupTraces == 0) {
      throw std::invalid_argument(
          "resilientAcquire: groupTraces must be positive");
    }
    totalTraces = 16ULL * cfg.tracesPerClass;
    groupTraces = job.groupTraces;
  }
  const std::uint64_t groupsTotal =
      totalTraces == 0 ? 0 : (totalTraces + groupTraces - 1) / groupTraces;
  /// First trace of group g; groupStart(groupsTotal) is the budget.
  const auto groupStart = [&](std::uint64_t g) {
    return std::min(g * groupTraces, totalTraces);
  };
  const char* label = cfg.adaptive ? "adaptive-acquire" : "resilient-acquire";

  const std::uint64_t fingerprint =
      acquisitionFingerprint(sbox, power, cfg, job);
  auto& reg = obs::MetricsRegistry::global();
  obs::Span span("jobs.resilient-acquire (" + std::string(sbox.name()) +
                 ", " + std::to_string(groupsTotal) + " groups)");

  ResilientResult res;
  res.traces = TraceSet(numSamples);
  stats::StreamingLeakage stream(numSamples, job.statsOpt);
  ResilienceInfo& info = res.resilience;
  info.groupsTotal = groupsTotal;
  info.groupTraces = static_cast<std::uint32_t>(groupTraces);
  info.stopReason.clear();
  std::vector<std::uint64_t> groupDigests;

  // ---- Resume: load, verify, and adopt a matching checkpoint. A stale,
  // torn, or foreign checkpoint is ignored (fresh start), never trusted.
  // The adopted traces are re-folded in index order: the floating-point
  // operations the uninterrupted run performed, so the estimate, its fold
  // membership and the adaptive stop decision are bit-identical.
  std::uint64_t g0 = 0;
  if (!job.checkpointPath.empty()) {
    std::string whyNot;
    if (auto cp = loadCheckpoint(job.checkpointPath, &whyNot)) {
      bool ok = cp->fingerprint == fingerprint && cp->seed == cfg.seed &&
                cp->numSamples == numSamples &&
                cp->groupTraces == groupTraces &&
                cp->groupsTotal == groupsTotal &&
                cp->completedGroups <= groupsTotal &&
                cp->traces.size() == groupStart(cp->completedGroups);
      for (std::uint64_t k = 0; ok && k < cp->completedGroups; ++k) {
        if (digestOfRange(cp->traces, groupStart(k), groupStart(k + 1)) !=
            cp->groupDigests[k]) {
          ok = false;
        }
      }
      if (ok) {
        res.traces = std::move(cp->traces);
        stream.addTraceSet(res.traces);
        groupDigests = std::move(cp->groupDigests);
        info.lineage = std::move(cp->lineage);
        g0 = cp->completedGroups;
        info.resumed = g0 > 0;
        if (info.resumed) {
          reg.counter("jobs.resumes").add(1);
          obs::EventJournal::global().info(
              "checkpoint-resume",
              {{"groups", std::to_string(g0)},
               {"of", std::to_string(groupsTotal)},
               {"lineage",
                info.lineage.empty() ? std::string() : info.lineage.back()}});
          // Flow finish: the matching start was emitted by the process
          // that wrote this checkpoint (same lineage-entry hash), so the
          // exported traces of both processes draw one resume arrow.
          if (!info.lineage.empty()) {
            obs::TraceCollector& tc = obs::TraceCollector::global();
            tc.recordFlow("checkpoint-resume", tc.nowUs(),
                          flowIdOf(info.lineage.back()), /*start=*/false);
          }
        }
      }
    }
  }

  // ---- Clock and deadline (override makes tests deterministic: the
  // virtual clock advances only at group boundaries).
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t committedThisRun = 0;
  const auto elapsedMs = [&]() -> double {
    if (job.elapsedMsOverride) return job.elapsedMsOverride(committedThisRun);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto outOfTime = [&] {
    return cfg.deadlineMs > 0 &&
           elapsedMs() >= static_cast<double>(cfg.deadlineMs);
  };
  std::atomic<bool> deadlineTripped{false};

  SimEngine engine = cfg.engine;
  std::uint32_t divergences = 0;
  const std::uint32_t spotEvery = job.spotCheckEveryGroups;
  const std::uint64_t spotOffset =
      spotEvery > 0
          ? Prng(deriveStreamSeed(cfg.seed, kSpotCheckStream)).below(spotEvery)
          : 0;

  const auto quarantine = [&](std::uint64_t g, const char* reason) {
    if (engine == SimEngine::Reference) return;
    engine = SimEngine::Reference;
    info.quarantined = true;
    info.events.push_back({g, reason});
    reg.counter("jobs.quarantines").add(1);
    obs::EventJournal::global().error(
        "engine-quarantine",
        {{"group", std::to_string(g)}, {"reason", reason}});
  };

  /// Groups [first, last) under one engine in ONE call, into slots
  /// [outBase, ...) of `out`: the bits the uninterrupted run collects
  /// there. Progress is re-reported against the whole budget, kept
  /// monotone across redone and discarded work by a high-water mark.
  std::uint64_t reported = 0;
  const auto simulate = [&](std::uint64_t first, std::uint64_t last,
                            SimEngine eng, TraceSet& out,
                            std::size_t outBase) {
    AcquisitionConfig wcfg = cfg;
    wcfg.adaptive = false;
    wcfg.engine = eng;
    wcfg.progress = {};
    const std::uint64_t begin = groupStart(first);
    const std::uint64_t end = groupStart(last);
    if (cfg.progress || cfg.deadlineMs > 0) {
      wcfg.progress = [&, begin](const obs::ProgressUpdate& u) {
        if (outOfTime()) {
          deadlineTripped.store(true, std::memory_order_relaxed);
          return false;
        }
        if (!cfg.progress) return true;
        reported = std::max(reported, begin + u.done);
        obs::ProgressUpdate o;
        o.label = label;
        o.done = reported;
        o.total = totalTraces;
        o.elapsedSec = elapsedMs() / 1e3;
        o.ratePerSec = o.elapsedSec > 0.0
                           ? static_cast<double>(o.done) / o.elapsedSec
                           : 0.0;
        o.etaSec = o.done > 0 ? o.elapsedSec / static_cast<double>(o.done) *
                                    static_cast<double>(o.total - o.done)
                              : -1.0;
        return cfg.progress(o);
      };
    }
    if (cfg.adaptive) {
      acquireAdaptiveWindow(sbox, sim, power, wcfg, first, end - begin, out,
                            outBase);
      return;
    }
    place(acquireRange(sbox, sim, power, wcfg, begin, end), out, outBase);
  };

  std::uint64_t lastCheckpointed = g0;
  const auto writeCheckpoint = [&] {
    if (job.checkpointPath.empty()) return;
    Checkpoint cp;
    cp.fingerprint = fingerprint;
    cp.seed = cfg.seed;
    cp.numSamples = numSamples;
    cp.groupTraces = static_cast<std::uint32_t>(groupTraces);
    cp.groupsTotal = groupsTotal;
    cp.completedGroups = info.groupsCompleted;
    cp.groupDigests = groupDigests;
    DigestAccumulator prefix;
    prefix.addTraceSet(res.traces);
    info.lineage.push_back("g" + std::to_string(info.groupsCompleted) + "/" +
                           std::to_string(groupsTotal) + ":" + prefix.hex());
    // Flow start: a future process resuming from this checkpoint emits the
    // matching finish (it re-hashes this very lineage entry).
    {
      obs::TraceCollector& tc = obs::TraceCollector::global();
      tc.recordFlow("checkpoint-resume", tc.nowUs(),
                    flowIdOf(info.lineage.back()), /*start=*/true);
    }
    cp.lineage = info.lineage;
    cp.traces = res.traces;
    saveCheckpoint(job.checkpointPath, cp);
    lastCheckpointed = info.groupsCompleted;
    reg.counter("jobs.checkpoints_written").add(1);
    obs::EventJournal::global().info(
        "checkpoint-commit", {{"groups", std::to_string(info.groupsCompleted)},
                              {"of", std::to_string(groupsTotal)},
                              {"lineage", info.lineage.back()}});
  };
  const std::uint32_t checkpointEvery =
      job.checkpointPath.empty() ? 0 : std::max(job.checkpointEveryGroups, 1u);

  info.groupsCompleted = g0;
  stats::ConvergenceMonitor monitor({cfg.targetCiRel, /*minTraces=*/0});
  bool stopped = false;
  if (cfg.adaptive && g0 > 0) {
    // Re-derive the stop decision the uninterrupted run took after the
    // last committed batch — a resumed converged run adds no group.
    res.estimate = stream.estimate();
    monitor.observe(res.estimate);
    if (monitor.converged()) {
      info.stopReason = "ci-target";
      stopped = true;
    }
  }

  // Window rule (see the header): at least two 64-lane groups per worker,
  // and at least as many groups as are already committed.
  const std::uint64_t threads =
      resolveWorkerThreads(cfg.numThreads, ~std::size_t(0));
  const std::uint64_t floorGroups =
      (2 * threads * BatchSim::kLanes + groupTraces - 1) / groupTraces;
  std::uint64_t sequentialTo = 0;  // groups below this run one per call

  const auto truncate = [&](const char* reason) {
    info.truncated = true;
    info.stopReason = reason;
    obs::EventJournal::global().warn(
        "run-truncated",
        {{"reason", reason}, {"groups", std::to_string(info.groupsCompleted)}});
  };

  std::uint64_t g = g0;
  while (!stopped && g < groupsTotal) {
    if (job.stopAfterGroups > 0 && committedThisRun >= job.stopAfterGroups) {
      truncate("drain");
      break;
    }
    if (outOfTime()) {
      truncate("deadline");
      break;
    }

    // The window never runs past the next checkpoint write or drain point.
    std::uint64_t window =
        g < sequentialTo ? 1
                         : std::min(groupsTotal - g, std::max(g, floorGroups));
    if (checkpointEvery > 0) {
      window = std::min<std::uint64_t>(
          window, checkpointEvery - committedThisRun % checkpointEvery);
    }
    if (job.stopAfterGroups > 0) {
      window = std::min(window, job.stopAfterGroups - committedThisRun);
    }
    const std::uint64_t windowEnd = g + window;
    const std::uint64_t committed = groupStart(g);

    deadlineTripped.store(false, std::memory_order_relaxed);
    SimEngine ranWith = engine;
    const auto attempt = [&](std::uint32_t a) {
      ranWith = engine;
      if (job.beforeGroupHook) {
        for (std::uint64_t k = g; k < windowEnd; ++k) {
          job.beforeGroupHook(k, a, engine);
        }
      }
      res.traces.resize(groupStart(windowEnd));
      simulate(g, windowEnd, engine, res.traces, committed);
      return 0;
    };
    try {
      retryWithBackoff(
          job.retry, attempt, [&](std::uint32_t a, std::exception_ptr eptr) {
            // A failed multi-group window is redone one group per call,
            // and aborts — user or deadline — are not failures: neither is
            // retried.
            if (window > 1) return false;
            try {
              std::rethrow_exception(eptr);
            } catch (const obs::ProgressAborted&) {
              return false;
            } catch (...) {
            }
            const bool diverged = causedByDivergence(eptr);
            if (diverged && ++divergences >= job.quarantineAfterDivergences) {
              quarantine(g, "sim-diverged");
            }
            if (a + 1 >= job.retry.maxAttempts ||
                info.retries >= cfg.trapBudget) {
              return false;
            }
            ++info.retries;
            reg.counter("jobs.retries").add(1);
            obs::EventJournal::global().warn(
                "group-retry", {{"group", std::to_string(g)},
                                {"retries", std::to_string(info.retries)},
                                {"diverged", diverged ? "true" : "false"},
                                {"error", describeError(eptr)}});
            return true;
          });
    } catch (const obs::ProgressAborted& e) {
      res.traces.resize(committed);
      if (deadlineTripped.load(std::memory_order_relaxed)) {
        truncate("deadline");
        break;
      }
      // A user abort propagates, denominated in the overall run.
      throw obs::ProgressAborted(label, committed + e.done(), totalTraces);
    } catch (const std::exception& e) {
      if (window > 1) {
        // The failure may lie past a stop point, and its report must be
        // the one-group call's.
        res.traces.resize(committed);
        sequentialTo = windowEnd;
        continue;
      }
      std::throw_with_nested(WorkerError(
          static_cast<std::size_t>(g),
          "resilient group " + std::to_string(g) + "/" +
              std::to_string(groupsTotal) + " (style " +
              std::string(sbox.name()) + "): " + e.what()));
    }

    // Commit the window group by group, in order.
    while (g < windowEnd) {
      const std::uint64_t begin = groupStart(g);
      const std::uint64_t end = groupStart(g + 1);
      if (job.perturbHook) {
        TraceSet group(numSamples, 16, end - begin);
        for (std::uint64_t i = begin; i < end; ++i) {
          group.set(i - begin, res.traces.label(i), res.traces.trace(i));
        }
        job.perturbHook(group, g, ranWith);
        place(group, res.traces, begin);
      }
      // Online spot-check: re-run a deterministic sample of fast-engine
      // groups under Reference; a digest mismatch quarantines the fast
      // engine and commits the reference bits.
      if (spotEvery > 0 && ranWith != SimEngine::Reference &&
          g % spotEvery == spotOffset) {
        ++info.spotChecks;
        reg.counter("jobs.spot_checks").add(1);
        TraceSet ref(numSamples, 16, end - begin);
        simulate(g, g + 1, SimEngine::Reference, ref, 0);
        if (digestOfTraceSet(ref) != digestOfRange(res.traces, begin, end)) {
          quarantine(g, "spot-check-mismatch");
          place(ref, res.traces, begin);
        } else {
          obs::EventJournal::global().info(
              "spot-check", {{"group", std::to_string(g)}, {"result", "ok"}});
        }
      }

      for (std::uint64_t i = begin; i < end; ++i) {
        stream.addTrace(res.traces.label(i), res.traces.trace(i));
      }
      if (checkpointEvery > 0) {
        groupDigests.push_back(digestOfRange(res.traces, begin, end));
      }
      info.groupsCompleted = ++g;
      ++committedThisRun;
      reg.counter("jobs.groups_committed").add(1);

      if (cfg.adaptive) {
        res.estimate = stream.estimate();
        monitor.observe(res.estimate);
        if (monitor.converged()) {
          info.stopReason = "ci-target";
          stopped = true;
        }
      }
      if (checkpointEvery > 0 && committedThisRun % checkpointEvery == 0) {
        writeCheckpoint();
      }
      // A stop, a quarantine or the deadline discards the rest.
      if (stopped || engine != ranWith || outOfTime()) break;
    }
    if (g < windowEnd) {
      reg.counter("adaptive.traces_discarded")
          .add(groupStart(windowEnd) - groupStart(g));
      res.traces.resize(groupStart(g));
    }
  }

  if (info.stopReason.empty()) {
    info.stopReason = cfg.adaptive ? "max-traces" : "completed";
  }
  obs::EventJournal::global().info(
      "resilient-stop", {{"reason", info.stopReason},
                         {"groups", std::to_string(info.groupsCompleted)},
                         {"of", std::to_string(groupsTotal)}});
  if (info.groupsCompleted != lastCheckpointed) writeCheckpoint();
  if (stream.traces() > 0 && !cfg.adaptive) res.estimate = stream.estimate();
  res.history = monitor.history();
  reg.gauge("jobs.groups_completed")
      .set(static_cast<double>(info.groupsCompleted));
  return res;
}

obs::Json resilienceJson(const ResilienceInfo& info) {
  obs::Json j = obs::Json::object();
  j["truncated"] = obs::Json(info.truncated);
  j["resumed"] = obs::Json(info.resumed);
  j["quarantined"] = obs::Json(info.quarantined);
  j["groups_total"] = obs::Json(info.groupsTotal);
  j["groups_completed"] = obs::Json(info.groupsCompleted);
  j["group_traces"] = obs::Json(static_cast<std::uint64_t>(info.groupTraces));
  j["retries"] = obs::Json(info.retries);
  j["spot_checks"] = obs::Json(info.spotChecks);
  j["stop_reason"] = obs::Json(info.stopReason);
  obs::Json events = obs::Json::array();
  for (const QuarantineEvent& ev : info.events) {
    obs::Json e = obs::Json::object();
    e["group"] = obs::Json(ev.group);
    e["reason"] = obs::Json(ev.reason);
    events.push_back(std::move(e));
  }
  j["quarantine_events"] = std::move(events);
  obs::Json lineage = obs::Json::array();
  for (const std::string& s : info.lineage) lineage.push_back(obs::Json(s));
  j["checkpoint_lineage"] = std::move(lineage);
  return j;
}

void fillResilience(obs::RunReport& report, const ResilienceInfo& info) {
  report.setResilience(resilienceJson(info));
}

}  // namespace lpa::jobs
