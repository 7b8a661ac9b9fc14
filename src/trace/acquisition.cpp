#include "trace/acquisition.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/present.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "sim/compiled_sim.h"
#include "stats/adaptive.h"
#include "trace/sharded_pool.h"

namespace lpa {

namespace {

/// Stream index of the schedule shuffle; far outside any trace index.
constexpr std::uint64_t kScheduleStream = ~0ULL;

/// Resolves the requested engine against the design's eligibility for the
/// flat-table fast paths (compiled and batch share the same design-level
/// eligibility). Auto never throws: an ineligible design falls back to the
/// reference engine, and below one full lane group the batch engine's
/// clustering cannot pay off, so Auto serves small budgets with the
/// compiled scalar path. Forcing Compiled or Batch on an ineligible design
/// throws; a forced Batch below the lane width runs a partial group.
SimEngine resolveEngine(SimEngine requested, const EventSim& sim,
                        const PowerModel& power, std::size_t traceCount) {
  const bool eligible = !sim.netlist().hasFaultOverlay() &&
                        power.numGates() == sim.netlist().numGates() &&
                        sim.netlist().numGates() < (std::size_t(1) << 24);
  switch (requested) {
    case SimEngine::Reference:
      return SimEngine::Reference;
    case SimEngine::Compiled:
      if (!eligible) {
        throw std::invalid_argument(
            "acquisition: compiled engine requested but the design is "
            "ineligible (fault overlay present or power model size "
            "mismatch)");
      }
      return SimEngine::Compiled;
    case SimEngine::Batch:
      if (!eligible) {
        throw std::invalid_argument(
            "acquisition: batch engine requested but the design is "
            "ineligible (fault overlay present or power model size "
            "mismatch)");
      }
      return SimEngine::Batch;
    case SimEngine::Auto:
      break;
  }
  if (!eligible) return SimEngine::Reference;
  return traceCount >= BatchSim::kLanes ? SimEngine::Batch
                                        : SimEngine::Compiled;
}

/// Resolves the quantized-grid opt-in (DESIGN.md §14) against the
/// *requested* engine: SampleGrid is honored only with an explicitly
/// forced Batch engine. Auto deliberately ignores it — Auto-served runs
/// must keep the exact engines' pinned determinism digest — and forcing a
/// scalar engine together with SampleGrid is a contradiction (the scalar
/// engines are exact by contract), reported here rather than as a
/// confusing constructor throw deep inside a worker.
TimeQuantization resolveQuantization(SimEngine requested,
                                     TimeQuantization quantization) {
  if (quantization == TimeQuantization::Exact) return quantization;
  switch (requested) {
    case SimEngine::Batch:
      return quantization;
    case SimEngine::Auto:
      return TimeQuantization::Exact;  // Auto never selects quantized mode
    case SimEngine::Reference:
    case SimEngine::Compiled:
      break;
  }
  throw std::invalid_argument(
      "acquisition: sample-grid time quantization requires the batch "
      "engine (engine = SimEngine::Batch); the scalar engines are exact "
      "by contract");
}

/// Journals the end of an acquisition block: "acquire-finish" on normal
/// exit, "acquire-abort" when unwinding (worker failure, cooperative
/// abort), so the /events tail shows how every acquisition ended.
struct JournalAcquireScope {
  const char* label;
  int exceptions = std::uncaught_exceptions();
  ~JournalAcquireScope() {
    if (std::uncaught_exceptions() > exceptions) {
      obs::EventJournal::global().warn("acquire-abort", {{"label", label}});
    } else {
      obs::EventJournal::global().info("acquire-finish", {{"label", label}});
    }
  }
};

/// Concatenates per-worker shards in worker (= index) order; a single
/// shard is the result itself.
TraceSet mergeShards(std::vector<TraceSet>& shards, std::size_t n,
                     const char* spanLabel) {
  if (shards.size() == 1) return std::move(shards[0]);
  obs::Span mergeSpan(std::string(spanLabel) + " merge shards");
  TraceSet traces(shards[0].numSamples());
  traces.reserve(n);
  for (const TraceSet& shard : shards) traces.append(shard);
  return traces;
}

/// Runs `body(sim, i, shard)` for every trace index in [0, n), sharded over
/// `threads` workers in contiguous index blocks, and concatenates the
/// per-worker shards in index order. `body` must depend only on the trace
/// index (the determinism contract), which is what makes the sharding
/// invisible in the result. `Sim` is EventSim or CompiledSim (same
/// clone()-for-worker-pools contract). Failures carry the trace identity
/// rendered by `describe(i)` and abort the remaining workers (see
/// trace/sharded_pool.h).
template <typename Sim, typename TraceBody, typename Describe>
TraceSet shardedAcquire(Sim& sim, std::uint32_t numSamples,
                        std::size_t n, std::uint32_t threads,
                        const TraceBody& body, const Describe& describe,
                        const obs::ProgressFn& progress,
                        const char* spanLabel) {
  obs::Span span(std::string(spanLabel) + " (" + std::to_string(n) +
                 " traces, " + std::to_string(threads) + " threads)");
  obs::ProgressMeter meter(spanLabel, n, progress);
  obs::MetricsRegistry::global().counter("acquire.traces_total").add(n);
  obs::EventJournal::global().info(
      "acquire-start", {{"label", spanLabel},
                        {"traces", std::to_string(n)},
                        {"threads", std::to_string(threads)}});
  JournalAcquireScope journalScope{spanLabel};

  std::vector<TraceSet> shards(threads, TraceSet(numSamples));
  for (std::uint32_t w = 0; w < threads; ++w) {
    shards[w].reserve(n * (w + 1) / threads - n * w / threads);
  }
  detail::shardedForEachClone(
      sim, n, threads,
      [&](Sim& worker, std::uint32_t w, std::size_t i) {
        body(worker, i, shards[w]);
      },
      describe, &meter, spanLabel);
  meter.finish();
  return mergeShards(shards, n, spanLabel);
}

/// Batch-engine twin of shardedAcquire: the sharded work item is a *lane
/// group* of up to BatchSim::kLanes consecutive trace indices, so trace
/// grouping is a global function of the index — which keeps the result
/// thread-count invariant (worker shards cover contiguous group ranges and
/// are concatenated in group order). `body(worker, g, out)` simulates
/// group g's lanes and appends its traces to `out` in lane order. Progress
/// stays trace-denominated: the body's groups step the meter by their lane
/// count (shardedFor contributes the final step of each group).
template <typename GroupBody, typename Describe>
TraceSet shardedBatchAcquire(BatchSim& proto, std::uint32_t numSamples,
                             std::size_t numTraces,
                             std::uint32_t requestedThreads,
                             const GroupBody& body, const Describe& describe,
                             const obs::ProgressFn& progress,
                             const char* spanLabel) {
  const std::size_t numGroups =
      (numTraces + BatchSim::kLanes - 1) / BatchSim::kLanes;
  const std::uint32_t threads =
      resolveWorkerThreads(requestedThreads, numGroups);
  obs::Span span(std::string(spanLabel) + " (" + std::to_string(numTraces) +
                 " traces, " + std::to_string(threads) +
                 " threads, batch engine)");
  obs::ProgressMeter meter(spanLabel, numTraces, progress);
  obs::MetricsRegistry::global().counter("acquire.traces_total")
      .add(numTraces);
  obs::EventJournal::global().info(
      "acquire-start", {{"label", spanLabel},
                        {"traces", std::to_string(numTraces)},
                        {"threads", std::to_string(threads)},
                        {"engine", "batch"}});
  JournalAcquireScope journalScope{spanLabel};
  const auto lanesOf = [&](std::size_t g) {
    return std::min<std::size_t>(BatchSim::kLanes,
                                 numTraces - g * BatchSim::kLanes);
  };

  std::vector<TraceSet> shards(threads, TraceSet(numSamples));
  for (std::uint32_t w = 0; w < threads; ++w) {
    shards[w].reserve((numGroups * (w + 1) / threads -
                       numGroups * w / threads) *
                      BatchSim::kLanes);
  }
  detail::shardedForEachClone(
      proto, numGroups, threads,
      [&](BatchSim& worker, std::uint32_t w, std::size_t g) {
        body(worker, g, shards[w]);
        meter.step(lanesOf(g) - 1);
      },
      describe, &meter, spanLabel);
  meter.finish();
  return mergeShards(shards, numTraces, spanLabel);
}

}  // namespace

std::vector<std::uint8_t> balancedClassSchedule(std::uint32_t tracesPerClass,
                                                std::uint64_t seed) {
  // Balanced, shuffled schedule of final classes, from a dedicated stream
  // so trace streams never alias it.
  Prng srng(deriveStreamSeed(seed, kScheduleStream));
  std::vector<std::uint8_t> schedule;
  schedule.reserve(16u * tracesPerClass);
  for (std::uint32_t r = 0; r < tracesPerClass; ++r) {
    for (std::uint8_t c = 0; c < 16; ++c) schedule.push_back(c);
  }
  for (std::size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1],
              schedule[srng.below(static_cast<std::uint32_t>(i))]);
  }
  return schedule;
}

namespace {

/// Collects schedule slice [begin, end): the shared engine-dispatch body of
/// acquire() (the full range) and acquireRange() (a checkpoint group).
/// Every per-trace stream is derived from the trace's *global* index, so
/// slicing is invisible in the result bits.
TraceSet acquireSlice(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      const std::vector<std::uint8_t>& schedule,
                      std::size_t begin, std::size_t end) {
  const std::size_t n = end - begin;
  const auto describe = [&](std::size_t j) {
    const std::size_t i = begin + j;
    return "acquire trace " + std::to_string(i) + " (class " +
           std::to_string(static_cast<int>(schedule[i])) + ", style " +
           std::string(sbox.name()) + ")";
  };
  const std::uint32_t threads = resolveWorkerThreads(cfg.numThreads, n);
  const SimEngine engine = resolveEngine(cfg.engine, sim, power, n);
  const TimeQuantization quantization =
      resolveQuantization(cfg.engine, cfg.timeQuantization);

  if (engine == SimEngine::Batch) {
    // Bit-parallel path: lane l of group g is trace begin + 64*g + l, and
    // each lane draws its masks and noise seed from the trace's own stream
    // — the per-trace protocol is the reference body's verbatim, so the
    // TraceSet is bit-identical to the scalar engines' regardless of how
    // traces fall into groups. Under the quantized-grid opt-in (only ever
    // reached with a forced Batch engine) the per-lane stream derivation
    // is unchanged, so the quantized result stays deterministic in seed,
    // thread-count invariant and slice-concatenation safe — just not
    // bit-identical to the exact engines.
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    SimOptions bopts = sim.options();
    bopts.timeQuantization = quantization;
    BatchSim bsim(design, bopts);
    bsim.attachMetrics(sim.metricsRegistry());
    bsim.attachProfiler(cfg.profiler);
    const auto describeGroup = [&](std::size_t g) {
      const std::size_t base = begin + g * BatchSim::kLanes;
      return "acquire traces [" + std::to_string(base) + ", " +
             std::to_string(std::min<std::size_t>(base + BatchSim::kLanes,
                                                  end)) +
             ") (style " + std::string(sbox.name()) + ", batch engine)";
    };
    const auto body = [&](BatchSim& worker, std::size_t g, TraceSet& out) {
      const std::size_t base = begin + g * BatchSim::kLanes;
      const std::size_t lanes =
          std::min<std::size_t>(BatchSim::kLanes, end - base);
      std::vector<std::vector<std::uint8_t>> inits(lanes), fins(lanes);
      std::vector<std::uint64_t> seeds(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        Prng rng(deriveStreamSeed(cfg.seed, base + l));
        inits[l] = sbox.encode(cfg.initialValue, rng);
        fins[l] = sbox.encode(schedule[base + l], rng);
        seeds[l] = rng.next() | 1ULL;
      }
      worker.settle(inits);
      worker.runFused(fins, seeds);
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::uint8_t cls = schedule[base + l];
        const std::uint32_t lane = static_cast<std::uint32_t>(l);
        const std::uint8_t decoded =
            sbox.decode(worker.outputValues(lane), fins[l]);
        if (decoded != kPresentSbox[cls]) {
          throw std::logic_error("acquisition: decode mismatch at trace " +
                                 std::to_string(base + l));
        }
        const double* trace = worker.laneTrace(lane);
        out.add(cls, std::vector<double>(trace, trace + design.numSamples));
      }
    };
    return shardedBatchAcquire(bsim, power.options().numSamples, n,
                               cfg.numThreads, body, describeGroup,
                               cfg.progress, "acquire");
  }

  if (engine == SimEngine::Compiled) {
    // Fast path: fused deposition, no Transition list materialized. The
    // per-trace protocol — stream derivation, encode order, the decode
    // sanity check, the noise-seed draw — is the reference body's verbatim;
    // runFused(fin, s) == power.sample(run(fin), s) bit-for-bit.
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    CompiledSim csim(design, sim.options());
    csim.attachMetrics(sim.metricsRegistry());
    csim.attachProfiler(cfg.profiler);
    const auto body = [&](CompiledSim& worker, std::size_t j, TraceSet& out) {
      const std::size_t i = begin + j;
      const std::uint8_t cls = schedule[i];
      Prng rng(deriveStreamSeed(cfg.seed, i));
      const std::vector<std::uint8_t> init =
          sbox.encode(cfg.initialValue, rng);
      worker.settle(init);
      const std::vector<std::uint8_t> fin = sbox.encode(cls, rng);
      const std::uint64_t noiseSeed = rng.next() | 1ULL;
      const std::vector<double>& trace = worker.runFused(fin, noiseSeed);
      const std::uint8_t decoded = sbox.decode(worker.outputValues(), fin);
      if (decoded != kPresentSbox[cls]) {
        throw std::logic_error("acquisition: decode mismatch");
      }
      out.add(cls, trace);
    };
    return shardedAcquire(csim, power.options().numSamples, n, threads, body,
                          describe, cfg.progress, "acquire");
  }

  // Reference path: workers clone `sim`, so attaching here propagates to
  // every worker. Only attach when requested — a null re-attach would
  // clobber an attachment the caller installed on the prototype.
  if (cfg.profiler != nullptr) sim.attachProfiler(cfg.profiler);
  const auto body = [&](EventSim& worker, std::size_t j, TraceSet& out) {
    const std::size_t i = begin + j;
    const std::uint8_t cls = schedule[i];
    // All randomness of trace i — masks, gadget bits, noise seed — comes
    // from this stream and hence depends only on (cfg.seed, i).
    Prng rng(deriveStreamSeed(cfg.seed, i));
    const std::vector<std::uint8_t> init = sbox.encode(cfg.initialValue, rng);
    worker.settle(init);
    const std::vector<std::uint8_t> fin = sbox.encode(cls, rng);
    const std::vector<Transition> transitions = worker.run(fin);
    // Functional sanity: the netlist must produce the right unmasked value.
    const std::uint8_t decoded = sbox.decode(worker.outputValues(), fin);
    if (decoded != kPresentSbox[cls]) {
      throw std::logic_error("acquisition: decode mismatch");
    }
    out.add(cls, power.sample(transitions, rng.next() | 1ULL));
  };

  return shardedAcquire(sim, power.options().numSamples, n, threads, body,
                        describe, cfg.progress, "acquire");
}

}  // namespace

TraceSet acquire(const MaskedSbox& sbox, EventSim& sim,
                 const PowerModel& power, const AcquisitionConfig& cfg) {
  if (cfg.adaptive) {
    return stats::adaptiveAcquire(sbox, sim, power, cfg).traces;
  }
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  return acquireSlice(sbox, sim, power, cfg, schedule, 0, schedule.size());
}

TraceSet acquireRange(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      std::size_t begin, std::size_t end) {
  if (cfg.adaptive) {
    throw std::invalid_argument(
        "acquireRange: cfg.adaptive must be false (adaptive runs are "
        "sliced by batch, not by schedule index)");
  }
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  if (begin > end || end > schedule.size()) {
    throw std::invalid_argument(
        "acquireRange: invalid slice [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") of " + std::to_string(schedule.size()) +
        " traces");
  }
  if (begin == end) return TraceSet(power.options().numSamples);
  return acquireSlice(sbox, sim, power, cfg, schedule, begin, end);
}

TraceSet acquireKeyed(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, std::uint8_t key,
                      std::uint32_t numTraces, std::uint64_t seed,
                      std::uint32_t numThreads, SimEngine engine,
                      TimeQuantization quantization) {
  const auto describe = [&](std::size_t i) {
    // The plaintext is the first draw of the trace's stream; re-derive it
    // so the error names the stimulus, not just the index.
    const std::uint8_t plain = Prng(deriveStreamSeed(seed, i)).nibble();
    return "keyed trace " + std::to_string(i) + " (plaintext " +
           std::to_string(static_cast<int>(plain)) + ", style " +
           std::string(sbox.name()) + ")";
  };
  const std::uint32_t threads = resolveWorkerThreads(numThreads, numTraces);
  const SimEngine resolved = resolveEngine(engine, sim, power, numTraces);
  const TimeQuantization resolvedQuant =
      resolveQuantization(engine, quantization);

  if (resolved == SimEngine::Batch) {
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    SimOptions bopts = sim.options();
    bopts.timeQuantization = resolvedQuant;
    BatchSim bsim(design, bopts);
    bsim.attachMetrics(sim.metricsRegistry());
    const auto describeGroup = [&](std::size_t g) {
      const std::size_t base = g * BatchSim::kLanes;
      return "keyed traces [" + std::to_string(base) + ", " +
             std::to_string(std::min<std::size_t>(base + BatchSim::kLanes,
                                                  numTraces)) +
             ") (style " + std::string(sbox.name()) + ", batch engine)";
    };
    const auto body = [&](BatchSim& worker, std::size_t g, TraceSet& out) {
      const std::size_t base = g * BatchSim::kLanes;
      const std::size_t lanes =
          std::min<std::size_t>(BatchSim::kLanes, numTraces - base);
      std::vector<std::vector<std::uint8_t>> inits(lanes), fins(lanes);
      std::vector<std::uint64_t> seeds(lanes);
      std::vector<std::uint8_t> plains(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        Prng rng(deriveStreamSeed(seed, base + l));
        plains[l] = rng.nibble();
        inits[l] = sbox.encode(0, rng);
        fins[l] = sbox.encode(static_cast<std::uint8_t>(plains[l] ^ key),
                              rng);
        seeds[l] = rng.next() | 1ULL;
      }
      worker.settle(inits);
      worker.runFused(fins, seeds);
      for (std::size_t l = 0; l < lanes; ++l) {
        const double* trace =
            worker.laneTrace(static_cast<std::uint32_t>(l));
        out.add(plains[l],
                std::vector<double>(trace, trace + design.numSamples));
      }
    };
    return shardedBatchAcquire(bsim, power.options().numSamples, numTraces,
                               numThreads, body, describeGroup,
                               obs::ProgressFn(), "acquire-keyed");
  }

  if (resolved == SimEngine::Compiled) {
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    CompiledSim csim(design, sim.options());
    csim.attachMetrics(sim.metricsRegistry());
    const auto body = [&](CompiledSim& worker, std::size_t i, TraceSet& out) {
      Prng rng(deriveStreamSeed(seed, i));
      const std::uint8_t plain = rng.nibble();
      const std::vector<std::uint8_t> init = sbox.encode(0, rng);
      worker.settle(init);
      const std::vector<std::uint8_t> fin =
          sbox.encode(static_cast<std::uint8_t>(plain ^ key), rng);
      out.add(plain, worker.runFused(fin, rng.next() | 1ULL));
    };
    return shardedAcquire(csim, power.options().numSamples, numTraces,
                          threads, body, describe, obs::ProgressFn(),
                          "acquire-keyed");
  }

  const auto body = [&](EventSim& worker, std::size_t i, TraceSet& out) {
    Prng rng(deriveStreamSeed(seed, i));
    const std::uint8_t plain = rng.nibble();
    const std::vector<std::uint8_t> init = sbox.encode(0, rng);
    worker.settle(init);
    const std::vector<std::uint8_t> fin =
        sbox.encode(static_cast<std::uint8_t>(plain ^ key), rng);
    const std::vector<Transition> transitions = worker.run(fin);
    out.add(plain, power.sample(transitions, rng.next() | 1ULL));
  };

  return shardedAcquire(sim, power.options().numSamples, numTraces,
                        resolveWorkerThreads(numThreads, numTraces), body,
                        describe, obs::ProgressFn(), "acquire-keyed");
}

}  // namespace lpa
