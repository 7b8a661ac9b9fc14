#include "trace/acquisition.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/present.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "stats/adaptive.h"
#include "trace/sharded_pool.h"

namespace lpa {

namespace {

/// Stream index of the schedule shuffle; far outside any trace index.
constexpr std::uint64_t kScheduleStream = ~0ULL;

/// Resolves the requested engine against the design's eligibility for the
/// batch engine (no fault overlay, a power model built for the netlist,
/// packed-event net capacity). Auto never throws: every eligible design is
/// served by batch — a budget below the lane width runs one partial group
/// — and an ineligible one falls back to the reference engine. Forcing
/// Batch on an ineligible design throws.
SimEngine resolveEngine(SimEngine requested, const EventSim& sim,
                        const PowerModel& power) {
  if (requested == SimEngine::Reference) return SimEngine::Reference;
  const bool eligible = !sim.netlist().hasFaultOverlay() &&
                        power.numGates() == sim.netlist().numGates() &&
                        sim.netlist().numGates() < (std::size_t(1) << 24);
  if (eligible) return SimEngine::Batch;
  if (requested == SimEngine::Batch) {
    throw std::invalid_argument(
        "acquisition: batch engine requested but the design is ineligible "
        "(it needs no fault overlay, a power model sized to the netlist, "
        "and fewer than 2^24 gates)");
  }
  return SimEngine::Reference;
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

/// The stimuli of a set of traces, lane-indexed in the layout BatchSim
/// takes them (the reference engine reads lane 0). `traces[l]` is lane l's
/// schedule index.
struct Stimuli {
  std::vector<std::size_t> traces;
  std::vector<std::uint8_t> labels;  ///< class (balanced) or plaintext
  std::vector<std::vector<std::uint8_t>> inits, fins;
  std::vector<std::uint64_t> noiseSeeds;
  std::vector<std::uint8_t> expected;  ///< S-box outputs the decode check
                                       ///< demands

  void reserve(std::size_t k) {
    traces.reserve(k);
    labels.reserve(k);
    inits.reserve(k);
    fins.reserve(k);
    noiseSeeds.reserve(k);
    expected.reserve(k);
  }

  /// Moves entry `k` of `from` to the end of this set.
  void take(Stimuli& from, std::size_t k) {
    traces.push_back(from.traces[k]);
    labels.push_back(from.labels[k]);
    inits.push_back(std::move(from.inits[k]));
    fins.push_back(std::move(from.fins[k]));
    noiseSeeds.push_back(from.noiseSeeds[k]);
    expected.push_back(from.expected[k]);
  }
};

/// One acquisition: traces [begin, end) of a schedule whose trace i
/// draw(i, out) appends to `out` — everything the trace consumes, drawn
/// from Prng(deriveStreamSeed(seed, i)) in the protocol's order: initial
/// encoding, final encoding, noise seed. Engine and threads are still the
/// caller's request; run() resolves them.
struct Plan {
  const char* spanLabel;  ///< "acquire" / "acquire-keyed"
  const char* labelName;  ///< what Stimulus::label is, for error messages
  std::size_t begin, end;
  SimEngine engine;
  std::uint32_t numThreads;
  obs::Profiler* profiler;
  obs::ProgressFn progress;
  std::function<void(std::size_t, Stimuli&)> draw;
};

/// Cuts the drawn stimuli of a call into work items of up to `width`
/// traces. Lane groups (width > 1) are packed by stimulus: traces sorted
/// by (initial encoding, final encoding, index) fill consecutive groups,
/// so lanes with the same settled state and similar final inputs commit
/// at the same times and share event waves. Every group's lanes are then
/// put in ascending trace order, so a group's lowest lane is its lowest
/// trace. Packing is a function of the stimuli alone — never of the
/// thread count — and invisible in the result, because every lane is
/// bit-identical to its own scalar run whichever lanes share its group.
std::vector<Stimuli> pack(Stimuli& all, std::size_t width) {
  const std::size_t n = all.traces.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t(0));
  if (width > 1 && n > 1) {
    // Sort keys: the bit string (initial encoding, final encoding, index)
    // — encodings one 0/1 value per input, the index fixed-width — packed
    // MSB-first into 64-bit words, so comparing keys word by word is the
    // (initial, final, index) tuple order. Most designs fit one word, and
    // then the keys sort as plain integers.
    std::size_t indexBits = 1;
    while ((n - 1) >> indexBits) ++indexBits;
    const std::size_t bits =
        all.inits[0].size() + all.fins[0].size() + indexBits;
    const std::size_t stride = (bits + 63) / 64;
    std::vector<std::uint64_t> keys(n * stride, 0);
    for (std::size_t k = 0; k < n; ++k) {
      std::uint64_t* key = &keys[k * stride];
      std::uint64_t word = 0;
      unsigned filled = 0;
      const auto put = [&](std::uint64_t bit) {
        word = (word << 1) | bit;
        if (++filled == 64) {
          *key++ = word;
          word = 0;
          filled = 0;
        }
      };
      for (std::uint8_t b : all.inits[k]) put(b & 1u);
      for (std::uint8_t b : all.fins[k]) put(b & 1u);
      for (std::size_t i = indexBits; i-- > 0;) put((k >> i) & 1u);
      if (filled != 0) *key = word << (64 - filled);
    }
    if (stride == 1) {
      std::sort(keys.begin(), keys.end());
      const std::uint64_t indexMask =
          (std::uint64_t(2) << (indexBits - 1)) - 1;
      for (std::size_t k = 0; k < n; ++k) {
        order[k] = static_cast<std::size_t>((keys[k] >> (64 - bits)) &
                                            indexMask);
      }
    } else {
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return std::lexicographical_compare(
                      &keys[a * stride], &keys[(a + 1) * stride],
                      &keys[b * stride], &keys[(b + 1) * stride]);
                });
    }
  }
  std::vector<Stimuli> groups((n + width - 1) / width);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto first = order.begin() + g * width;
    const auto last = order.begin() + std::min(n, (g + 1) * width);
    std::sort(first, last);
    groups[g].reserve(static_cast<std::size_t>(last - first));
    for (auto k = first; k != last; ++k) groups[g].take(all, *k);
  }
  return groups;
}

/// The lane whose failure aborted a whole-group run: the watchdog's
/// diverged lane on the batch engine, the only lane on the reference one.
int groupFailureLane(const BatchSim& sim) {
  return std::max(sim.divergedLane(), 0);
}
int groupFailureLane(const EventSim&) { return 0; }

/// The one engine-dispatch body behind acquire(), acquireRange(),
/// acquireKeyed() and the adaptive window. The call's stimuli are drawn
/// first and packed into work items (pack(): BatchSim lane groups, or
/// single traces on the reference engine), workers claim items from the
/// pool's cursor, and trace i's samples are written straight into slot
/// outBase + (i - plan.begin) of the pre-sized `out` — so the TraceSet is
/// thread-count invariant. Progress stays
/// trace-denominated. A failure is recorded, not thrown into the pool, and
/// blamed on its trace: a group checks its lanes in trace order and blames
/// the first that fails the decode check; a failure of the whole group
/// (e.g. SimDiverged) blames the diverged lane's trace. Workers skip every
/// group that cannot hold a trace below the lowest failure recorded so
/// far, and the call rethrows that failure — exactly the lowest failing
/// trace, for any thread count.
void run(const MaskedSbox& sbox, EventSim& sim, const PowerModel& power,
         const Plan& plan, TraceSet& out, std::size_t outBase) {
  const SimEngine engine = resolveEngine(plan.engine, sim, power);
  const bool batch = engine == SimEngine::Batch;
  const std::size_t n = plan.end - plan.begin;
  const std::size_t width = batch ? BatchSim::kLanes : 1;
  const std::size_t numGroups = (n + width - 1) / width;
  const std::uint32_t threads =
      resolveWorkerThreads(plan.numThreads, numGroups);
  const char* engineName = batch ? "batch" : "reference";

  obs::Span span(std::string(plan.spanLabel) + " (" + std::to_string(n) +
                 " traces, " + std::to_string(threads) + " threads, " +
                 engineName + " engine)");
  obs::ProgressMeter meter(plan.spanLabel, n, plan.progress);
  // Every simulated trace, including an adaptive window's traces past its
  // stop point (those are also counted in adaptive.traces_discarded).
  obs::MetricsRegistry::global().counter("acquire.traces_total").add(n);
  obs::EventJournal::global().info(
      "acquire-start", {{"label", plan.spanLabel},
                        {"traces", std::to_string(n)},
                        {"threads", std::to_string(threads)},
                        {"engine", engineName}});
  JournalAcquireScope journalScope{plan.spanLabel};

  Stimuli all;
  all.reserve(n);
  for (std::size_t i = plan.begin; i < plan.end; ++i) {
    all.traces.push_back(i);
    plan.draw(i, all);
  }
  const std::vector<Stimuli> groups = pack(all, width);

  detail::LowestFailure failure;
  const auto describe = [&](std::size_t i) {
    return std::string(plan.spanLabel) + " trace " + std::to_string(i) +
           " (" + plan.labelName + " " +
           std::to_string(static_cast<int>(all.labels[i - plan.begin])) +
           ", style " + std::string(sbox.name()) + ")";
  };
  // Simulates group g on `worker` and writes its traces; a failure is
  // recorded against its trace, never thrown into the pool.
  const auto runGroup = [&](auto& worker, std::size_t g,
                            const auto& simulate) {
    const Stimuli& group = groups[g];
    if (!failure.below(group.traces.front())) return;
    int failedLane = -1;
    // Functional sanity: the netlist must produce the right unmasked
    // value. A lane that passes writes its trace to its schedule slot.
    const auto store = [&](std::size_t l,
                           const std::vector<std::uint8_t>& outputs,
                           const double* samples) {
      if (sbox.decode(outputs, group.fins[l]) != group.expected[l]) {
        failedLane = static_cast<int>(l);
        throw std::logic_error("acquisition: decode mismatch");
      }
      out.set(outBase + (group.traces[l] - plan.begin), group.labels[l],
              samples);
    };
    try {
      simulate(worker, group, store);
    } catch (...) {
      if (failedLane < 0) failedLane = groupFailureLane(worker);
      failure.record(group.traces[static_cast<std::size_t>(failedLane)],
                     std::current_exception());
      return;
    }
    if (group.traces.size() > 1) meter.step(group.traces.size() - 1);
  };
  const auto describeGroup = [&](std::size_t g) {
    return describe(groups[g].traces.front());
  };

  try {
    if (batch) {
      // One engine per worker slot from the free list, re-targeted at this
      // call's lowering and parked again when the block exits.
      const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
      BatchEngineLease engines(design, sim.options(), threads,
                               sim.metricsRegistry(), plan.profiler);
      const auto simulate = [](BatchSim& worker, const Stimuli& group,
                               const auto& store) {
        worker.settle(group.inits);
        worker.runFused(group.fins, group.noiseSeeds);
        for (std::uint32_t l = 0; l < group.traces.size(); ++l) {
          store(l, worker.outputValues(l), worker.laneTrace(l));
        }
      };
      detail::shardedFor(
          numGroups, threads,
          [&](std::uint32_t w, std::size_t g) {
            runGroup(engines[w], g, simulate);
          },
          describeGroup, &meter, plan.spanLabel);
    } else {
      // Workers clone `sim`, so attaching here propagates to every worker.
      // Only attach when requested — a null re-attach would clobber an
      // attachment the caller installed on the prototype.
      if (plan.profiler != nullptr) sim.attachProfiler(plan.profiler);
      const auto simulate = [&](EventSim& worker, const Stimuli& group,
                                const auto& store) {
        worker.settle(group.inits[0]);
        const std::vector<Transition> transitions = worker.run(group.fins[0]);
        store(0, worker.outputValues(),
              power.sample(transitions, group.noiseSeeds[0]).data());
      };
      detail::shardedForEachClone(
          sim, numGroups, threads,
          [&](EventSim& worker, std::uint32_t, std::size_t g) {
            runGroup(worker, g, simulate);
          },
          describeGroup, &meter, plan.spanLabel);
    }
  } catch (const obs::ProgressAborted&) {
    failure.rethrowIfAny(describe);  // a trace failure outranks an abort
    throw;
  }
  failure.rethrowIfAny(describe);
  meter.finish();
}

/// run() into a fresh TraceSet of the plan's traces.
TraceSet run(const MaskedSbox& sbox, EventSim& sim, const PowerModel& power,
             const Plan& plan) {
  TraceSet traces(power.options().numSamples, 16, plan.end - plan.begin);
  run(sbox, sim, power, plan, traces, 0);
  return traces;
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

/// Appends trace `index` of the balanced protocol to `out`: class `cls`,
/// everything else — masks, gadget bits, noise seed — from the trace's own
/// stream Prng(deriveStreamSeed(seed, index)), so it depends only on
/// (seed, index, cls).
void drawClassTrace(const MaskedSbox& sbox, std::uint8_t initialValue,
                    std::uint64_t seed, std::uint8_t cls, std::size_t index,
                    Stimuli& out) {
  Prng rng(deriveStreamSeed(seed, index));
  out.labels.push_back(cls);
  out.inits.push_back(sbox.encode(initialValue, rng));
  out.fins.push_back(sbox.encode(cls, rng));
  out.noiseSeeds.push_back(rng.next() | 1ULL);
  out.expected.push_back(kPresentSbox[cls]);
}

/// Collects schedule slice [begin, end): the body of acquire() (the full
/// range) and acquireRange() (a checkpoint group). Every per-trace stream
/// is derived from the trace's *global* index, so slicing is invisible in
/// the result bits.
TraceSet acquireSlice(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      const std::vector<std::uint8_t>& schedule,
                      std::size_t begin, std::size_t end) {
  const auto draw = [&](std::size_t i, Stimuli& out) {
    drawClassTrace(sbox, cfg.initialValue, cfg.seed, schedule[i], i, out);
  };
  return run(sbox, sim, power,
             {"acquire", "class", begin, end, cfg.engine, cfg.numThreads,
              cfg.profiler, cfg.progress, draw});
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
                      std::uint32_t numThreads, SimEngine engine) {
  const auto draw = [&](std::size_t i, Stimuli& out) {
    Prng rng(deriveStreamSeed(seed, i));
    const std::uint8_t plain = rng.nibble();
    const std::uint8_t value = static_cast<std::uint8_t>(plain ^ key);
    out.labels.push_back(plain);
    out.inits.push_back(sbox.encode(0, rng));
    out.fins.push_back(sbox.encode(value, rng));
    out.noiseSeeds.push_back(rng.next() | 1ULL);
    out.expected.push_back(kPresentSbox[value]);
  };
  return run(sbox, sim, power,
             {"acquire-keyed", "plaintext", 0, numTraces, engine, numThreads,
              nullptr, obs::ProgressFn(), draw});
}

void acquireAdaptiveWindow(const MaskedSbox& sbox, EventSim& sim,
                           const PowerModel& power,
                           const AcquisitionConfig& cfg,
                           std::uint64_t firstBatch, std::size_t numTraces,
                           TraceSet& out, std::size_t outBase) {
  const std::size_t batchSize = cfg.batchSize;
  if (batchSize == 0 || batchSize % 16 != 0 || numTraces % 16 != 0 ||
      outBase + numTraces > out.size()) {
    throw std::invalid_argument(
        "acquireAdaptiveWindow: batchSize and the window must be multiples "
        "of 16, and the window must fit in the output set");
  }
  // Batch k of the window (run batch firstBatch + k) is full except a
  // trailing partial batch at the end of the budget; each one keeps its own
  // balanced schedule and derived seed, exactly as acquire() draws it.
  std::vector<std::uint64_t> seeds;
  std::vector<std::vector<std::uint8_t>> schedules;
  for (std::size_t first = 0; first < numTraces; first += batchSize) {
    const std::size_t size = std::min(batchSize, numTraces - first);
    seeds.push_back(
        stats::adaptiveBatchSeed(cfg.seed, firstBatch + seeds.size()));
    schedules.push_back(balancedClassSchedule(
        static_cast<std::uint32_t>(size / 16), seeds.back()));
  }
  const auto draw = [&](std::size_t i, Stimuli& stim) {
    const std::size_t k = i / batchSize;
    const std::size_t j = i % batchSize;
    drawClassTrace(sbox, cfg.initialValue, seeds[k], schedules[k][j], j,
                   stim);
  };
  run(sbox, sim, power,
      {"acquire", "class", 0, numTraces, cfg.engine, cfg.numThreads,
       cfg.profiler, cfg.progress, draw},
      out, outBase);
}

}  // namespace lpa
