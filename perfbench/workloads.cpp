#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "jobs/trace_digest.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "sim/compiled_design.h"
#include "stats/streaming_leakage.h"
#include "trace/prng.h"

namespace perfbench {

using lpa::SboxStyle;

namespace {

constexpr std::size_t kSpotTraces = 64;

double cpuNowS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

const std::vector<double> kFig7Ages = {0.0, 12.0, 24.0, 36.0, 48.0};

std::vector<SboxStyle> maskedStyles() {
  return {SboxStyle::Glut, SboxStyle::Rsm, SboxStyle::RsmRom, SboxStyle::Isw,
          SboxStyle::Ti};
}

Counters readCounters() {
  const lpa::obs::MetricsSnapshot snap =
      lpa::obs::MetricsRegistry::global().snapshot();
  Counters c;
  for (const char* ns : {"sim.", "sim.compiled.", "sim.batch."}) {
    c.events += snap.counterOr(std::string(ns) + "events_processed", 0);
    c.commits += snap.counterOr(std::string(ns) + "transitions_committed", 0);
  }
  c.pulses = snap.counterOr("power.pulses_deposited", 0);
  c.estimates = snap.counterOr("stats.estimates", 0);
  return c;
}

void addCounters(Counters& into, const Counters& c) {
  into.events += c.events;
  into.commits += c.commits;
  into.pulses += c.pulses;
  into.estimates += c.estimates;
}

/// Accumulates wall and CPU time of a scope into two totals.
class Clocked {
 public:
  Clocked(double& wall, double& cpu)
      : wall_(wall), cpu_(cpu), w0_(nowS()), c0_(cpuNowS()) {}
  ~Clocked() {
    wall_ += nowS() - w0_;
    cpu_ += cpuNowS() - c0_;
  }
  Clocked(const Clocked&) = delete;
  Clocked& operator=(const Clocked&) = delete;

 private:
  double& wall_;
  double& cpu_;
  double w0_;
  double c0_;
};

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Maps a span name to the layer its self time is charged to; "" leaves
/// the span transparent (its time stays with the enclosing layer).
std::string layerOf(std::string_view name) {
  if (startsWith(name, "netlist.build")) return "sboxes.build";
  if (startsWith(name, "core.experiment")) return "core.experiment";
  if (startsWith(name, "aging.stress") || startsWith(name, "stress.profile")) {
    return "aging.stress";
  }
  if (startsWith(name, "aging.evaluate")) return "aging.evaluate";
  // Inside acquireAt: the engine's own acquisition span (simulation, pulse
  // deposition, worker clones and merge) versus everything before it
  // (schedule, aging, lowering and engine construction).
  if (startsWith(name, "acquire")) return "trace.acquire";
  if (startsWith(name, "trace.acquire")) return "trace.prepare";
  // The adaptive loop's own work between the engine's acquisition spans:
  // per-batch lowering and engine construction, folding the batch into the
  // estimator, re-estimating.
  if (startsWith(name, "trace.adaptive") ||
      startsWith(name, "adaptive.acquire")) {
    return "adaptive.loop";
  }
  if (startsWith(name, "stats.accumulate")) return "stats.accumulate";
  if (startsWith(name, "stats.estimate")) return "stats.estimate";
  if (startsWith(name, "bench.digest")) return "bench.digest";
  if (startsWith(name, "workload ") || startsWith(name, "setup") ||
      startsWith(name, "style ") || startsWith(name, "cell ")) {
    return "bench";
  }
  return "";
}

}  // namespace

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Workload::tracesPerPass() const {
  if (adaptive) return styles.size() * maxTraces;
  return styles.size() * agesMonths.size() * 16ULL * tracesPerClass;
}

std::optional<Workload> findWorkload(std::string_view name, bool smoke) {
  Workload w;
  w.name = std::string(name);
  if (name == "fig7_paper" || name == "fig7_converged") {
    w.styles = lpa::allSboxStyles();
    w.agesMonths = kFig7Ages;
    const bool converged = name == "fig7_converged";
    w.tracesPerClass = smoke ? (converged ? 8 : 4) : converged ? 1024 : 64;
    if (!smoke) {
      w.pinnedDigest =
          converged ? 0x5eb333a91d7e0519ULL : 0xc97b06737305985bULL;
    }
    return w;
  }
  if (name == "adaptive_budget") {
    w.styles = maskedStyles();
    w.adaptive = true;
    w.batchSize = 128;
    w.maxTraces = smoke ? 256 : 4096;
    if (!smoke) w.pinnedDigest = 0x3eb4b575ef074121ULL;
    return w;
  }
  return std::nullopt;
}

lpa::ExperimentConfig experimentConfig(const Workload& w, std::uint64_t seed,
                                       std::uint32_t threads) {
  lpa::ExperimentConfig cfg;
  cfg.acquisition.seed = seed;
  cfg.acquisition.numThreads = threads;
  cfg.acquisition.tracesPerClass = w.tracesPerClass;
  if (w.adaptive) {
    cfg.acquisition.batchSize = w.batchSize;
    cfg.acquisition.maxTraces = w.maxTraces;
    cfg.acquisition.targetCiRel = 1e-9;  // never met: fixed budget
  }
  return cfg;
}

std::vector<std::unique_ptr<lpa::SboxExperiment>> buildSetup(
    const Workload& w, const lpa::ExperimentConfig& cfg) {
  std::vector<std::unique_ptr<lpa::SboxExperiment>> exps;
  for (SboxStyle s : w.styles) {
    {
      lpa::obs::Span span("core.experiment (" + styleName(s) + ")");
      exps.push_back(std::make_unique<lpa::SboxExperiment>(s, cfg));
    }
    if (!w.adaptive) {
      lpa::obs::Span span("aging.stress (" + styleName(s) + ")");
      exps.back()->stressProfile();
    }
  }
  return exps;
}

PassResult runPass(const Workload& w, const lpa::ExperimentConfig& cfg,
                   bool traced) {
  PassResult r;
  r.callsPerStyle.assign(w.styles.size(), 0);
  auto& registry = lpa::obs::MetricsRegistry::global();
  lpa::jobs::DigestAccumulator digest;
  double digestWall = 0.0;
  double digestCpu = 0.0;
  // Folds a TraceSet into the pass digest; the benchmark's own work, so it
  // is excluded from the pass's wall and CPU time.
  const auto fold = [&](const lpa::TraceSet& ts, std::size_t style,
                        double months, bool spot) {
    lpa::obs::Span span("bench.digest");
    Clocked clock(digestWall, digestCpu);
    digest.addTraceSet(ts);
    if (spot) {
      r.spots.push_back(
          {style, months, lpa::jobs::digestOfRange(ts, 0, kSpotTraces)});
    }
  };
  const auto countersBefore = [&] {
    if (traced) registry.reset();
  };
  const auto countersAfter = [&] {
    if (traced) addCounters(r.counters, readCounters());
  };

  const double wall0 = nowS();
  const double cpu0 = cpuNowS();
  {
    lpa::obs::Span root("workload " + w.name);
    std::vector<std::unique_ptr<lpa::SboxExperiment>> exps;
    {
      lpa::obs::Span span("setup");
      exps = buildSetup(w, cfg);
    }
    r.setupS = nowS() - wall0;

    for (std::size_t si = 0; si < w.styles.size(); ++si) {
      const std::string name = styleName(w.styles[si]);
      lpa::obs::Span styleSpan("style " + name);
      lpa::SboxExperiment& exp = *exps[si];

      if (w.adaptive) {
        lpa::obs::Span cell("cell " + name + " adaptive");
        ++r.attempted;
        try {
          countersBefore();
          std::optional<lpa::stats::AdaptiveResult> res;
          {
            lpa::obs::Span span("trace.adaptive (" + name + ")");
            Clocked clock(r.acquireCallWallS, r.acquireCallCpuS);
            res = exp.adaptiveAcquireAt(0.0);
          }
          countersAfter();
          r.callsPerStyle[si] = res->batches;
          const bool ok =
              res->traces.size() == w.maxTraces &&
              res->batches == w.maxTraces / w.batchSize &&
              res->stop == lpa::stats::AdaptiveStop::MaxTraces &&
              std::isfinite(res->estimate.total);
          if (!ok) ++r.failed;
          fold(res->traces, si, 0.0, true);
          if (traced) r.adaptiveRuns.push_back(std::move(*res));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: %s adaptive run failed: %s\n",
                       name.c_str(), e.what());
          ++r.failed;
        }
        continue;
      }

      for (std::size_t ai = 0; ai < w.agesMonths.size(); ++ai) {
        const double months = w.agesMonths[ai];
        lpa::obs::Span cell("cell " + name + " " +
                            std::to_string(static_cast<int>(months)) + "mo");
        ++r.attempted;
        try {
          countersBefore();
          std::optional<lpa::TraceSet> ts;
          {
            lpa::obs::Span span("trace.acquire (" + name + ")");
            Clocked clock(r.acquireCallWallS, r.acquireCallCpuS);
            ts = exp.acquireAt(months);
          }
          lpa::stats::StreamingLeakage stream(ts->numSamples());
          {
            lpa::obs::Span span("stats.accumulate");
            stream.addTraceSet(*ts);
          }
          lpa::stats::LeakageEstimate est;
          {
            lpa::obs::Span span("stats.estimate");
            est = stream.estimate();
          }
          countersAfter();
          ++r.callsPerStyle[si];
          if (ts->size() != 16ULL * w.tracesPerClass ||
              !std::isfinite(est.total) || est.traces != ts->size()) {
            ++r.failed;
          }
          const bool spot = ai == 0 || ai + 1 == w.agesMonths.size();
          fold(*ts, si, months, spot);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: %s at %g months failed: %s\n",
                       name.c_str(), months, e.what());
          ++r.failed;
        }
      }
    }
  }
  r.wallS = nowS() - wall0 - digestWall;
  r.cpuS = cpuNowS() - cpu0 - digestCpu;
  r.digest = digest.value();
  return r;
}

std::string spotCheck(const Workload& w, const lpa::ExperimentConfig& cfg,
                      const SpotRef& ref) {
  const SboxStyle style = w.styles.at(ref.style);
  lpa::SboxExperiment exp(style, cfg);
  const lpa::Netlist& nl = exp.sbox().netlist();
  lpa::DelayModel delays(nl, cfg.delay);
  lpa::PowerModel power(nl, cfg.power);
  if (ref.months > 0.0) {
    const lpa::AgingFactors f = exp.agingFactorsAt(ref.months);
    delays.setAgingFactors(f.delayScale);
    power.setAgingFactors(f.amplitudeScale);
  }
  lpa::EventSim sim(nl, delays, cfg.sim);

  lpa::AcquisitionConfig acfg = cfg.acquisition;
  acfg.engine = lpa::SimEngine::Reference;
  if (w.adaptive) {
    // Batch 0 of the adaptive run: its own balanced schedule under the
    // first derived batch seed (stats/adaptive.h).
    acfg.tracesPerClass = w.batchSize / 16;
    acfg.seed = lpa::deriveStreamSeed(
        lpa::deriveStreamSeed(cfg.acquisition.seed,
                              lpa::stats::kAdaptiveBatchStream),
        0);
  }
  const lpa::TraceSet ts =
      lpa::acquireRange(exp.sbox(), sim, power, acfg, 0, kSpotTraces);
  const std::uint64_t got = lpa::jobs::digestOfTraceSet(ts);
  if (got == ref.digest) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s at %g months: reference engine digest %016llx, served "
                "engine %016llx",
                styleName(style).c_str(), ref.months,
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(ref.digest));
  return buf;
}

SpanBreakdown analyzeSpans(const std::string& workloadName) {
  const lpa::obs::Json doc = lpa::obs::TraceCollector::global().toJson();
  const double track = lpa::obs::TraceCollector::thisThreadTrack();
  struct Ev {
    std::string name;
    double ts;
    double dur;
  };
  std::vector<Ev> evs;
  for (const lpa::obs::Json& e : doc.find("traceEvents")->elements()) {
    if (e.find("ph")->asString() != "X") continue;
    if (e.find("tid")->asNumber() != track) continue;
    evs.push_back({e.find("name")->asString(), e.find("ts")->asNumber(),
                   e.find("dur")->asNumber()});
  }
  SpanBreakdown out;
  const std::string rootName = "workload " + workloadName;
  const auto root = std::find_if(evs.begin(), evs.end(), [&](const Ev& e) {
    return e.name == rootName;
  });
  if (root == evs.end()) return out;
  const double rootBegin = root->ts;
  const double rootEnd = root->ts + root->dur;
  out.rootS = root->dur * 1e-6;

  // Keep the spans inside the root that are charged to a layer, outermost
  // first at equal start; transparent spans fold into their parent.
  std::vector<Ev> kept;
  for (const Ev& e : evs) {
    if (e.ts < rootBegin || e.ts + e.dur > rootEnd) continue;
    if (startsWith(e.name, "acquire (")) out.callMs.push_back(e.dur * 1e-3);
    if (!layerOf(e.name).empty()) kept.push_back(e);
  }
  std::sort(kept.begin(), kept.end(), [](const Ev& a, const Ev& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
  });

  struct Open {
    const Ev* ev;
    double childUs;
    std::string style;
  };
  std::vector<Open> stack;
  const auto close = [&] {
    const Open o = stack.back();
    stack.pop_back();
    const double selfS = (o.ev->dur - o.childUs) * 1e-6;
    const std::string layer = layerOf(o.ev->name);
    out.selfS[layer] += selfS;
    if (layer == "trace.acquire" && !o.style.empty()) {
      out.acquireS[o.style] += selfS;
    }
  };
  for (const Ev& e : kept) {
    while (!stack.empty() &&
           e.ts >= stack.back().ev->ts + stack.back().ev->dur) {
      close();
    }
    std::string style = stack.empty() ? "" : stack.back().style;
    if (startsWith(e.name, "style ")) style = e.name.substr(6);
    if (!stack.empty()) stack.back().childUs += e.dur;
    stack.push_back({&e, 0.0, style});
  }
  while (!stack.empty()) close();
  return out;
}

Probes runProbes(const Workload& w, const lpa::ExperimentConfig& cfg) {
  Probes p;
  lpa::ExperimentConfig pcfg = cfg;
  // One acquisition call of the workload's shape: an adaptive batch, or a
  // Fig. 7 cell capped at the paper's 1024 traces (lane occupancy is a
  // per-64-lane-group property, so the cap does not change it).
  pcfg.acquisition.tracesPerClass =
      w.adaptive ? w.batchSize / 16 : std::min(w.tracesPerClass, 64u);
  for (SboxStyle s : w.styles) {
    lpa::SboxExperiment exp(s, pcfg);
    const lpa::Netlist& nl = exp.sbox().netlist();
    const lpa::DelayModel delays(nl, cfg.delay);
    const lpa::PowerModel power(nl, cfg.power);
    // What every acquisition call does before the engine's span opens:
    // lower the netlist and build the batch engine.
    std::vector<double> lower;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = nowS();
      const lpa::CompiledDesign design(nl, delays, power);
      const lpa::BatchSim engine(design, cfg.sim);
      lower.push_back(nowS() - t0);
    }
    std::sort(lower.begin(), lower.end());
    p.lowerS.push_back(lower[lower.size() / 2]);

    lpa::obs::Profiler profiler;
    exp.attachProfiler(&profiler);
    exp.acquireAt(0.0);
    exp.attachProfiler(nullptr);
    p.lanesPopped.push_back(profiler.meanPoppedLanes());
    p.lanesCommitted.push_back(profiler.meanCommittedLanes());
  }
  return p;
}

StatsReplay replayAdaptiveStats(const Workload& w, const PassResult& pass) {
  StatsReplay out;
  for (const lpa::stats::AdaptiveResult& run : pass.adaptiveRuns) {
    ++out.attempted;
    const lpa::TraceSet& all = run.traces;
    lpa::stats::StreamingLeakage stream(all.numSamples());
    lpa::stats::LeakageEstimate est;
    for (std::size_t b = 0; b < run.batches; ++b) {
      lpa::TraceSet batch(all.numSamples());
      batch.reserve(w.batchSize);
      for (std::size_t i = b * w.batchSize; i < (b + 1) * w.batchSize; ++i) {
        batch.add(all.label(i), std::vector<double>(
                                    all.trace(i),
                                    all.trace(i) + all.numSamples()));
      }
      double t0 = nowS();
      stream.addTraceSet(batch);
      out.accumulateS += nowS() - t0;
      t0 = nowS();
      est = stream.estimate();
      out.estimateS += nowS() - t0;
    }
    const bool same =
        std::memcmp(&est.total, &run.estimate.total, sizeof(double)) == 0 &&
        std::memcmp(&est.totalCi.halfWidth, &run.estimate.totalCi.halfWidth,
                    sizeof(double)) == 0;
    if (!same) ++out.failed;
  }
  return out;
}

}  // namespace perfbench
