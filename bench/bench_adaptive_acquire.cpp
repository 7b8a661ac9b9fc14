// Convergence-gated acquisition A/B: for each masked style, how many traces
// does adaptive acquisition (stats/adaptive.h) need to hit the total-leakage
// CI target, versus the paper's fixed 1024-trace protocol?
//
// Usage: bench_adaptive_acquire [tracesPerClass] [targetCiRelPct]
//                               [--json p] [--ledger p] [--progress]
//
//   tracesPerClass   fixed-count baseline (default 512 -> 8192 traces)
//   targetCiRelPct   CI target in percent (default 20 -> ciRel <= 0.20)
//
// Reports per style: fixed-count CI, adaptive trace count, stop reason, the
// trace savings, and the traces the adaptive run simulated past its stop
// point and discarded (the cost of acquiring in multi-batch windows,
// stats/adaptive.h; param adaptive_discarded_<style>); plus an adaptive bit-reproducibility check (same
// (seed, batchSize) at 1 thread vs hardware concurrency must give identical
// traces). The headline `adaptive_savings_pct` param is the largest savings
// among styles that met the target — the acceptance criterion is >= 30%.

#include <string>

#include "bench_util.h"
#include "stats/report.h"

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_adaptive_acquire",
                        bench::parseBenchArgs(argc, argv, 2));
  bench::header("Convergence-gated vs fixed-count acquisition",
                "the Fig. 7 protocol with early stopping");

  const std::uint32_t tracesPerClass =
      bench::positionalCount(scope.args(), 0, 512, "tracesPerClass");
  const std::uint32_t targetPct =
      bench::positionalCount(scope.args(), 1, 20, "targetCiRelPct");
  const double targetCiRel = static_cast<double>(targetPct) / 100.0;
  const std::uint64_t fixedTraces = 16ULL * tracesPerClass;

  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = tracesPerClass;
  cfg.acquisition.targetCiRel = targetCiRel;
  cfg.acquisition.batchSize = 128;
  cfg.acquisition.progress = scope.progressSink();
  scope.report().setSeed(cfg.acquisition.seed);
  scope.report().setParam("traces_per_class",
                          static_cast<double>(tracesPerClass));
  scope.report().setParam("target_ci_rel", targetCiRel);
  scope.report().setParam("batch_size",
                          static_cast<double>(cfg.acquisition.batchSize));

  const std::vector<SboxStyle> masked = {SboxStyle::Glut, SboxStyle::Rsm,
                                         SboxStyle::RsmRom, SboxStyle::Isw,
                                         SboxStyle::Ti};

  std::printf("%-10s %8s %10s %10s %10s %11s %9s %10s\n", "impl", "fixed",
              "fixedCiRel", "adaptive", "adaptCiRel", "stop", "savings",
              "discarded");
  const obs::Counter discardedCounter =
      obs::MetricsRegistry::global().counter("adaptive.traces_discarded");
  double bestSavings = 0.0;
  std::string bestStyle;
  bench::DigestAccumulator digest;
  for (SboxStyle s : masked) {
    obs::PhaseTimer phase(scope.report(), bench::styleName(s));
    SboxExperiment exp(s, cfg);
    exp.attachProfiler(scope.profiler());  // nullptr without --profile

    // Fixed-count reference: the full budget, then one interval estimate.
    const stats::LeakageEstimate fixed =
        exp.estimateAt(0.0, EstimatorMode::Debiased);

    // Adaptive: same budget as the ceiling, stop at the CI target.
    const std::uint64_t discarded0 = discardedCounter.value();
    const stats::AdaptiveResult adaptive = exp.adaptiveAcquireAt(0.0);
    const std::uint64_t discarded = discardedCounter.value() - discarded0;
    digest.addTraceSet(adaptive.traces);

    const double savings =
        100.0 * (1.0 - static_cast<double>(adaptive.traces.size()) /
                           static_cast<double>(fixedTraces));
    const bool met = adaptive.stop == stats::AdaptiveStop::CiTarget;
    std::printf("%-10s %8llu %9.1f%% %10zu %9.1f%% %11s %8.1f%% %10llu\n",
                bench::styleName(s).c_str(),
                static_cast<unsigned long long>(fixedTraces),
                100.0 * fixed.totalCi.relHalfWidth, adaptive.traces.size(),
                100.0 * adaptive.estimate.totalCi.relHalfWidth,
                stats::adaptiveStopName(adaptive.stop), savings,
                static_cast<unsigned long long>(discarded));

    scope.report().setLeakage(bench::styleName(s) + ".fixed_total",
                              fixed.total);
    scope.report().setLeakage(bench::styleName(s) + ".adaptive_total",
                              adaptive.estimate.total);
    scope.report().setParam(
        "adaptive_traces_" + bench::styleName(s),
        static_cast<double>(adaptive.traces.size()));
    scope.report().setParam("ci_target_met_" + bench::styleName(s),
                            obs::Json(met));
    scope.report().setParam("adaptive_discarded_" + bench::styleName(s),
                            static_cast<double>(discarded));
    if (met && savings > bestSavings) {
      bestSavings = savings;
      bestStyle = bench::styleName(s);
      stats::fillStatistics(scope.report(), adaptive.estimate,
                            stats::adaptiveStopName(adaptive.stop),
                            adaptive.batches);
      scope.report().setStatistic("style", obs::Json(bestStyle));
    }
  }

  // Bit-reproducibility of the adaptive path: (seed, batchSize) pins the
  // traces regardless of thread count.
  bool bitIdentical = true;
  {
    obs::PhaseTimer phase(scope.report(), "reproducibility");
    ExperimentConfig c1 = cfg;
    c1.acquisition.numThreads = 1;
    c1.acquisition.progress = {};
    SboxExperiment e1(SboxStyle::Isw, c1);
    const stats::AdaptiveResult r1 = e1.adaptiveAcquireAt(0.0);
    ExperimentConfig cN = cfg;
    cN.acquisition.numThreads = 0;  // hardware concurrency
    cN.acquisition.progress = {};
    SboxExperiment eN(SboxStyle::Isw, cN);
    const stats::AdaptiveResult rN = eN.adaptiveAcquireAt(0.0);
    bench::DigestAccumulator d1, dN;
    d1.addTraceSet(r1.traces);
    dN.addTraceSet(rN.traces);
    bitIdentical = d1.hex() == dN.hex() && r1.stop == rN.stop &&
                   r1.batches == rN.batches;
    std::printf("\nadaptive bit-reproducibility (1 vs hw threads): %s\n",
                bitIdentical ? "IDENTICAL" : "MISMATCH");
  }

  std::printf("best savings meeting the target: %.1f%% (%s, target >= 30%%:"
              " %s)\n",
              bestSavings, bestStyle.empty() ? "none" : bestStyle.c_str(),
              bestSavings >= 30.0 ? "MET" : "NOT MET");

  scope.report().setParam("adaptive_savings_pct", bestSavings);
  scope.report().setParam("adaptive_best_style",
                          bestStyle.empty() ? "none" : bestStyle);
  scope.report().setParam("adaptive_bit_identical", obs::Json(bitIdentical));
  scope.report().setDigest(digest.hex());
  return 0;
}
