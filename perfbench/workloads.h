#pragma once
// Workloads of the repository benchmark and the code that runs one pass of
// each. Everything here drives the simulator through its public API only;
// layer costs are taken from outside — wall/CPU clocks around public calls,
// spans recorded around those calls, the spans the library already emits,
// and the obs::MetricsRegistry counters. See README.md beside this file.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"

namespace perfbench {

/// The default workload seed (the acquisition seed of ExperimentConfig).
inline constexpr std::uint64_t kDefaultSeed = 0xCAFE0003ULL;

/// Host seconds on the steady clock.
double nowS();

inline std::string styleName(lpa::SboxStyle s) {
  return std::string(lpa::sboxStyleName(s));
}

struct Workload {
  std::string name;
  std::vector<lpa::SboxStyle> styles;
  /// Device ages of the Fig. 7 matrix, in months (fig7_* workloads).
  std::vector<double> agesMonths;
  std::uint32_t tracesPerClass = 64;
  /// adaptive_budget: adaptiveAcquireAt(0) per style with a CI target that
  /// is never met, so every style runs exactly maxTraces / batchSize
  /// batches.
  bool adaptive = false;
  std::uint32_t batchSize = 128;
  std::uint64_t maxTraces = 4096;
  /// Digest of one pass under kDefaultSeed; 0 = not pinned (smoke sizes).
  std::uint64_t pinnedDigest = 0;

  /// Traces one pass acquires.
  std::uint64_t tracesPerPass() const;
};

/// The named workload at full size, or at the reduced size of the self-test
/// smoke pass; nullopt for an unknown name.
std::optional<Workload> findWorkload(std::string_view name, bool smoke);

/// Default ExperimentConfig (what users get) with the workload's seed,
/// thread count and sizes.
lpa::ExperimentConfig experimentConfig(const Workload& w, std::uint64_t seed,
                                       std::uint32_t threads);

/// Builds the workload's experiments: one SboxExperiment per style, plus
/// the stress profile on the fig7_* workloads (everything before the first
/// trace).
std::vector<std::unique_ptr<lpa::SboxExperiment>> buildSetup(
    const Workload& w, const lpa::ExperimentConfig& cfg);

/// Reference for the spot check: digest of traces [0, 64) of one TraceSet
/// of the pass, with what is needed to re-acquire them.
struct SpotRef {
  std::size_t style = 0;  ///< index into Workload::styles
  double months = 0.0;
  std::uint64_t digest = 0;
};

/// Engine counters summed over one pass (obs::MetricsRegistry, summed over
/// the sim.*, sim.compiled.* and sim.batch.* namespaces; a namespace that
/// does not exist reads as 0).
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t commits = 0;
  std::uint64_t pulses = 0;
  std::uint64_t estimates = 0;
};

struct PassResult {
  double setupS = 0.0;
  double wallS = 0.0;   ///< set-up included, benchmark digest excluded
  double cpuS = 0.0;    ///< process CPU, benchmark digest excluded
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<SpotRef> spots;
  // Filled on traced passes only.
  Counters counters;
  std::vector<std::uint32_t> callsPerStyle;
  double acquireCallWallS = 0.0;  ///< wall inside acquisition calls
  double acquireCallCpuS = 0.0;   ///< process CPU inside them
  /// adaptive_budget: each style's run, kept for the stats replay.
  std::vector<lpa::stats::AdaptiveResult> adaptiveRuns;
};

/// One full pass: set-up, every cell, estimation, digest. With `traced`
/// the caller has enabled the global span collector; the pass then also
/// resets the metrics registry around every cell and gathers counters.
PassResult runPass(const Workload& w, const lpa::ExperimentConfig& cfg,
                   bool traced);

/// Re-acquires traces [0, 64) of a reference with the reference engine and
/// compares digests. Returns an empty string on success, else the reason.
std::string spotCheck(const Workload& w, const lpa::ExperimentConfig& cfg,
                      const SpotRef& ref);

/// Layer self times of one traced pass, from the spans on the calling
/// thread's track (the benchmark's own and the library's).
struct SpanBreakdown {
  double rootS = 0.0;                       ///< the pass's root span
  std::map<std::string, double> selfS;      ///< layer -> self time
  std::map<std::string, double> acquireS;   ///< style -> acquisition time
  std::vector<double> callMs;               ///< each acquisition call
};

SpanBreakdown analyzeSpans(const std::string& workloadName);

/// Per-style fixed costs measured by separate probes after the passes.
struct Probes {
  std::vector<double> lowerS;  ///< lowering + batch engine build, per style
  std::vector<double> lanesPopped;  ///< mean lanes popped per wave
  std::vector<double> lanesCommitted;
};

Probes runProbes(const Workload& w, const lpa::ExperimentConfig& cfg);

/// adaptive_budget: replays each kept run's batches through a fresh
/// StreamingLeakage, timing addTraceSet and estimate from outside; the
/// final estimate must equal the run's bit for bit.
struct StatsReplay {
  double accumulateS = 0.0;
  double estimateS = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

StatsReplay replayAdaptiveStats(const Workload& w, const PassResult& pass);

}  // namespace perfbench
