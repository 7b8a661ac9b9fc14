// The repository benchmark: runs one workload (fig7_paper, fig7_converged,
// adaptive_budget) for a fixed time from a single closed-loop caller,
// checks its outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md beside this file; run it through run.py,
// which builds this program first.
//
// Usage: perfbench --workload <name> [--seed <n>] [--seconds <s>]
//                  [--trace 0|1] [--trace-out <file>] [--smoke]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/trace_span.h"
#include "workloads.h"

namespace {

using perfbench::nowS;
using perfbench::PassResult;
using perfbench::styleName;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string traceOut;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed n] "
               "[--seconds s] [--trace 0|1] [--trace-out file] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, nullptr, 0);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--trace-out") {
        a.traceOut = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated order statistic at level q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The highest percentile level with at least ten samples beyond it (the
/// median when there are fewer than twenty samples).
double tailLevel(std::size_t n) {
  if (n < 20) return 0.5;
  return std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))) / 100.0;
}

template <typename F>
std::vector<double> collect(const std::vector<PassResult>& passes, F f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return v;
}

/// Metrics in the order they were added, each with its unit.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  void print(const char* title) const {
    std::printf("-- %s\n", title);
    for (const Row& r : rows_) {
      std::printf("  %-36s %16.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }
  lpa::obs::Json json() const {
    lpa::obs::Json m = lpa::obs::Json::object();
    for (const Row& r : rows_) {
      lpa::obs::Json v = lpa::obs::Json::object();
      v["value"] = lpa::obs::Json(r.value);
      v["unit"] = lpa::obs::Json(r.unit);
      m[r.name] = std::move(v);
    }
    return m;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

bool isMasked(lpa::SboxStyle s) {
  return s != lpa::SboxStyle::Lut && s != lpa::SboxStyle::Opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const std::optional<Workload> found =
      perfbench::findWorkload(args.workload, args.smoke);
  if (!found) usage("unknown workload " + args.workload);
  const Workload& w = *found;
  const std::uint32_t threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const lpa::ExperimentConfig cfg =
      perfbench::experimentConfig(w, args.seed, threads);
  auto& collector = lpa::obs::TraceCollector::global();

  std::printf("perfbench %s: seed 0x%llx, %u threads, %.0f s, %s%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              threads, args.seconds, args.trace ? "traced" : "untraced",
              args.smoke ? ", smoke size" : "");
  const double start = nowS();

  // Set-up alone, several times, so setup_s is a median even on the
  // workloads whose passes are long.
  std::vector<double> setups;
  const std::size_t minSetups = args.smoke ? 1 : 5;
  while (setups.size() < minSetups ||
         (nowS() - start < 0.05 * args.seconds && setups.size() < 64)) {
    const double t0 = nowS();
    perfbench::buildSetup(w, cfg);
    setups.push_back(nowS() - t0);
  }

  // Passes while the next one still fits in the time: untraced only, or
  // alternating untraced and traced (the overhead is then measured pass
  // against neighbouring pass). At full size at least one traced pass runs,
  // between two untraced ones.
  std::vector<PassResult> plain, traced;
  const std::size_t minPasses = args.smoke ? (args.trace ? 2 : 1) : 3;
  double lastPassS = 0.0;
  while (plain.size() + traced.size() < minPasses ||
         nowS() - start + lastPassS <= args.seconds) {
    const double passStart = nowS();
    const bool tracedPass = args.trace && plain.size() > traced.size();
    if (!tracedPass) {
      plain.push_back(perfbench::runPass(w, cfg, false));
    } else {
      // Only the last traced pass is analysed; drop the runs kept before.
      if (!traced.empty()) traced.back().adaptiveRuns.clear();
      collector.clear();
      collector.enable();
      traced.push_back(perfbench::runPass(w, cfg, true));
      collector.disable();
    }
    lastPassS = nowS() - passStart;
  }

  // -- Output checks ------------------------------------------------------
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  const std::uint64_t expected =
      args.seed == perfbench::kDefaultSeed && w.pinnedDigest != 0
          ? w.pinnedDigest
          : plain.front().digest;
  for (const std::vector<PassResult>* set : {&plain, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
      if (p.digest != expected) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "pass digest %016llx, expected %016llx",
                      static_cast<unsigned long long>(p.digest),
                      static_cast<unsigned long long>(expected));
        problems.push_back(buf);
        failed += p.attempted - p.failed;
      }
    }
  }
  for (const perfbench::SpotRef& ref : plain.front().spots) {
    ++attempted;
    try {
      const std::string why = perfbench::spotCheck(w, cfg, ref);
      if (!why.empty()) {
        problems.push_back(why);
        ++failed;
      }
    } catch (const std::exception& e) {
      problems.push_back(std::string("spot check threw: ") + e.what());
      ++failed;
    }
  }

  // -- End-to-end metrics (untraced passes) -------------------------------
  const double traces = static_cast<double>(w.tracesPerPass());
  Report e2e;
  std::vector<double> allSetups = setups;
  for (const PassResult& p : plain) allSetups.push_back(p.setupS);
  e2e.add("setup_s", median(allSetups), "s");
  const std::vector<double> walls =
      collect(plain, [](auto& p) { return p.wallS; });
  const double plainWall = median(walls);
  e2e.add("wall_s", plainWall, "s");
  e2e.add("traces_per_s", median(collect(plain, [&](auto& p) {
            return traces / (p.wallS - p.setupS);
          })),
          "1/s");
  e2e.add("cpu_s", median(collect(plain, [](auto& p) { return p.cpuS; })),
          "s");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  e2e.add("ok_frac",
          1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
          "frac");
  e2e.print("end-to-end (untraced passes)");
  std::printf("  (%zu set-ups, %zu untraced passes, %zu traced, %.0f traces "
              "per pass, digest %016llx)\n",
              allSetups.size(), plain.size(), traced.size(), traces,
              static_cast<unsigned long long>(plain.front().digest));
  std::printf("  (pass wall_s min %.4g, p25 %.4g, p50 %.4g, p75 %.4g, max "
              "%.4g)\n",
              quantile(walls, 0.0), quantile(walls, 0.25),
              quantile(walls, 0.5), quantile(walls, 0.75),
              quantile(walls, 1.0));

  // -- Per-layer metrics (traced passes + probes) -------------------------
  Report layers;
  if (args.trace) {
    if (!args.traceOut.empty()) {
      // The spans of the last traced pass, loadable in chrome://tracing.
      collector.writeTo(args.traceOut);
      std::printf("  chrome trace: %s\n", args.traceOut.c_str());
    }
    const perfbench::SpanBreakdown spans =
        perfbench::analyzeSpans(w.name);
    collector.clear();
    const perfbench::Probes probes = perfbench::runProbes(w, cfg);
    const PassResult& tp = traced.back();
    const double perTrace = 1.0 / traces;
    const auto self = [&](const char* layer) {
      const auto it = spans.selfS.find(layer);
      return it == spans.selfS.end() ? 0.0 : it->second;
    };
    const double acquireS = self("trace.acquire");

    double statsAccumulate = self("stats.accumulate");
    double statsEstimate = self("stats.estimate");
    if (w.adaptive) {
      const perfbench::StatsReplay replay =
          perfbench::replayAdaptiveStats(w, tp);
      attempted += replay.attempted;
      failed += replay.failed;
      if (replay.failed) problems.push_back("adaptive stats replay differs");
      statsAccumulate = replay.accumulateS;
      statsEstimate = replay.estimateS;
    }
    double lowerS = 0.0;
    for (std::size_t i = 0; i < w.styles.size(); ++i) {
      lowerS += probes.lowerS[i] * tp.callsPerStyle[i];
    }
    const double tail = tailLevel(spans.callMs.size());
    const double benchSelf = self("bench") + self("bench.digest");

    // Overhead of tracing: each traced pass against the untraced passes'
    // median, both without the benchmark's digest folding.
    const std::vector<double> overhead = collect(traced, [&](auto& p) {
      return 100.0 * (p.wallS / plainWall - 1.0);
    });

    layers.add("sboxes.build_s", self("sboxes.build"), "s");
    layers.add("core.experiment_s", self("core.experiment"), "s");
    layers.add("trace.acquire_s", acquireS, "s");
    for (std::size_t i = 0; i < w.styles.size(); ++i) {
      const std::string name = styleName(w.styles[i]);
      const auto it = spans.acquireS.find(name);
      if (isMasked(w.styles[i])) {
        layers.add("trace.acquire_s." + name,
                   it == spans.acquireS.end() ? 0.0 : it->second, "s");
      }
    }
    layers.add("trace.calls", static_cast<double>(spans.callMs.size()),
               "count");
    layers.add("trace.call_ms_p50", quantile(spans.callMs, 0.5), "ms");
    layers.add("trace.call_ms_tail", quantile(spans.callMs, tail), "ms");
    layers.add("trace.cpu_util",
               tp.acquireCallCpuS / (tp.acquireCallWallS * threads), "frac");
    layers.add("sim.lower_s", lowerS, "s");
    layers.add("sim.ns_per_event",
               1e9 * acquireS / static_cast<double>(tp.counters.events),
               "ns");
    layers.add("sim.events_per_trace",
               static_cast<double>(tp.counters.events) * perTrace, "count");
    layers.add("sim.commits_per_trace",
               static_cast<double>(tp.counters.commits) * perTrace, "count");
    layers.add("power.pulses_per_trace",
               static_cast<double>(tp.counters.pulses) * perTrace, "count");
    layers.add("stats.accumulate_s", statsAccumulate, "s");
    layers.add("stats.estimate_s", statsEstimate, "s");
    layers.add("stats.estimates", static_cast<double>(tp.counters.estimates),
               "count");
    for (std::size_t i = 0; i < w.styles.size(); ++i) {
      if (!isMasked(w.styles[i])) continue;
      const std::string name = styleName(w.styles[i]);
      layers.add("sim.lanes_popped_per_wave." + name, probes.lanesPopped[i],
                 "count");
      layers.add("sim.lanes_committed_per_wave." + name,
                 probes.lanesCommitted[i], "count");
    }
    layers.add("bench.self_s", benchSelf, "s");
    layers.add("trace_overhead_pct", median(overhead), "%");
    layers.add("trace_overhead_spread_pct",
               overhead.size() < 2
                   ? 0.0
                   : quantile(overhead, 0.75) - quantile(overhead, 0.25),
               "%");
    layers.print("per-layer (last traced pass; probes for lowering/lanes)");

    // Every layer's self time, including the layers this workload runs
    // beyond the declared set, and the accounting of the traced pass: the
    // self times add up to the root span; without the benchmark's digest
    // folding that is the untraced wall_s plus the tracing overhead.
    Report extra;
    for (const auto& [layer, s] : spans.selfS) {
      extra.add(layer + " (self)", s, "s");
    }
    for (std::size_t i = 0; i < w.styles.size(); ++i) {
      if (isMasked(w.styles[i])) continue;
      const std::string name = styleName(w.styles[i]);
      const auto it = spans.acquireS.find(name);
      extra.add("trace.acquire_s." + name,
                it == spans.acquireS.end() ? 0.0 : it->second, "s");
    }
    double selfSum = 0.0;
    for (const auto& [layer, s] : spans.selfS) selfSum += s;
    extra.add("self-time sum", selfSum, "s");
    extra.add("traced root span", spans.rootS, "s");
    extra.add("self-time sum - digest vs untraced wall_s",
              100.0 * ((selfSum - self("bench.digest")) / plainWall - 1.0),
              "%");
    extra.add("call-time tail level", 100.0 * tail, "pct");
    extra.print("layer self times of the traced pass");
  }

  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  lpa::obs::Json result = lpa::obs::Json::object();
  result["correct"] = lpa::obs::Json(failed == 0 && problems.empty());
  result["attempted"] = lpa::obs::Json(static_cast<std::uint64_t>(attempted));
  result["failed"] = lpa::obs::Json(static_cast<std::uint64_t>(failed));
  result["metrics"] = args.trace ? layers.json() : e2e.json();
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
