// Performance microbenchmarks (google-benchmark): throughput of the hot
// kernels -- WHT, event-driven simulation per implementation, PRESENT
// encryption, and a full leakage-analysis pipeline at reduced trace count.
//
// Accepts the shared observability flags (--json/--trace/--progress,
// bench_util.h) in addition to google-benchmark's own; the run report
// carries the metric snapshot accumulated across all microbenchmarks.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/experiment.h"
#include "core/wht.h"
#include "crypto/present.h"

namespace {

using namespace lpa;

void BM_Fwht16(benchmark::State& state) {
  std::vector<double> v(16, 1.0);
  for (auto _ : state) {
    fwht(v);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Fwht16);

void BM_Fwht1024(benchmark::State& state) {
  std::vector<double> v(1024, 1.0);
  for (auto _ : state) {
    fwht(v);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Fwht1024);

void BM_PresentEncrypt(benchmark::State& state) {
  const Present cipher(PresentKeySize::K80,
                       std::vector<std::uint8_t>(10, 0x42));
  std::uint64_t x = 0x0123456789ABCDEFULL;
  for (auto _ : state) {
    x = cipher.encrypt(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PresentEncrypt);

void BM_EventSimTrace(benchmark::State& state) {
  const SboxStyle style = static_cast<SboxStyle>(state.range(0));
  const auto sbox = makeSbox(style);
  ExperimentConfig cfg;
  const DelayModel dm(sbox->netlist(), cfg.delay);
  EventSim sim(sbox->netlist(), dm, cfg.sim);
  Prng rng(7);
  sim.settle(sbox->encode(0, rng));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto tr = sim.run(sbox->encode(rng.nibble(), rng));
    events += tr.size();
    benchmark::DoNotOptimize(tr.data());
  }
  state.SetLabel(std::string(sbox->name()));
  state.counters["events/run"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EventSimTrace)->DenseRange(0, 6);

void BM_LeakagePipelineIsw(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 4;
  cfg.stressCycles = 32;
  for (auto _ : state) {
    SboxExperiment exp(SboxStyle::Isw, cfg);
    const double leak = exp.analyzeAt(0.0).totalLeakagePower();
    benchmark::DoNotOptimize(leak);
  }
}
BENCHMARK(BM_LeakagePipelineIsw);

}  // namespace

int main(int argc, char** argv) {
  // Strip the shared observability flags, hand everything else (including
  // argv[0]) to google-benchmark untouched.
  const lpa::bench::BenchArgs args =
      lpa::bench::parseBenchArgs(argc, argv, lpa::bench::kPassThrough);
  lpa::bench::RunScope scope("bench_perf", args);
  {
    lpa::obs::PhaseTimer phase(scope.report(), "microbenchmarks");
    std::vector<char*> bmArgv = {argv[0]};
    std::vector<std::string> keep = args.positional;  // stable storage
    for (std::string& s : keep) bmArgv.push_back(s.data());
    int bmArgc = static_cast<int>(bmArgv.size());
    benchmark::Initialize(&bmArgc, bmArgv.data());
    if (benchmark::ReportUnrecognizedArguments(bmArgc, bmArgv.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
