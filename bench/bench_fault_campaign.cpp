// Thread-scaling bench for the fault-injection campaign runner.
//
// Runs the stuck-at campaign over GLUT's mask wires at 1/2/4/hw worker
// threads, reports faults/sec and speedup over the sequential baseline, and
// verifies on the fly that every thread count produced identical reports
// and baseline traces (the campaign's determinism contract, campaign.h).
//
// Usage: bench_fault_campaign [tracesPerClass] [--json p] [--trace p]
//        [--progress]                              (default tracesPerClass 8)

#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fault/campaign.h"

namespace {

/// Order-sensitive digest of a campaign result: classification, per-trace
/// outcome counts, and leakage of every report, plus the baseline traces.
double digest(const lpa::FaultCampaignResult& res) {
  double d = 0.0;
  for (std::size_t j = 0; j < res.reports.size(); ++j) {
    const lpa::FaultReport& r = res.reports[j];
    const double k = static_cast<double>(j + 1);
    d += k * static_cast<double>(r.classification);
    d += k * (r.counts.maskedOut + 3.0 * r.counts.detectedByDecode +
              7.0 * r.counts.silentCorruption + 13.0 * r.counts.diverged);
    d += k * (r.totalLeakage + 2.0 * r.singleBitLeakage);
  }
  const lpa::TraceSet& ts = res.baseline;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    d += static_cast<double>(ts.label(i)) * static_cast<double>(i + 1);
    for (std::uint32_t s = 0; s < ts.numSamples(); ++s) {
      d += ts.trace(i)[s] * static_cast<double>((i + s) % 97 + 1);
    }
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lpa;
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, 1);
  const std::uint32_t tracesPerClass =
      bench::positionalCount(args, 0, 8, "tracesPerClass");

  bench::RunScope scope("bench_fault_campaign", args);
  obs::RunReport& report = scope.report();
  report.setParam("style", std::string("GLUT"));
  report.setParam("traces_per_class", static_cast<double>(tracesPerClass));

  const ExperimentConfig ecfg;
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel delays(sbox->netlist(), ecfg.delay);
  const PowerModel power(sbox->netlist(), ecfg.power);
  const std::vector<FaultSpec> faults = stuckAtFaults(maskWireNets(*sbox));

  FaultCampaignConfig cfg;
  cfg.tracesPerClass = tracesPerClass;
  cfg.sim = ecfg.sim;
  cfg.progress = scope.progressSink();
  report.setSeed(cfg.seed);
  report.setParam("num_faults", static_cast<double>(faults.size()));

  bench::header("Fault-campaign thread-scaling (GLUT, " +
                    std::to_string(faults.size()) + " faults x " +
                    std::to_string(16 * tracesPerClass) + " traces)",
                "the robustness campaign, not a paper figure");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint32_t> counts = {1, 2, 4};
  if (hw > 4) counts.push_back(hw);
  std::printf("hardware_concurrency = %u\n\n", hw);

  std::printf("%8s %12s %12s %10s %12s\n", "threads", "seconds", "faults/sec",
              "speedup", "identical");
  double baseline = 0.0;
  double refDigest = 0.0;
  bool allIdentical = true;
  for (std::uint32_t t : counts) {
    cfg.numThreads = t;
    FaultCampaignResult res(power.options().numSamples);
    double secs = 0.0;
    {
      obs::PhaseTimer phase(report, "campaign t=" + std::to_string(t));
      secs = bench::bestOf(2, [&] {
        res = runFaultCampaign(*sbox, delays, power, faults, cfg);
      });
    }
    const double dig = digest(res);
    if (t == 1) {
      baseline = secs;
      refDigest = dig;
      bench::DigestAccumulator acc;
      acc.add(dig);
      acc.addTraceSet(res.baseline);
      report.setDigest(acc.hex());
      report.setLeakage("baseline_total", res.baselineTotalLeakage);
      report.setLeakage("baseline_single_bit", res.baselineSingleBitLeakage);
    }
    const bool same = dig == refDigest;
    allIdentical = allIdentical && same;
    std::printf("%8u %12.4f %12.2f %9.2fx %12s\n", t, secs,
                static_cast<double>(faults.size()) / secs, baseline / secs,
                same ? "yes" : "NO");
    report.setParam("faults_per_sec_t" + std::to_string(t),
                    static_cast<double>(faults.size()) / secs);
  }
  std::printf("\n%s\n", allIdentical
                            ? "determinism contract held for every count"
                            : "DETERMINISM VIOLATION — results differ!");
  return allIdentical ? 0 : 1;
}
