// The process-wide batch engine free list (BatchEngineLease,
// sim/batch_sim.h): engines outlive a call, are re-bound to the next
// call's design, and must carry nothing of one call into another — not
// state, not results, not a metrics registry or profiler attachment —
// while concurrent calls each get engines of their own. Runs under TSan
// in CI.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/batch_sim.h"
#include "trace/prng.h"
#include "trace/sharded_pool.h"
#include "trace_set_match.h"

namespace lpa {
namespace {

/// 16 traces per class: 256 traces, four 64-lane groups, so a 4-worker
/// call serves 4 slots.
ExperimentConfig fourWorkerConfig() {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 16;
  cfg.acquisition.numThreads = 4;
  cfg.observe = false;
  return cfg;
}

TEST(EngineLease, ConcurrentLeasesTakeDistinctEnginesAndParkUpToTheCap) {
  const auto sbox = makeSbox(SboxStyle::Rsm);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  BatchEngineLease::dropParked();

  obs::MetricsRegistry registry;
  {
    BatchEngineLease a(design, SimOptions{}, 3, &registry, nullptr);
    BatchEngineLease b(design, SimOptions{}, 3, &registry, nullptr);
    std::set<const BatchSim*> engines;
    for (std::uint32_t w = 0; w < 3; ++w) {
      engines.insert(&a[w]);
      engines.insert(&b[w]);
    }
    EXPECT_EQ(engines.size(), 6u) << "live leases never share an engine";
    EXPECT_EQ(registry.counter("sim.batch.engines_built").value(), 6u);
  }
  // Both leases held 3 slots, so 3 of the 6 engines stay parked.
  {
    BatchEngineLease c(design, SimOptions{}, 3, &registry, nullptr);
    EXPECT_EQ(registry.counter("sim.batch.engines_built").value(), 6u)
        << "a lease of parked size builds nothing";
  }
  EXPECT_EQ(registry.counter("sim.batch.engine_slots").value(), 9u);
  EXPECT_EQ(BatchEngineLease::dropParked(), 3u);
}

TEST(EngineLease, ParkedEnginesAreDetached) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  Prng rng(5);
  const std::vector<std::vector<std::uint8_t>> init{sbox->encode(0, rng)};
  const std::vector<std::vector<std::uint8_t>> fin{sbox->encode(9, rng)};
  BatchEngineLease::dropParked();

  obs::MetricsRegistry first;
  obs::Profiler profiler;
  {
    BatchEngineLease lease(design, SimOptions{}, 1, &first, &profiler);
    lease[0].settle(init);
    lease[0].runFused(fin, {1});
  }
  const std::uint64_t runs = first.counter("sim.batch.runs").value();
  const std::uint64_t profiled = profiler.runs();
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(profiled, 1u);

  // The same engine again, attached elsewhere: the first call's registry
  // and profiler must see nothing of it.
  obs::MetricsRegistry second;
  {
    BatchEngineLease lease(design, SimOptions{}, 1, &second, nullptr);
    EXPECT_EQ(second.counter("sim.batch.engines_built").value(), 0u);
    lease[0].settle(init);
    lease[0].runFused(fin, {1});
  }
  EXPECT_EQ(second.counter("sim.batch.runs").value(), 1u);
  EXPECT_EQ(first.counter("sim.batch.runs").value(), runs);
  EXPECT_EQ(profiler.runs(), profiled);
}

TEST(EngineLease, ConcurrentCallsMatchSequentialRuns) {
  // Two 4-worker acquisitions of different styles at once, one of them
  // profiled: each result equals its sequential run, and the profiler sees
  // exactly its own call's four lane groups — nothing of the concurrent
  // call, nothing of a later one.
  const ExperimentConfig cfg = fourWorkerConfig();
  SboxExperiment glut(SboxStyle::Glut, cfg);
  SboxExperiment isw(SboxStyle::Isw, cfg);
  const TraceSet glutRef = glut.acquireAt(0.0);
  const TraceSet iswRef = isw.acquireAt(0.0);

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    obs::Profiler profiler;
    glut.attachProfiler(&profiler);
    TraceSet glutGot(0), iswGot(0);
    std::thread other([&] { iswGot = isw.acquireAt(0.0); });
    glutGot = glut.acquireAt(0.0);
    other.join();
    glut.attachProfiler(nullptr);
    EXPECT_TRUE(sameTraceSet(glutRef, glutGot));
    EXPECT_TRUE(sameTraceSet(iswRef, iswGot));
    EXPECT_EQ(profiler.runs(), 4u);

    EXPECT_TRUE(sameTraceSet(iswRef, isw.acquireAt(0.0)));
    EXPECT_TRUE(sameTraceSet(glutRef, glut.acquireAt(0.0)));
    EXPECT_EQ(profiler.runs(), 4u) << "a later call reached the profiler";
  }
}

TEST(EngineLease, CallThatThrowsGivesItsEnginesBack) {
  // Every group of a watchdog-starved call diverges; its engines must come
  // back to the list and serve the next call bit-identically.
  ExperimentConfig cfg = fourWorkerConfig();
  cfg.observe = true;
  SboxExperiment clean(SboxStyle::Glut, cfg);
  const TraceSet ref = clean.acquireAt(0.0);

  cfg.sim.maxEvents = 5;
  SboxExperiment starved(SboxStyle::Glut, cfg);
  EXPECT_THROW(starved.acquireAt(0.0), WorkerError);

  obs::Counter built =
      obs::MetricsRegistry::global().counter("sim.batch.engines_built");
  const std::uint64_t before = built.value();
  EXPECT_TRUE(sameTraceSet(ref, clean.acquireAt(0.0)));
  EXPECT_EQ(built.value(), before) << "the failed call leaked its engines";
}

}  // namespace
}  // namespace lpa
