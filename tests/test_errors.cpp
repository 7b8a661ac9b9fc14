// Error-path coverage: every documented throw site must fire with a
// diagnosable message, and worker-pool failures must carry the identity of
// the failing work item (fail-safe acquisition).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/present.h"
#include "netlist/builder.h"
#include "netlist/netlist.h"
#include "netlist/validate.h"
#include "sboxes/encoding.h"
#include "sboxes/isw_any_order.h"
#include "sboxes/masked_sbox.h"
#include "trace/acquisition.h"
#include "trace/sharded_pool.h"
#include "trace/trace_set.h"

namespace lpa {
namespace {

// Message-checking helper: the exception must both be of the right type and
// mention the given fragment, so failures stay diagnosable.
template <typename Ex, typename Fn>
void expectThrowContaining(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected exception mentioning '" << fragment << "'";
  } catch (const Ex& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(NetlistErrors, RejectsBadFaninCounts) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  // XOR is strictly 2-input in this cell library.
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.addGate(GateType::Xor, {a, b, a}); }, "bad fanin count");
  // AND tops out at the library max of 4.
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.addGate(GateType::And, {a, b, a, b, a}); }, "bad fanin count");
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.addGate(GateType::Inv, {}); }, "bad fanin count");
}

TEST(NetlistErrors, AddGateEnforcesTopologicalOrder) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.addGate(GateType::Buf, {a + 1}); }, "not yet defined");
  // replaceGate deliberately relaxes this (fault overlays may feed back),
  // but still rejects nets that do not exist at all.
  const NetId y = nl.addGate(GateType::Buf, {a});
  nl.markOutput(y, "y");
  EXPECT_NO_THROW(nl.replaceGate(a, GateType::Buf, {y}));
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.replaceGate(y, GateType::Buf, {y + 100}); }, "missing net");
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.replaceGate(y + 100, GateType::Const0, {}); }, "no such gate");
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.replaceGate(y, GateType::Input, {}); }, "primary input");
}

TEST(NetlistErrors, LookupsNameTheMissingNet) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  b.output(b.buf(a), "y");
  const Netlist nl = b.take();
  expectThrowContaining<std::invalid_argument>(
      [&] { (void)nl.inputByName("zz"); }, "unknown input: zz");
  expectThrowContaining<std::invalid_argument>(
      [&] { (void)nl.outputByName("zz"); }, "unknown output: zz");
  Netlist mut = nl;
  expectThrowContaining<std::invalid_argument>(
      [&] { mut.markOutput(1000, "bad"); }, "does not exist");
  expectThrowContaining<std::invalid_argument>(
      [&] { (void)nl.evaluate({1, 0}); }, "wrong number of input values");
}

TEST(NetlistErrors, ValidateOrThrowListsEveryProblem) {
  // A netlist with a disconnected input AND a cycle reachable from another.
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId dead = b.input("dead");
  (void)dead;
  const NetId g = b.buf(a);
  const NetId f = b.xorGate(a, g);
  const NetId y = b.buf(f);
  b.output(y, "y");
  Netlist nl = b.take();
  // Keep the a -> f edge so the feedback loop stays input-reachable.
  nl.replaceGate(f, GateType::Xor, {a, y});
  try {
    validateOrThrow(nl, "test-netlist");
    FAIL() << "validation must fail";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test-netlist"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("combinational cycle"), std::string::npos) << msg;
  }
}

TEST(SboxErrors, FactoryRejectsUnknownStyleAndBadIswOrder) {
  expectThrowContaining<std::invalid_argument>(
      [] { (void)makeSbox(static_cast<SboxStyle>(255)); },
      "unknown S-box style");
  // The order guard of the generic masking construction.
  expectThrowContaining<std::invalid_argument>(
      [] { (void)makeIswSboxOfOrder(0); }, "ISW order");
  expectThrowContaining<std::invalid_argument>(
      [] { (void)makeIswSboxOfOrder(9); }, "ISW order");
  EXPECT_NO_THROW((void)makeIswSboxOfOrder(2));
}

TEST(EncodingErrors, NibbleOffsetOutOfRange) {
  const std::vector<std::uint8_t> bits = {1, 0, 1, 0, 1};
  EXPECT_EQ(readNibbleBits(bits, 0), 0x5);
  EXPECT_EQ(readNibbleBits(bits, 1), 0xA);
  expectThrowContaining<std::out_of_range>(
      [&] { (void)readNibbleBits(bits, 2); }, "nibble offset");
}

TEST(TraceSetErrors, ShapeViolationsThrow) {
  TraceSet ts(4);
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.add(16, std::vector<double>(4, 0.0)); }, "class out of range");
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.add(0, std::vector<double>(3, 0.0)); },
      "trace length mismatch");
  ts.add(0, std::vector<double>(4, 0.0));

  TraceSet wrongSamples(5);
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.append(wrongSamples); }, "trace set shape mismatch");
  TraceSet wrongClasses(4, 8);
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.append(wrongClasses); }, "trace set shape mismatch");
  EXPECT_EQ(ts.size(), 1u);  // failed appends left the set untouched
}

TEST(TraceSetErrors, SetRejectsOutOfRangeIndexAndClass) {
  TraceSet ts(2, 16, 3);  // pre-sized: three zero traces of class 0
  ASSERT_EQ(ts.size(), 3u);
  const double samples[2] = {1.5, -2.0};
  ts.set(2, 15, samples);
  EXPECT_EQ(ts.label(2), 15);
  EXPECT_EQ(ts.trace(2)[0], 1.5);
  EXPECT_EQ(ts.trace(2)[1], -2.0);
  EXPECT_EQ(ts.label(0), 0);
  EXPECT_EQ(ts.trace(0)[1], 0.0);
  expectThrowContaining<std::out_of_range>([&] { ts.set(3, 0, samples); },
                                           "trace index 3 out of range");
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.set(0, 16, samples); }, "class out of range");
  EXPECT_EQ(ts.label(0), 0);  // a rejected set leaves the slot untouched
  EXPECT_EQ(ts.trace(0)[0], 0.0);
}

// An S-box whose netlist just buffers its inputs: decode then reads the
// buffered plaintext back, which never equals kPresentSbox[plain] (the
// PRESENT S-box has no fixed points), so every trace's acquisition
// self-check fails. This exercises the fail-safe path deterministically.
// With `brokenValue` >= 0 only final values equal to it decode wrongly
// (the others return the right S-box output), so just some lanes of a
// batch group fail.
class BrokenSbox final : public MaskedSbox {
 public:
  explicit BrokenSbox(int brokenValue = -1) : brokenValue_(brokenValue) {
    NetlistBuilder b;
    for (int i = 0; i < 4; ++i) {
      b.output(b.buf(b.input("x" + std::to_string(i))),
               "y" + std::to_string(i));
    }
    nl_ = b.take();
  }
  SboxStyle style() const override { return SboxStyle::Lut; }
  int randomBits() const override { return 0; }
  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng&) const override {
    std::vector<std::uint8_t> bits;
    appendNibbleBits(bits, plain);
    return bits;
  }
  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>&) const override {
    const std::uint8_t v = readNibbleBits(outputs, 0);
    return brokenValue_ < 0 || v == brokenValue_ ? v : kPresentSbox[v];
  }

 private:
  int brokenValue_;
};

/// The nested root cause of a worker error must be the decode check.
void expectNestedDecodeCause(const WorkerError& e) {
  bool sawNested = false;
  try {
    std::rethrow_if_nested(e);
  } catch (const std::exception& nested) {
    sawNested = true;
    EXPECT_NE(std::string(nested.what()).find("decode"), std::string::npos);
  }
  EXPECT_TRUE(sawNested);
}

TEST(AcquisitionErrors, WorkerErrorCarriesTraceIdentity) {
  const BrokenSbox sbox;
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());

  // Auto serves the 16 traces as one batch lane group, Reference as 16
  // single-trace items: both must report the same failing trace.
  for (SimEngine engine : {SimEngine::Auto, SimEngine::Reference}) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)));
    AcquisitionConfig cfg;
    cfg.tracesPerClass = 1;
    cfg.numThreads = 1;
    cfg.engine = engine;
    EventSim sim(sbox.netlist(), dm);
    try {
      (void)acquire(sbox, sim, power, cfg);
      FAIL() << "decode mismatch must abort acquisition";
    } catch (const WorkerError& e) {
      // Single worker: the failure is the very first trace, and its
      // identity (index, class, style) is in the message.
      EXPECT_EQ(e.index(), 0u);
      const std::string msg = e.what();
      EXPECT_NE(msg.find("trace 0"), std::string::npos) << msg;
      EXPECT_NE(msg.find("class"), std::string::npos) << msg;
      EXPECT_NE(msg.find("Unprotected"), std::string::npos) << msg;
      // The root cause is nested and recoverable.
      expectNestedDecodeCause(e);
    }
  }
}

TEST(AcquisitionErrors, FailureInsideLaneGroupIsPinnedOnItsTrace) {
  // Only class 9 is broken: the batch engine simulates two 64-lane groups
  // and must blame the first class-9 trace, exactly like the reference
  // engine, which fails on that very trace. One worker, so the lowest
  // failing trace is always reached (with several, a later shard's
  // failure may abort the first before it gets there).
  const BrokenSbox sbox(/*brokenValue=*/9);
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 8;  // 128 traces
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  const std::size_t first = static_cast<std::size_t>(
      std::find(schedule.begin(), schedule.end(), 9) - schedule.begin());
  ASSERT_GT(first % 64, 0u) << "first class-9 trace must not open a group";

  cfg.numThreads = 1;
  for (SimEngine engine : {SimEngine::Auto, SimEngine::Reference}) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)));
    cfg.engine = engine;
    EventSim sim(sbox.netlist(), dm);
    try {
      (void)acquire(sbox, sim, power, cfg);
      FAIL() << "decode mismatch must abort acquisition";
    } catch (const WorkerError& e) {
      EXPECT_EQ(e.index(), first);
      const std::string msg = e.what();
      EXPECT_NE(msg.find("trace " + std::to_string(first) + " (class 9"),
                std::string::npos)
          << msg;
      expectNestedDecodeCause(e);
    }
  }
}

TEST(AcquisitionErrors, KeyedWorkerErrorNamesPlaintext) {
  // Keyed traces get the same decode sanity check as balanced ones: the
  // broken netlist never computes S(plain ^ key), so trace 0 fails, and
  // the error names its plaintext — the first draw of the trace's stream.
  const BrokenSbox sbox;
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());
  const std::uint64_t seed = 3;
  const int plain = Prng(deriveStreamSeed(seed, 0)).nibble();
  for (SimEngine engine : {SimEngine::Auto, SimEngine::Reference}) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)));
    EventSim sim(sbox.netlist(), dm);
    try {
      (void)acquireKeyed(sbox, sim, power, /*key=*/0x6, /*numTraces=*/16,
                         seed, /*numThreads=*/1, engine);
      FAIL() << "decode mismatch must abort keyed acquisition";
    } catch (const WorkerError& e) {
      EXPECT_EQ(e.index(), 0u);
      const std::string msg = e.what();
      EXPECT_NE(msg.find("trace 0"), std::string::npos) << msg;
      EXPECT_NE(msg.find("plaintext " + std::to_string(plain)),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("Unprotected"), std::string::npos) << msg;
      expectNestedDecodeCause(e);
    }
  }
}

TEST(AcquisitionErrors, ParallelFailurePrefersLowestIndex) {
  const BrokenSbox sbox;
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());

  AcquisitionConfig cfg;
  cfg.tracesPerClass = 2;  // 32 traces
  for (SimEngine engine : {SimEngine::Auto, SimEngine::Reference}) {
    for (std::uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                   ", " + std::to_string(threads) + " threads");
      cfg.engine = engine;
      cfg.numThreads = threads;
      EventSim sim(sbox.netlist(), dm);
      try {
        (void)acquire(sbox, sim, power, cfg);
        FAIL() << "decode mismatch must abort acquisition";
      } catch (const WorkerError& e) {
        // Every trace fails. Workers skip only work that cannot hold a
        // trace below the lowest failure recorded so far, so trace 0 is
        // always reached and reported, whatever the thread timing.
        EXPECT_EQ(e.index(), 0u);
        EXPECT_NE(std::string(e.what()).find("trace 0 "), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(AcquisitionErrors, FailureInsideLaneGroupIsPinnedOnItsTraceOn4Threads) {
  // The 4-thread form of FailureInsideLaneGroupIsPinnedOnItsTrace: only
  // class 9 is broken, over 512 traces (8 lane groups packed by stimulus,
  // so class-9 lanes spread over several groups run by different
  // workers). The reported failure must still be exactly the first
  // class-9 trace, as on the reference engine.
  const BrokenSbox sbox(/*brokenValue=*/9);
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 32;
  cfg.numThreads = 4;
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  const std::size_t first = static_cast<std::size_t>(
      std::find(schedule.begin(), schedule.end(), 9) - schedule.begin());
  for (SimEngine engine : {SimEngine::Auto, SimEngine::Reference}) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)));
    cfg.engine = engine;
    for (int rep = 0; rep < 3; ++rep) {
      EventSim sim(sbox.netlist(), dm);
      try {
        (void)acquire(sbox, sim, power, cfg);
        FAIL() << "decode mismatch must abort acquisition";
      } catch (const WorkerError& e) {
        EXPECT_EQ(e.index(), first);
        const std::string msg = e.what();
        EXPECT_NE(msg.find("trace " + std::to_string(first) + " (class 9"),
                  std::string::npos)
            << msg;
        expectNestedDecodeCause(e);
      }
    }
  }
}

TEST(ShardedPool, AbortStopsDoomedWorkersEarly) {
  // Worker 0 fails instantly on item 0; the other shards observe the abort
  // flag and skip most of their items rather than running to completion.
  std::atomic<std::size_t> executed{0};
  try {
    detail::shardedFor(
        1000, 4,
        [&](std::uint32_t, std::size_t i) {
          if (i == 0) throw std::runtime_error("boom");
          ++executed;
        },
        [](std::size_t i) { return "item " + std::to_string(i); });
    FAIL() << "failure must propagate";
  } catch (const WorkerError& e) {
    EXPECT_EQ(e.index(), 0u);
    EXPECT_NE(std::string(e.what()).find("item 0"), std::string::npos);
  }
  // Not a timing guarantee, but with the flag checked before every item the
  // pool cannot have run the full remaining 999.
  EXPECT_LT(executed.load(), 999u);
}

}  // namespace
}  // namespace lpa
