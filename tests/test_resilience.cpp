// Tier-1 tests for the durability layer (jobs/): checkpoint file format,
// acquireRange slicing, crash-safe checkpoint/resume (including a real
// SIGKILL kill-harness), deadlines, retry/escalation, and engine
// quarantine. A checkpoint holds traces, not estimator state, so every
// resume test compares the whole LeakageEstimate, bit for bit, with the
// uninterrupted run's: that is what shows the re-fold on resume performs
// the uninterrupted run's arithmetic.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <csignal>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "jobs/checkpoint.h"
#include "jobs/resilient.h"
#include "jobs/trace_digest.h"
#include "obs/event_journal.h"
#include "obs/run_report.h"
#include "stats/report.h"
#include "trace/acquisition.h"
#include "trace_set_match.h"

namespace lpa {
namespace {

std::string tmpPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Cheap fixed-schedule operating point: OPT netlist, 8 traces/class
/// (128 traces), uneven 48-trace groups (exercises the partial last
/// group).
ExperimentConfig smallConfig() {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 8;
  cfg.acquisition.numThreads = 1;
  return cfg;
}

constexpr stats::StreamingLeakage::Options kFourFolds{
    EstimatorMode::Debiased, /*numFolds=*/4, 0.95};

/// Success iff every field of two estimates (totals, every CI, the per-u
/// coefficients) has the same bit pattern.
::testing::AssertionResult sameEstimate(const stats::LeakageEstimate& a,
                                        const stats::LeakageEstimate& b) {
  const auto differs = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(y);
  };
  const auto ciDiffers = [&](const stats::AggregateCi& x,
                             const stats::AggregateCi& y) {
    return differs(x.estimate, y.estimate) ||
           differs(x.halfWidth, y.halfWidth) ||
           differs(x.relHalfWidth, y.relHalfWidth);
  };
  if (a.traces != b.traces || a.minClassCount != b.minClassCount ||
      a.mode != b.mode || differs(a.confidence, b.confidence)) {
    return ::testing::AssertionFailure()
           << "traces " << a.traces << " vs " << b.traces << ", min class "
           << a.minClassCount << " vs " << b.minClassCount;
  }
  if (differs(a.total, b.total) || differs(a.singleBit, b.singleBit) ||
      differs(a.multiBit, b.multiBit) ||
      differs(a.singleBitRatio, b.singleBitRatio)) {
    return ::testing::AssertionFailure()
           << "point estimates differ: total " << a.total << " vs "
           << b.total;
  }
  if (ciDiffers(a.totalCi, b.totalCi) ||
      ciDiffers(a.singleBitCi, b.singleBitCi) ||
      ciDiffers(a.multiBitCi, b.multiBitCi)) {
    return ::testing::AssertionFailure()
           << "aggregate CIs differ: total +-" << a.totalCi.halfWidth
           << " vs +-" << b.totalCi.halfWidth;
  }
  if (a.coefficients.size() != b.coefficients.size()) {
    return ::testing::AssertionFailure()
           << a.coefficients.size() << " vs " << b.coefficients.size()
           << " coefficients";
  }
  for (std::size_t u = 0; u < a.coefficients.size(); ++u) {
    if (differs(a.coefficients[u].energy, b.coefficients[u].energy) ||
        differs(a.coefficients[u].halfWidth, b.coefficients[u].halfWidth)) {
      return ::testing::AssertionFailure()
             << "coefficient u=" << u << ": " << a.coefficients[u].energy
             << " +-" << a.coefficients[u].halfWidth << " vs "
             << b.coefficients[u].energy << " +-"
             << b.coefficients[u].halfWidth;
    }
  }
  return ::testing::AssertionSuccess();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void appendU64(std::string& bytes, std::uint64_t v) {
  bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Appends the whole-file checksum a checkpoint closes with.
void appendChecksum(std::string& bytes) {
  appendU64(bytes, jobs::digestOfBytes(bytes.data(), bytes.size()));
}

// ---------------------------------------------------------------- slicing

TEST(AcquireRange, SlicesConcatenateToFullAcquire) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const Netlist& nl = exp.sbox().netlist();
  const DelayModel delays(nl, ecfg.delay);
  const PowerModel power(nl, ecfg.power);
  EventSim sim(nl, delays, ecfg.sim);

  const AcquisitionConfig& cfg = ecfg.acquisition;
  const TraceSet full = acquireRange(exp.sbox(), sim, power, cfg, 0, 128);
  EXPECT_TRUE(sameTraceSet(full, acquire(exp.sbox(), sim, power, cfg)));

  // Re-acquire in three uneven slices, mixing engines per slice.
  AcquisitionConfig c1 = cfg;
  c1.engine = SimEngine::Reference;
  TraceSet got = acquireRange(exp.sbox(), sim, power, c1, 0, 50);
  AcquisitionConfig c2 = cfg;
  c2.engine = SimEngine::Auto;
  got.append(acquireRange(exp.sbox(), sim, power, c2, 50, 51));
  AcquisitionConfig c3 = cfg;
  c3.engine = SimEngine::Batch;
  got.append(acquireRange(exp.sbox(), sim, power, c3, 51, 128));

  EXPECT_TRUE(sameTraceSet(got, full));
  EXPECT_EQ(acquireRange(exp.sbox(), sim, power, cfg, 7, 7).size(), 0u);
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, cfg, 10, 9),
               std::invalid_argument);
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, cfg, 0, 129),
               std::invalid_argument);
  AcquisitionConfig bad = cfg;
  bad.adaptive = true;
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, bad, 0, 16),
               std::invalid_argument);
}

// ----------------------------------------------------------- checkpoints

// Three groups of 2, 2 and 1 traces (the last one partial), 3 samples
// each.
constexpr jobs::CheckpointHeader kSampleHeader{0xFEEDFACE12345678ULL, 42,
                                               /*numSamples=*/3,
                                               /*groupTraces=*/2,
                                               /*totalTraces=*/5};
constexpr std::size_t kHeaderBytes = 48;

TraceSet sampleTraces() {
  TraceSet ts(3);
  ts.add(4, {1.0, 2.0, 3.0});
  ts.add(9, {0.5, -0.25, 1e-12});
  ts.add(0, {0.0, 0.0, 7.0});
  ts.add(15, {-1.0, 2.5, 3.5});
  ts.add(7, {-0.0, 1e300, -2.0});
  return ts;
}

/// Bytes of the record of a group of `traces` traces: a label byte and
/// the samples per trace, then the group digest.
std::size_t recordBytes(std::size_t traces, std::uint32_t numSamples) {
  return traces * (1 + numSamples * sizeof(double)) + sizeof(std::uint64_t);
}

/// Writes the sample checkpoint with all three groups; returns the file
/// length after the header and after each record.
std::vector<std::size_t> writeSampleCheckpoint(const std::string& path) {
  jobs::startCheckpoint(path, kSampleHeader);
  std::vector<std::size_t> ends{readFile(path).size()};
  const TraceSet ts = sampleTraces();
  for (std::size_t begin = 0; begin < ts.size(); begin += 2) {
    jobs::appendCheckpointGroup(path, ts, begin,
                                std::min<std::size_t>(begin + 2, ts.size()));
    ends.push_back(readFile(path).size());
  }
  return ends;
}

/// Checks that `cp` holds exactly the first `groups` sample groups.
void expectSamplePrefix(const jobs::Checkpoint& cp, std::size_t groups,
                        std::size_t bytes) {
  const TraceSet all = sampleTraces();
  const std::size_t n = std::min<std::size_t>(2 * groups, all.size());
  TraceSet expected(3);
  jobs::DigestAccumulator prefix;
  std::vector<std::string> lineage;
  for (std::size_t k = 1; k <= groups; ++k) {
    prefix.addRange(all, 2 * (k - 1), std::min<std::size_t>(2 * k, n));
    lineage.push_back(jobs::lineageEntry(k, 3, prefix));
  }
  for (std::size_t i = 0; i < n; ++i) {
    expected.add(all.label(i),
                 std::vector<double>(all.trace(i), all.trace(i) + 3));
  }
  EXPECT_TRUE(cp.header == kSampleHeader);
  EXPECT_EQ(cp.completedGroups, groups);
  EXPECT_EQ(cp.bytes, bytes);
  EXPECT_EQ(cp.lineage, lineage);
  EXPECT_EQ(cp.prefix.value(), prefix.value());
  EXPECT_TRUE(sameTraceSet(cp.traces, expected));
}

TEST(Checkpoint, SaveLoadRoundTrips) {
  const std::string path = tmpPath("lpa_ckpt_roundtrip.bin");
  const std::vector<std::size_t> ends = writeSampleCheckpoint(path);
  ASSERT_EQ(ends.size(), 4u);
  EXPECT_EQ(ends[0], kHeaderBytes);
  for (std::size_t k = 1; k < ends.size(); ++k) {
    EXPECT_EQ(ends[k] - ends[k - 1], recordBytes(k < 3 ? 2 : 1, 3)) << k;
  }

  std::string whyNot = "unset";
  const auto back = jobs::loadCheckpoint(path, &whyNot);
  ASSERT_TRUE(back.has_value()) << whyNot;
  EXPECT_EQ(whyNot, "");
  expectSamplePrefix(*back, 3, ends.back());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsAbsent) {
  std::string whyNot;
  EXPECT_FALSE(
      jobs::loadCheckpoint(tmpPath("lpa_ckpt_missing.bin"), &whyNot));
  EXPECT_EQ(whyNot, "no checkpoint file");
}

// Only header damage makes a file load as absent: any flipped header byte
// (magic, a field, or the checksum), or bytes after the magic that are
// not a header.
TEST(Checkpoint, TornAndCorruptFilesRejected) {
  const std::string path = tmpPath("lpa_ckpt_torn.bin");
  writeSampleCheckpoint(path);
  const std::string bytes = readFile(path);
  std::string whyNot;
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x01;
    writeFile(path, corrupt);
    EXPECT_FALSE(jobs::loadCheckpoint(path, &whyNot)) << "byte " << i;
    EXPECT_NE(whyNot, "") << "byte " << i;
  }

  writeFile(path, std::string(jobs::kCheckpointMagic,
                              sizeof(jobs::kCheckpointMagic)) +
                      std::string(64, '?'));
  EXPECT_FALSE(jobs::loadCheckpoint(path, &whyNot));
  EXPECT_EQ(whyNot, "header checksum mismatch");
  std::remove(path.c_str());
}

// A crash can tear only the last append, so every cut of the file must
// load as the whole records before the cut, and a cut inside the header
// as absent.
TEST(Checkpoint, EveryTruncationLoadsTheWholeRecordsThatFit) {
  const std::string path = tmpPath("lpa_ckpt_truncations.bin");
  const std::vector<std::size_t> ends = writeSampleCheckpoint(path);
  const std::string bytes = readFile(path);
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    writeFile(path, bytes.substr(0, len));
    std::string whyNot;
    const auto cp = jobs::loadCheckpoint(path, &whyNot);
    if (len < kHeaderBytes) {
      EXPECT_FALSE(cp) << len;
      EXPECT_EQ(whyNot, "file too short for a header") << len;
      continue;
    }
    ASSERT_TRUE(cp) << len << ": " << whyNot;
    std::size_t groups = 0;
    while (groups + 1 < ends.size() && ends[groups + 1] <= len) ++groups;
    SCOPED_TRACE("length " + std::to_string(len));
    expectSamplePrefix(*cp, groups, ends[groups]);
  }
  std::remove(path.c_str());
}

// Every byte of a record is under its digest (or is the digest), so one
// flipped byte in record k adopts exactly groups 0..k-1.
TEST(Checkpoint, FlippedRecordByteAdoptsTheGroupsBefore) {
  const std::string path = tmpPath("lpa_ckpt_flips.bin");
  const std::vector<std::size_t> ends = writeSampleCheckpoint(path);
  const std::string bytes = readFile(path);
  for (std::size_t k = 0; k + 1 < ends.size(); ++k) {
    for (std::size_t i = ends[k]; i < ends[k + 1]; ++i) {
      for (const char mask : {'\x01', '\x80'}) {
        std::string corrupt = bytes;
        corrupt[i] ^= mask;
        writeFile(path, corrupt);
        const auto cp = jobs::loadCheckpoint(path);
        ASSERT_TRUE(cp) << "byte " << i;
        SCOPED_TRACE("record " + std::to_string(k) + " byte " +
                     std::to_string(i));
        expectSamplePrefix(*cp, k, ends[k]);
      }
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- resilient runner

TEST(ResilientAcquire, MatchesPlainAcquire) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const TraceSet expected = plain.acquireAt(0.0);

  jobs::JobConfig job;
  job.groupTraces = 48;  // 128 traces -> groups of 48/48/32
  job.statsOpt = kFourFolds;
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(sameTraceSet(res.traces, expected));
  EXPECT_EQ(res.resilience.stopReason, "completed");
  EXPECT_FALSE(res.resilience.truncated);
  EXPECT_FALSE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsTotal, 3u);
  EXPECT_EQ(res.resilience.groupsCompleted, 3u);
  EXPECT_EQ(res.resilience.retries, 0u);

  // The estimate is the streaming fold of exactly these traces.
  stats::StreamingLeakage stream(expected.numSamples(), kFourFolds);
  stream.addTraceSet(expected);
  EXPECT_EQ(res.estimate.total, stream.estimate().total);
}

// On RSM, whose traces vary within a class (OPT's do not), so the
// estimate's bits depend on the order the resume folds the traces in.
TEST(ResilientAcquire, DrainStopAndResumeBitIdentical) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Rsm, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));
  jobs::JobConfig uninterrupted;
  uninterrupted.groupTraces = 32;
  uninterrupted.statsOpt = kFourFolds;
  const stats::LeakageEstimate expectedEstimate =
      plain.resilientAcquireAt(0.0, uninterrupted).estimate;
  ASSERT_TRUE(expectedEstimate.totalCi.resolved());

  const SimEngine engines[] = {SimEngine::Reference, SimEngine::Batch};
  for (SimEngine firstEngine : engines) {
    for (std::uint32_t threads : {1u, 2u}) {
      const std::string path = tmpPath(
          "lpa_resume_" + std::to_string(static_cast<int>(firstEngine)) +
          "_" + std::to_string(threads) + ".ckpt");
      jobs::JobConfig job;
      job.checkpointPath = path;
      job.groupTraces = 32;  // 4 groups
      job.statsOpt = kFourFolds;
      job.stopAfterGroups = 2;

      ExperimentConfig cfg = ecfg;
      cfg.acquisition.engine = firstEngine;
      cfg.acquisition.numThreads = threads;
      SboxExperiment first(SboxStyle::Rsm, cfg);
      const jobs::ResilientResult half = first.resilientAcquireAt(0.0, job);
      EXPECT_TRUE(half.resilience.truncated);
      EXPECT_EQ(half.resilience.stopReason, "drain");
      EXPECT_EQ(half.resilience.groupsCompleted, 2u);
      EXPECT_EQ(half.traces.size(), 64u);

      // Resume under a *different* engine and thread count: the result
      // must still be bit-identical to the uninterrupted run.
      jobs::JobConfig rest = job;
      rest.stopAfterGroups = 0;
      ExperimentConfig cfg2 = ecfg;
      cfg2.acquisition.engine = firstEngine == SimEngine::Reference
                                    ? SimEngine::Batch
                                    : SimEngine::Reference;
      cfg2.acquisition.numThreads = threads == 1 ? 2 : 1;
      SboxExperiment second(SboxStyle::Rsm, cfg2);
      const jobs::ResilientResult full = second.resilientAcquireAt(0.0, rest);
      EXPECT_TRUE(full.resilience.resumed);
      EXPECT_FALSE(full.resilience.truncated);
      EXPECT_EQ(full.resilience.stopReason, "completed");
      EXPECT_EQ(full.resilience.groupsCompleted, 4u);
      EXPECT_EQ(jobs::digestOfTraceSet(full.traces), expected)
          << "engine " << static_cast<int>(firstEngine) << " threads "
          << threads;
      EXPECT_TRUE(sameEstimate(full.estimate, expectedEstimate))
          << "engine " << static_cast<int>(firstEngine) << " threads "
          << threads;
      // Lineage accumulated across both sessions.
      EXPECT_GE(full.resilience.lineage.size(), 4u);
      std::remove(path.c_str());
    }
  }
}

TEST(ResilientAcquire, ForeignCheckpointIsIgnored) {
  ExperimentConfig ecfg = smallConfig();
  const std::string path = tmpPath("lpa_resume_foreign.ckpt");
  jobs::JobConfig job;
  job.checkpointPath = path;
  job.groupTraces = 32;
  job.stopAfterGroups = 2;
  SboxExperiment first(SboxStyle::Opt, ecfg);
  (void)first.resilientAcquireAt(0.0, job);

  // Same path, different seed: the checkpoint must not be adopted.
  ExperimentConfig other = ecfg;
  other.acquisition.seed = 0x1234;
  jobs::JobConfig job2 = job;
  job2.stopAfterGroups = 0;
  SboxExperiment second(SboxStyle::Opt, other);
  const jobs::ResilientResult res = second.resilientAcquireAt(0.0, job2);
  EXPECT_FALSE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsCompleted, 4u);

  SboxExperiment plain(SboxStyle::Opt, other);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
            jobs::digestOfTraceSet(plain.acquireAt(0.0)));
  std::remove(path.c_str());
}

// A checkpoint of the earlier snapshot format (`LPACKPT2`: geometry,
// group digests, lineage and every committed trace, closed by a
// whole-file checksum), even one of this very run, fails the magic check;
// the run starts fresh and replaces it with a current log.
TEST(ResilientAcquire, ParentFormatCheckpointIsIgnored) {
  ExperimentConfig ecfg = smallConfig();
  const std::string path = tmpPath("lpa_resume_parent_format.ckpt");
  jobs::JobConfig job;
  job.checkpointPath = path;
  job.groupTraces = 32;
  job.stopAfterGroups = 2;
  SboxExperiment first(SboxStyle::Opt, ecfg);
  (void)first.resilientAcquireAt(0.0, job);
  const auto drained = jobs::loadCheckpoint(path);
  ASSERT_TRUE(drained.has_value());
  ASSERT_EQ(drained->completedGroups, 2u);

  const jobs::CheckpointHeader& h = drained->header;
  const TraceSet& ts = drained->traces;
  std::string bytes = "LPACKPT2";
  appendU64(bytes, h.fingerprint);
  appendU64(bytes, h.seed);
  bytes.append(reinterpret_cast<const char*>(&h.numSamples), 4);
  bytes.append(reinterpret_cast<const char*>(&h.groupTraces), 4);
  appendU64(bytes, 4);  // groups total
  appendU64(bytes, 2);  // completed groups
  appendU64(bytes, 2);  // group digests
  appendU64(bytes, jobs::digestOfRange(ts, 0, 32));
  appendU64(bytes, jobs::digestOfRange(ts, 32, 64));
  appendU64(bytes, drained->lineage.size());
  for (const std::string& entry : drained->lineage) {
    appendU64(bytes, entry.size());
    bytes += entry;
  }
  appendU64(bytes, ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    bytes.push_back(static_cast<char>(ts.label(i)));
    bytes.append(reinterpret_cast<const char*>(ts.trace(i)),
                 ts.numSamples() * sizeof(double));
  }
  appendChecksum(bytes);
  writeFile(path, bytes);
  std::string whyNot;
  EXPECT_FALSE(jobs::loadCheckpoint(path, &whyNot));
  EXPECT_EQ(whyNot, "bad magic");

  jobs::JobConfig rest = job;
  rest.stopAfterGroups = 0;
  SboxExperiment second(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = second.resilientAcquireAt(0.0, rest);
  EXPECT_FALSE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsCompleted, 4u);
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
            jobs::digestOfTraceSet(plain.acquireAt(0.0)));
  const auto current = jobs::loadCheckpoint(path, &whyNot);
  ASSERT_TRUE(current.has_value()) << whyNot;
  EXPECT_EQ(current->completedGroups, 4u);
  EXPECT_EQ(current->bytes, readFile(path).size());
  std::remove(path.c_str());
}

// A checkpoint torn mid-record (a kill during an append, or a lost tail)
// resumes from its whole groups: the torn bytes are cut away before the
// next append, and the traces, the estimate and the final file equal the
// uninterrupted run's.
TEST(ResilientAcquire, TornCheckpointResumesBitIdentically) {
  ExperimentConfig ecfg = smallConfig();
  jobs::JobConfig job;
  job.groupTraces = 32;  // 4 groups
  job.statsOpt = kFourFolds;
  const std::string cleanPath = tmpPath("lpa_resume_torn_clean.ckpt");
  job.checkpointPath = cleanPath;
  SboxExperiment plain(SboxStyle::Rsm, ecfg);
  const jobs::ResilientResult expected = plain.resilientAcquireAt(0.0, job);

  const std::string path = tmpPath("lpa_resume_torn.ckpt");
  job.checkpointPath = path;
  job.stopAfterGroups = 3;
  SboxExperiment first(SboxStyle::Rsm, ecfg);
  (void)first.resilientAcquireAt(0.0, job);
  const std::string bytes = readFile(path);
  writeFile(path, bytes.substr(0, bytes.size() - 100));  // tears group 2
  const auto torn = jobs::loadCheckpoint(path);
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(torn->completedGroups, 2u);

  job.stopAfterGroups = 0;
  SboxExperiment second(SboxStyle::Rsm, ecfg);
  const jobs::ResilientResult res = second.resilientAcquireAt(0.0, job);
  EXPECT_TRUE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsCompleted, 4u);
  EXPECT_TRUE(sameTraceSet(res.traces, expected.traces));
  EXPECT_TRUE(sameEstimate(res.estimate, expected.estimate));
  EXPECT_EQ(res.resilience.lineage, expected.resilience.lineage);
  EXPECT_EQ(readFile(path), readFile(cleanPath));
  std::remove(path.c_str());
  std::remove(cleanPath.c_str());
}

// The checkpoint only ever grows by one record per committed group: the
// bytes seen before group g + 1 start with the bytes seen before group g
// and are exactly one record longer.
TEST(ResilientAcquire, CheckpointGrowsByOneAppendedRecordPerGroup) {
  ExperimentConfig ecfg = smallConfig();
  const std::string path = tmpPath("lpa_resume_append_only.ckpt");
  const std::uint32_t numSamples = ecfg.power.numSamples;
  std::vector<std::string> seen;  // file bytes before each group
  jobs::JobConfig job;
  job.checkpointPath = path;
  job.groupTraces = 48;  // 128 traces -> groups of 48/48/32
  job.beforeGroupHook = [&](std::uint64_t group, std::uint32_t, SimEngine) {
    EXPECT_EQ(group, seen.size());
    seen.push_back(readFile(path));
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);
  seen.push_back(readFile(path));

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].size(), kHeaderBytes);
  for (std::size_t g = 0; g + 1 < seen.size(); ++g) {
    const std::size_t groupSize = g < 2 ? 48 : 32;
    EXPECT_EQ(seen[g + 1].size(),
              seen[g].size() + recordBytes(groupSize, numSamples))
        << "group " << g;
    EXPECT_EQ(seen[g + 1].compare(0, seen[g].size(), seen[g]), 0)
        << "group " << g;
  }
  const auto cp = jobs::loadCheckpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_TRUE(sameTraceSet(cp->traces, res.traces));
  std::remove(path.c_str());
}

TEST(ResilientAcquire, FingerprintExcludesEngineAndThreads) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const PowerModel power(exp.sbox().netlist(), ecfg.power);
  jobs::JobConfig job;

  AcquisitionConfig a = ecfg.acquisition;
  AcquisitionConfig b = a;
  b.engine = SimEngine::Batch;
  b.numThreads = 7;
  b.deadlineMs = 1234;
  b.trapBudget = 1;
  EXPECT_EQ(jobs::acquisitionFingerprint(exp.sbox(), power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), power, b, job));

  AcquisitionConfig c = a;
  c.seed ^= 1;
  EXPECT_NE(jobs::acquisitionFingerprint(exp.sbox(), power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), power, c, job));
  jobs::JobConfig job2;
  job2.groupTraces = job.groupTraces + 16;
  EXPECT_NE(jobs::acquisitionFingerprint(exp.sbox(), power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), power, a, job2));
}

// A checkpoint is adopted only when its fingerprint matches, so the value
// for a fixed exact config is pinned: any change to what the fingerprint
// folds orphans every checkpoint already on disk. OPT, default power,
// 8 traces/class, default JobConfig.
TEST(ResilientAcquire, ExactFingerprintIsPinned) {
  ExperimentConfig ecfg;
  ecfg.acquisition.tracesPerClass = 8;
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const PowerModel power(exp.sbox().netlist(), ecfg.power);
  EXPECT_EQ(jobs::acquisitionFingerprint(exp.sbox(), power, ecfg.acquisition,
                                         jobs::JobConfig{}),
            0x284F6DED1F9D06FCULL);
}

TEST(ResilientAcquire, DeadlineReturnsValidatedPartialReport) {
  ExperimentConfig ecfg = smallConfig();
  ecfg.acquisition.tracesPerClass = 32;  // 512 traces, 4 groups of 128
  ecfg.acquisition.deadlineMs = 500;
  jobs::JobConfig job;
  job.groupTraces = 128;
  job.statsOpt = kFourFolds;
  // Deterministic virtual clock: the deadline trips exactly after two
  // committed groups, never mid-group.
  job.elapsedMsOverride = [](std::uint64_t committed) {
    return committed >= 2 ? 1000.0 : 0.0;
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(res.resilience.truncated);
  EXPECT_EQ(res.resilience.stopReason, "deadline");
  EXPECT_EQ(res.resilience.groupsCompleted, 2u);
  EXPECT_EQ(res.traces.size(), 256u);

  // The partial prefix is the plain run's prefix.
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const TraceSet full = plain.acquireAt(0.0);
  for (std::size_t i = 0; i < res.traces.size(); ++i) {
    ASSERT_EQ(res.traces.label(i), full.label(i));
  }

  // Partial statistics are real: finite CIs from the committed prefix.
  EXPECT_EQ(res.estimate.traces, 256u);
  EXPECT_TRUE(std::isfinite(res.estimate.totalCi.halfWidth));
  EXPECT_GT(res.estimate.total, 0.0);

  // And the run report carrying both blocks validates against /3.
  obs::RunReport report("deadline-partial");
  report.setSeed(ecfg.acquisition.seed);
  report.setMetrics(obs::MetricsRegistry::global().snapshot());
  stats::fillStatistics(report, res.estimate,
                        res.resilience.stopReason.c_str());
  jobs::fillResilience(report, res.resilience);
  report.setDigest(std::string("fnv:") + "0");
  const obs::Json j = report.toJson();
  EXPECT_EQ(obs::RunReport::validate(j), "");
  EXPECT_EQ(j.find("resilience")->find("truncated")->asBool(), true);
  EXPECT_EQ(j.find("resilience")->find("stop_reason")->asString(),
            "deadline");
}

TEST(ResilientAcquire, TransientFailureRetriesBitIdentically) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.baseBackoffMs = 0;
  job.beforeGroupHook = [](std::uint64_t group, std::uint32_t attempt,
                           SimEngine) {
    if (group == 1 && attempt == 0) {
      throw std::runtime_error("transient worker failure");
    }
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
  EXPECT_EQ(res.resilience.retries, 1u);
  EXPECT_EQ(res.resilience.stopReason, "completed");
}

TEST(ResilientAcquire, RetryBudgetEscalatesWithGroupIdentity) {
  ExperimentConfig ecfg = smallConfig();
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.maxAttempts = 3;
  job.retry.baseBackoffMs = 0;
  job.beforeGroupHook = [](std::uint64_t group, std::uint32_t, SimEngine) {
    if (group == 1) throw std::runtime_error("permanent failure");
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  try {
    (void)exp.resilientAcquireAt(0.0, job);
    FAIL() << "expected WorkerError";
  } catch (const WorkerError& e) {
    EXPECT_EQ(e.index(), 1u);
    EXPECT_NE(std::string(e.what()).find("resilient group 1"),
              std::string::npos);
    // The root cause is nested and recoverable.
    bool sawCause = false;
    try {
      std::rethrow_if_nested(e);
    } catch (const std::runtime_error& cause) {
      sawCause =
          std::string(cause.what()).find("permanent failure") !=
          std::string::npos;
    }
    EXPECT_TRUE(sawCause);
  }

  // trapBudget 0: the very first failure escalates, no retries at all.
  jobs::JobConfig strict = job;
  ExperimentConfig tight = ecfg;
  tight.acquisition.trapBudget = 0;
  strict.beforeGroupHook = [](std::uint64_t, std::uint32_t attempt,
                              SimEngine) {
    if (attempt == 0) throw std::runtime_error("one-shot failure");
  };
  SboxExperiment exp2(SboxStyle::Opt, tight);
  EXPECT_THROW((void)exp2.resilientAcquireAt(0.0, strict), WorkerError);
}

TEST(ResilientAcquire, SpotCheckMismatchQuarantinesAndRepairs) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  ExperimentConfig cfg = ecfg;
  cfg.acquisition.engine = SimEngine::Batch;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.spotCheckEveryGroups = 1;  // sample every fast-engine group
  // Model a silently-wrong fast engine: corrupt one sample of every group
  // it produces (the hook sees which engine ran the group).
  job.perturbHook = [](TraceSet& group, std::uint64_t, SimEngine ranWith) {
    if (ranWith == SimEngine::Reference) return;
    TraceSet corrupted(group.numSamples());
    for (std::size_t i = 0; i < group.size(); ++i) {
      std::vector<double> samples(group.trace(i),
                                  group.trace(i) + group.numSamples());
      if (i == 0) samples[0] += 1.0;
      corrupted.add(group.label(i), std::move(samples));
    }
    group = std::move(corrupted);
  };
  SboxExperiment exp(SboxStyle::Opt, cfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  // Group 0's spot-check catches the corruption, quarantines the fast
  // engine, and commits the reference bits; every later group runs under
  // Reference, so the final digest matches the clean run exactly.
  EXPECT_TRUE(res.resilience.quarantined);
  ASSERT_EQ(res.resilience.events.size(), 1u);
  EXPECT_EQ(res.resilience.events[0].group, 0u);
  EXPECT_EQ(res.resilience.events[0].reason, "spot-check-mismatch");
  EXPECT_EQ(res.resilience.spotChecks, 1u);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
}

// Group 0 is repaired by the spot-check and the run drains right after
// it, so the checkpoint holds the repaired bits and the resume's re-fold
// must see exactly those: traces and estimate equal the clean run's.
TEST(ResilientAcquire, DrainAfterRepairedGroupResumesOnRepairedBits) {
  ExperimentConfig ecfg = smallConfig();
  jobs::JobConfig clean;
  clean.groupTraces = 32;
  clean.statsOpt = kFourFolds;
  SboxExperiment plain(SboxStyle::Rsm, ecfg);
  const jobs::ResilientResult expected = plain.resilientAcquireAt(0.0, clean);

  const std::string path = tmpPath("lpa_resume_repaired.ckpt");
  jobs::JobConfig job = clean;
  job.checkpointPath = path;
  job.spotCheckEveryGroups = 1;
  job.stopAfterGroups = 1;
  job.perturbHook = [](TraceSet& group, std::uint64_t, SimEngine ranWith) {
    if (ranWith == SimEngine::Reference) return;
    std::vector<double> samples(group.trace(0),
                                group.trace(0) + group.numSamples());
    samples[0] += 1.0;
    group.set(0, group.label(0), samples.data());
  };
  ExperimentConfig cfg = ecfg;
  cfg.acquisition.engine = SimEngine::Batch;
  SboxExperiment first(SboxStyle::Rsm, cfg);
  const jobs::ResilientResult half = first.resilientAcquireAt(0.0, job);
  ASSERT_EQ(half.resilience.stopReason, "drain");
  ASSERT_EQ(half.resilience.groupsCompleted, 1u);
  ASSERT_EQ(half.resilience.events.size(), 1u);
  EXPECT_EQ(half.resilience.events[0].reason, "spot-check-mismatch");

  // The resumed session starts on the fast engine again, so its groups
  // are repaired the same way.
  job.stopAfterGroups = 0;
  SboxExperiment second(SboxStyle::Rsm, cfg);
  const jobs::ResilientResult res = second.resilientAcquireAt(0.0, job);
  EXPECT_TRUE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsCompleted, 4u);
  EXPECT_TRUE(sameTraceSet(res.traces, expected.traces));
  EXPECT_TRUE(sameEstimate(res.estimate, expected.estimate));
  std::remove(path.c_str());
}

TEST(ResilientAcquire, RepeatedDivergenceQuarantinesEngine) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  ExperimentConfig cfg = ecfg;
  cfg.acquisition.engine = SimEngine::Batch;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.maxAttempts = 4;
  job.retry.baseBackoffMs = 0;
  job.quarantineAfterDivergences = 2;
  // A fast engine that reliably trips the watchdog: quarantine must kick
  // in after two divergences and finish the run under Reference.
  job.beforeGroupHook = [](std::uint64_t, std::uint32_t, SimEngine engine) {
    if (engine != SimEngine::Reference) throw SimDiverged(0, 0.0);
  };
  SboxExperiment exp(SboxStyle::Opt, cfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(res.resilience.quarantined);
  ASSERT_EQ(res.resilience.events.size(), 1u);
  EXPECT_EQ(res.resilience.events[0].reason, "sim-diverged");
  EXPECT_EQ(res.resilience.retries, 2u);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
}

/// Number of acquisition calls journalled since event `since`.
std::size_t acquireCallsSince(std::uint64_t since) {
  const obs::EventJournal& journal = obs::EventJournal::global();
  std::size_t calls = 0;
  for (const obs::JournalEvent& ev :
       journal.tail(static_cast<std::size_t>(journal.emitted() - since))) {
    if (ev.kind == "acquire-start") ++calls;
  }
  return calls;
}

TEST(ResilientAcquire, WindowsSpanGroupsBetweenCheckpoints) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const TraceSet expected = plain.acquireAt(0.0);

  // 128 traces in 11 groups of 12 (the last one of 8). One worker's window
  // floor is 11 groups, so a plain run makes one call; a checkpointed one
  // makes one call per group: 6 before it drains, 5 after it resumes.
  jobs::JobConfig job;
  job.groupTraces = 12;
  job.statsOpt = kFourFolds;
  {
    SboxExperiment exp(SboxStyle::Opt, ecfg);
    const std::uint64_t since = obs::EventJournal::global().emitted();
    const jobs::ResilientResult once = exp.resilientAcquireAt(0.0, job);
    EXPECT_EQ(acquireCallsSince(since), 1u);
    EXPECT_TRUE(sameTraceSet(once.traces, expected));
  }

  const std::string path = tmpPath("lpa_resume_windows.ckpt");
  job.checkpointPath = path;
  job.stopAfterGroups = 6;
  jobs::ResilientResult res;
  for (int session = 0; session < 2; ++session) {
    SboxExperiment exp(SboxStyle::Opt, ecfg);
    const std::uint64_t since = obs::EventJournal::global().emitted();
    res = exp.resilientAcquireAt(0.0, job);
    EXPECT_EQ(acquireCallsSince(since), session == 0 ? 6u : 5u)
        << "session " << session;
    EXPECT_EQ(res.traces.size(), session == 0 ? 72u : 128u);
    job.stopAfterGroups = 0;
  }
  EXPECT_TRUE(sameTraceSet(res.traces, expected));
  EXPECT_EQ(res.resilience.stopReason, "completed");
  stats::StreamingLeakage stream(expected.numSamples(), kFourFolds);
  stream.addTraceSet(expected);
  EXPECT_EQ(res.estimate.total, stream.estimate().total);

  // One lineage entry per committed group, across both sessions: the
  // digest of the prefix that group completes.
  std::vector<std::string> lineage;
  jobs::DigestAccumulator prefix;
  for (std::size_t groups = 1; groups <= 11; ++groups) {
    prefix.addRange(expected, (groups - 1) * 12,
                    std::min<std::size_t>(groups * 12, 128));
    lineage.push_back(jobs::lineageEntry(groups, 11, prefix));
  }
  EXPECT_EQ(res.resilience.lineage, lineage);
  EXPECT_EQ(lineage.back().rfind("g11/11:", 0), 0u);
  std::remove(path.c_str());
}

TEST(ResilientAcquire, DeadlineInsideAWindowDiscardsTheRest) {
  ExperimentConfig ecfg = smallConfig();  // one window of all 4 groups
  ecfg.acquisition.deadlineMs = 500;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.elapsedMsOverride = [](std::uint64_t committed) {
    return committed >= 2 ? 1000.0 : 0.0;
  };
  obs::Counter discarded =
      obs::MetricsRegistry::global().counter("adaptive.traces_discarded");
  const std::uint64_t discarded0 = discarded.value();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);
  EXPECT_EQ(res.resilience.stopReason, "deadline");
  EXPECT_EQ(res.resilience.groupsCompleted, 2u);
  EXPECT_EQ(res.traces.size(), 64u);
  EXPECT_EQ(discarded.value() - discarded0, 64u);
}

// ------------------------------------------------------- SIGKILL harness

TEST(KillHarness, SigkillMidRunResumesBitIdentically) {
  // A fixed run in 32-trace groups, and an adaptive one whose 32-trace
  // batches are its groups and whose target is never met (on RSM: OPT's
  // noise-free classes resolve the CI to ~0): 4 groups each.
  for (const bool adaptive : {false, true}) {
    ExperimentConfig ecfg = smallConfig();
    const SboxStyle style = adaptive ? SboxStyle::Rsm : SboxStyle::Opt;
    if (adaptive) {
      ecfg.acquisition.adaptive = true;
      ecfg.acquisition.batchSize = 32;
      ecfg.acquisition.targetCiRel = 1e-9;
    }
    SboxExperiment plain(style, ecfg);
    const std::uint64_t expected =
        jobs::digestOfTraceSet(plain.acquireAt(0.0));
    jobs::JobConfig uninterrupted;
    uninterrupted.groupTraces = 32;
    const stats::LeakageEstimate expectedEstimate =
        plain.resilientAcquireAt(0.0, uninterrupted).estimate;
    ASSERT_EQ(expectedEstimate.traces, 128u);
    ASSERT_TRUE(expectedEstimate.totalCi.resolved());

    const SimEngine engines[] = {SimEngine::Reference, SimEngine::Batch};
    for (SimEngine engine : engines) {
      for (std::uint32_t threads : {1u, 2u}) {
        const std::string path = tmpPath(
            std::string(adaptive ? "lpa_kill_adaptive_" : "lpa_kill_") +
            std::to_string(static_cast<int>(engine)) + "_" +
            std::to_string(threads) + ".ckpt");

        const pid_t child = fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
          // Child: run with a hook that SIGKILLs the process the moment
          // group 2 starts — groups 0 and 1 are already durably
          // checkpointed, group 2 dies uncommitted.
          jobs::JobConfig job;
          job.checkpointPath = path;
          job.groupTraces = 32;
          job.beforeGroupHook = [](std::uint64_t group, std::uint32_t,
                                   SimEngine) {
            if (group == 2) ::raise(SIGKILL);
          };
          ExperimentConfig cfg = ecfg;
          cfg.acquisition.engine = engine;
          cfg.acquisition.numThreads = threads;
          try {
            SboxExperiment victim(style, cfg);
            (void)victim.resilientAcquireAt(0.0, job);
          } catch (...) {
          }
          ::_exit(3);  // only reached if the SIGKILL never fired
        }

        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status))
            << "child exited with status " << status
            << " instead of dying by signal";
        ASSERT_EQ(WTERMSIG(status), SIGKILL);

        // Parent: resume from the orphaned checkpoint (any engine/threads)
        // and verify bit-identity with the uninterrupted run.
        jobs::JobConfig job;
        job.checkpointPath = path;
        job.groupTraces = 32;
        ExperimentConfig cfg = ecfg;
        cfg.acquisition.engine = engine;
        cfg.acquisition.numThreads = threads;
        SboxExperiment resumer(style, cfg);
        const jobs::ResilientResult res = resumer.resilientAcquireAt(0.0, job);
        EXPECT_TRUE(res.resilience.resumed);
        EXPECT_EQ(res.resilience.groupsCompleted, 4u);
        EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected)
            << (adaptive ? "adaptive" : "fixed") << " engine "
            << static_cast<int>(engine) << " threads " << threads;
        EXPECT_TRUE(sameEstimate(res.estimate, expectedEstimate))
            << (adaptive ? "adaptive" : "fixed") << " engine "
            << static_cast<int>(engine) << " threads " << threads;
        std::remove(path.c_str());
      }
    }
  }
}

}  // namespace
}  // namespace lpa
