#pragma once
// Crash-safe acquisition checkpoints (DESIGN.md §12): an append-only log
// of the committed groups of one resilient acquisition (jobs/resilient.h).
//
// ## Layout (host byte order)
//
//   header   magic "LPACKPT3", fingerprint u64, seed u64, numSamples u32,
//            groupTraces u32, totalTraces u64, then the FNV-1a of those
//            40 bytes as u64 (48 bytes in all)
//   group g  traces [g*groupTraces, min((g+1)*groupTraces, totalTraces)),
//            each a label byte then numSamples doubles, then the group's
//            digest (jobs/trace_digest.h digestOfRange) as u64
//
// Every record size follows from the header, so the file carries no
// length or count fields. The fingerprint binds the file to one logical
// run (netlist structure, seed, protocol knobs — NOT engine or thread
// count, because resuming under a different engine or thread count must
// be legal and bit-identical). It holds no estimator state: the estimate
// is a pure function of the traces in index order, so a resume re-folds
// them.
//
// ## Crash model
//
// startCheckpoint() replaces the file with a bare header through
// obs::atomicWriteFile (temp + fsync + rename). appendCheckpointGroup()
// appends one record and fsyncs it before returning (obs::durableAppend),
// so a kill can tear only the last record. loadCheckpoint() adopts the
// longest run of whole records whose digests verify: a torn or corrupt
// tail only ends the prefix, and the writer cuts it away
// (obs::durableTruncate to Checkpoint::bytes) before appending again. A
// damaged header makes the whole file load as absent.
//
// The format is a same-machine artifact, not an interchange format: a
// checkpoint is consumed by the process lineage that wrote it. A file of
// another format version fails the magic check and loads as absent, so
// the run starts fresh.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "jobs/trace_digest.h"
#include "trace/trace_set.h"

namespace lpa::jobs {

/// On-disk magic: 8 bytes at offset 0. The digit is the layout version;
/// a file of any other version loads as absent.
inline constexpr char kCheckpointMagic[8] = {'L', 'P', 'A', 'C',
                                             'K', 'P', 'T', '3'};

/// The run a checkpoint belongs to and the geometry of its records.
struct CheckpointHeader {
  /// acquisitionFingerprint() (jobs/resilient.h) over netlist digest +
  /// protocol config; a resume adopts only a file whose header equals
  /// the run's.
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
  std::uint32_t numSamples = 0;
  /// Traces per group: the fixed-schedule slice, or the adaptive batch.
  std::uint32_t groupTraces = 0;
  /// The budget; the last group holds what is left of it.
  std::uint64_t totalTraces = 0;

  bool operator==(const CheckpointHeader&) const = default;
};

/// The verified prefix of a checkpoint file.
struct Checkpoint {
  CheckpointHeader header;
  std::uint64_t completedGroups = 0;
  /// Length of the header plus the adopted records: where the next
  /// record goes once a torn or corrupt tail is cut away.
  std::uint64_t bytes = 0;
  /// "g<k>/<n>:<digest of groups 0..k-1>" for k = 1..completedGroups, n
  /// being the group count of the whole budget.
  std::vector<std::string> lineage;
  /// Running digest of `traces`, which the next lineage entry extends.
  DigestAccumulator prefix;
  /// The adopted traces (completedGroups whole groups).
  TraceSet traces{0};
};

/// "g<k>/<n>:<hex of prefix>": a lineage entry after k committed groups.
std::string lineageEntry(std::uint64_t k, std::uint64_t n,
                         const DigestAccumulator& prefix);

/// Atomically replaces `path` with a header and no records; throws
/// std::runtime_error on IO failure.
void startCheckpoint(const std::string& path, const CheckpointHeader& header);

/// Durably appends the record of the group held in traces [begin, end) of
/// `ts`; throws std::runtime_error on IO failure.
void appendCheckpointGroup(const std::string& path, const TraceSet& ts,
                           std::size_t begin, std::size_t end);

/// Loads the verified prefix of `path`. Returns std::nullopt when the file
/// is missing or its header is short, of another version, or corrupt; if
/// `whyNot` is non-null it receives the reason ("" on success).
std::optional<Checkpoint> loadCheckpoint(const std::string& path,
                                         std::string* whyNot = nullptr);

}  // namespace lpa::jobs
