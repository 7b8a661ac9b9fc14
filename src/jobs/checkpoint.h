#pragma once
// Crash-safe acquisition checkpoints (DESIGN.md §12).
//
// A checkpoint is a point-in-time snapshot of a resilient acquisition
// (jobs/resilient.h) taken at a group boundary: the committed trace
// prefix, the per-group digests, and a config fingerprint binding the file
// to one logical run (netlist structure, seed, protocol knobs — NOT engine
// or thread count, because resuming under a different engine or thread
// count must be legal and bit-identical). It holds no estimator state: the
// estimate is a pure function of the traces in index order, so a resume
// re-folds them.
//
// ## Crash model
//
// saveCheckpoint() goes through obs::atomicWriteFile (write temp + fsync
// + rename), so at any kill point the path holds either the previous
// complete checkpoint or the new one — never a torn mix. loadCheckpoint()
// additionally verifies a whole-file FNV checksum and every size field
// before allocating, so a corrupt or truncated file yields std::nullopt
// (with a reason) instead of UB or an OOM from a garbage length.
//
// The format is a same-machine artifact (host byte order), not an
// interchange format: a checkpoint is consumed by the process lineage
// that wrote it. A file of another format version fails the magic check
// and loads as absent, so the run starts fresh.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace_set.h"

namespace lpa::jobs {

/// On-disk magic: 8 bytes at offset 0. The digit is the layout version;
/// a file of any other version loads as absent.
inline constexpr char kCheckpointMagic[8] = {'L', 'P', 'A', 'C',
                                             'K', 'P', 'T', '2'};

struct Checkpoint {
  /// Binds the file to one logical run: acquisitionFingerprint()
  /// (jobs/resilient.h) over netlist digest + protocol config. Loads
  /// whose fingerprint differs are rejected by the resilient runner.
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
  std::uint32_t numSamples = 0;
  /// Traces per checkpoint group (fixed-schedule runs) or the adaptive
  /// batch size (adaptive runs).
  std::uint32_t groupTraces = 0;
  std::uint64_t groupsTotal = 0;
  std::uint64_t completedGroups = 0;
  /// FNV digest of each committed group's trace slice, in group order
  /// (jobs/trace_digest.h). Verified against the reloaded traces on
  /// resume, so silent corruption of the payload is caught even though
  /// the checksum already covers it — the digests also feed the
  /// checkpoint_lineage audit trail in the run report.
  std::vector<std::uint64_t> groupDigests;
  /// Human-auditable lineage: one "g<k>/<n>:<digest>" entry per
  /// checkpoint written in this run's history (grows across resumes).
  std::vector<std::string> lineage;
  /// The committed trace prefix (completedGroups groups).
  TraceSet traces{0};
};

/// Atomically replaces `path` with the serialized checkpoint; throws
/// std::runtime_error on IO failure.
void saveCheckpoint(const std::string& path, const Checkpoint& cp);

/// Loads and fully verifies `path`. Returns std::nullopt when the file is
/// missing, torn, checksum-corrupt, or structurally invalid; if `whyNot`
/// is non-null it receives the reason ("" on success).
std::optional<Checkpoint> loadCheckpoint(const std::string& path,
                                         std::string* whyNot = nullptr);

}  // namespace lpa::jobs
