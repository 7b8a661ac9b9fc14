#pragma once
// Live run-status heartbeat: a small JSON file, atomically replaced (write
// temp + fsync + rename via obs/fsio.h) at most once per interval, so an
// external watcher — the telemetry server's `GET /status`, the dashboard's
// --live mode, or plain `watch cat` — can observe a long acquisition
// without touching its stdout or its run report. The file is the durable
// channel (crash-safe, pollable, trivially shippable off-box); every
// written payload is also handed to an optional in-process sink
// (setOnWrite), which is how obs/telemetry_server.h serves the identical
// document over HTTP from memory. An empty path selects memory-only mode:
// no file IO at all, beats only feed the sink.
//
// Schema "lpa-heartbeat/2" (validated by the CI smoke job; tools accept
// only /2):
//
//   {
//     "schema": "lpa-heartbeat/2",
//     "name": "<run name>",
//     "pid": <number>,
//     "timestamp_unix": <seconds>,
//     "status": "running" | "completed" | "failed" | ...,
//     "phase": "<current progress label>",
//     "done": <number>, "total": <number>,
//     "rate_per_sec": <number>, "eta_sec": <number, -1 unknown>,
//     "elapsed_sec": <number>,
//     "stop_reason": "<why a finished run stopped>",   // "" running
//     "lineage_id": "<resume lineage>"                 // "" fresh run
//   }
//
// stop_reason tells a watcher *why* a run stopped ("completed",
// "deadline", "aborted", ...), not just *that* it did; lineage_id carries
// the checkpoint's resume lineage, so every heartbeat of one logical
// campaign is attributable across process restarts.
//
// Beats ride the existing ProgressFn plumbing (bench_util.h chains one in
// under --heartbeat / --listen), so the rate/ETA shown are the
// EWMA-smoothed numbers the stderr progress line prints. IO failures are
// reported to stderr once and otherwise swallowed — a heartbeat must never
// kill the run.

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace lpa::obs {

class Heartbeat {
 public:
  /// `minIntervalSec` rate-limits beat(); finish() always writes. An empty
  /// `path` means memory-only: nothing is written to disk, payloads go to
  /// the setOnWrite sink only.
  Heartbeat(std::string path, std::string runName,
            double minIntervalSec = 1.0);

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  static const char* schemaId() { return "lpa-heartbeat/2"; }

  /// Publishes a "running" heartbeat (rate-limited; thread-safe).
  void beat(const std::string& phase, std::uint64_t done, std::uint64_t total,
            double ratePerSec, double etaSec);

  /// Publishes a final heartbeat with the given status ("completed",
  /// "failed", ...) carrying the last observed phase/progress. First call
  /// wins: later finishes (e.g. the generic scope-exit one) are no-ops, so
  /// a specific final status is never overwritten.
  void finish(const std::string& status);

  /// Why a finished run stopped ("completed", "deadline", "aborted",
  /// "sim-diverged", ...). Shown by /2 payloads from the next write on;
  /// typically set just before finish(). Thread-safe.
  void setStopReason(const std::string& reason);

  /// Resume-lineage identifier (the checkpoint lineage this run continues,
  /// "" for a fresh run). Thread-safe.
  void setLineageId(const std::string& lineage);

  /// Sink receiving every written payload (one complete /2 JSON line,
  /// without trailing newline) under the heartbeat's lock — keep it cheap.
  /// The telemetry server's updateStatus hooks in here. Pass nullptr to
  /// detach.
  void setOnWrite(std::function<void(const std::string&)> sink);

 private:
  void write(const std::string& status, const std::string& phase,
             std::uint64_t done, std::uint64_t total, double ratePerSec,
             double etaSec);

  std::string path_;
  std::string name_;
  double minIntervalSec_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  double lastWriteSec_ = -1e18;  // under mu_
  bool warned_ = false;          // under mu_: stderr-warn on first IO failure
  bool finished_ = false;        // under mu_: finish() ran (first wins)
  std::string lastPhase_;        // under mu_
  std::uint64_t lastDone_ = 0;   // under mu_
  std::uint64_t lastTotal_ = 0;  // under mu_
  std::string stopReason_;       // under mu_
  std::string lineageId_;        // under mu_
  std::function<void(const std::string&)> onWrite_;  // under mu_
};

}  // namespace lpa::obs
