#pragma once
// Embedded HTTP/1.1 telemetry server — the live window into a running
// campaign (DESIGN.md §15). Dependency-free POSIX sockets, loopback by
// default, one accept thread plus a small bounded worker pool, and an SSE
// broadcaster thread. Opt-in (benches: `--listen[=port]`, bench_util.h)
// and zero-perturbation: every handler only *reads* — a metrics snapshot
// (relaxed atomics), the in-memory status document, the event-journal
// tail — and no simulation code path ever observes the server, so the
// determinism digests are bit-identical with the server on or off while
// scrapers hammer it (tests/test_telemetry.cpp, CI smoke job).
//
// ## Endpoints
//
//   GET /metrics   Prometheus text exposition of the attached
//                  MetricsRegistry (obs/exposition.h)
//   GET /healthz   liveness JSON: {"status":"ok","name",...,"pid",
//                  "uptime_sec","git"} (git = build-time describe)
//   GET /status    the latest heartbeat document (lpa-heartbeat/2,
//                  obs/heartbeat.h) served from memory — no file reads
//   GET /events    tail of the event journal as lpa-event-journal/1
//                  JSONL; `?n=<count>` bounds the tail (default 256)
//   GET /progress  Server-Sent Events stream of progress updates
//                  ("data: {json}\n\n"), rate-limited, multi-client;
//                  a slow or gone client is dropped, never waited on
//
// Anything else is 404; non-GET is 405. Responses close the connection
// (Connection: close) — scrapers poll, they do not pipeline.
//
// ## Lifecycle
//
// start() binds (port 0 = kernel-assigned ephemeral port, reported by
// port() — how tests avoid collisions), spawns the threads, and returns;
// stop() closes the listener, drains the workers, disconnects SSE
// clients, and joins everything. stop() is idempotent and safe against
// concurrent in-flight requests: a handler mid-response finishes its
// write, a connection accepted during teardown is closed. The destructor
// calls stop().

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace lpa::obs {

struct TelemetryServerOptions {
  /// Loopback by default: the telemetry plane is an operator tool, not a
  /// public surface. Bind wider deliberately (e.g. "0.0.0.0") if needed.
  std::string bindAddress = "127.0.0.1";
  /// 0 = ephemeral (kernel-assigned; read back via port()).
  std::uint16_t port = 0;
  /// Bounded handler pool for the one-shot endpoints.
  unsigned workerThreads = 2;
  /// Minimum spacing between SSE broadcasts; intermediate updates are
  /// coalesced (latest wins), the final update always flushes.
  double sseMinIntervalSec = 0.1;
  /// Re-broadcast the latest event at this cadence when no fresh update
  /// arrives, so late-joining watchers get state promptly and proxies
  /// do not time the stream out. 0 disables.
  double sseKeepaliveSec = 2.0;
  /// Run name reported by /healthz.
  std::string runName = "lpa";
  /// Sources served; default to the process-wide instances.
  MetricsRegistry* registry = nullptr;  // nullptr = MetricsRegistry::global()
  EventJournal* journal = nullptr;      // nullptr = EventJournal::global()
};

class TelemetryServer {
 public:
  explicit TelemetryServer(TelemetryServerOptions opt = {});
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds and starts serving. Throws std::runtime_error on bind/listen
  /// failure (e.g. port in use). Calling start() on a running server is an
  /// error.
  void start();

  /// Graceful shutdown; idempotent. Joins every thread before returning.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the kernel's pick when options.port was 0). Valid
  /// after start().
  std::uint16_t port() const { return boundPort_; }

  /// Replaces the in-memory /status document (a complete heartbeat JSON
  /// line; obs/heartbeat.h mirrors every written payload here).
  void updateStatus(const std::string& heartbeatJson);

  /// Feeds one progress update into the SSE broadcaster: coalesced and
  /// rate-limited (options.sseMinIntervalSec); a final update
  /// (done == total) is never coalesced away. Cheap and non-blocking —
  /// safe to call from a progress sink on the acquisition path.
  void publishProgress(const ProgressUpdate& update);

  /// Connected /progress clients right now (drops are detected on the
  /// next broadcast to a dead/slow client).
  std::size_t sseClients() const;

  /// Requests handled since start (all endpoints, including 404s).
  std::uint64_t requestsServed() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void acceptLoop();
  void workerLoop();
  void broadcastLoop();
  void handleConnection(int fd);
  void dropSseClientsLocked();

  TelemetryServerOptions opt_;
  std::atomic<bool> running_{false};
  int listenFd_ = -1;
  std::uint16_t boundPort_ = 0;
  std::chrono::steady_clock::time_point started_;

  std::thread acceptThread_;
  std::vector<std::thread> workers_;
  std::thread broadcastThread_;

  // Pending-connection queue (accept thread -> workers).
  std::mutex queueMu_;
  std::condition_variable queueCv_;
  std::vector<int> pending_;

  // /status document.
  mutable std::mutex statusMu_;
  std::string statusJson_;

  // SSE state: registered client fds + the latest (coalesced) update.
  mutable std::mutex sseMu_;
  std::condition_variable sseCv_;
  std::vector<int> sseFds_;
  std::string sseLatest_;   // serialized update, "" = nothing yet
  bool sseFresh_ = false;   // latest not yet broadcast
  bool sseFinal_ = false;   // latest is a done==total update

  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace lpa::obs
