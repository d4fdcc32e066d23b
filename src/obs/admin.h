#ifndef GPIVOT_OBS_ADMIN_H_
#define GPIVOT_OBS_ADMIN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "obs/runtime.h"
#include "util/result.h"

namespace gpivot::obs {

// Admin-endpoint configuration, parsed from the environment with the same
// strictness as every other knob (digits only; a malformed value is an
// error, never a silent default):
//
//   GPIVOT_ADMIN_PORT            TCP port to listen on (0 = ephemeral,
//                                picked by the kernel; unset = disabled)
//   GPIVOT_ADMIN_STUCK_EPOCH_MS  watchdog bound: an epoch sitting in one
//                                stage/commit phase longer than this is
//                                "stuck" (healthz 503). Default 10000.
struct AdminOptions {
  bool enabled = false;
  int port = 0;
  uint64_t stuck_epoch_ms = 10000;

  static Result<AdminOptions> FromEnv();
};

// A dependency-free HTTP/1.1 admin server over a POSIX socket, bound to
// 127.0.0.1 only. One background thread accepts connections and answers
// one GET per connection (Connection: close); between connections the same
// thread drives the stuck-epoch watchdog, so enabling the admin surface
// costs the process exactly one extra thread.
//
// Endpoints:
//   /metrics   live Prometheus text of the runtime registry (counters,
//              gauges, summaries; a scraper derives rates, e.g. rate())
//   /healthz   200 "ok" / 503 with the failing checks as JSON
//   /statusz   build info, GPIVOT_* environment, uptime (JSON)
//   /epochz    ring of the most recent EpochRecord JSON lines
//   /viewz     per-view snapshot seq / staleness / reader slots (JSON)
//
// Everything it serves comes from RuntimeRegistry::Global() — the
// wall-clock-tolerant side of the determinism boundary (see runtime.h).
// Handle() is the pure request->response core, exposed so tests can hit
// every endpoint without a socket.
class AdminServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  explicit AdminServer(AdminOptions options);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Binds 127.0.0.1:<port> and starts the serving thread. With port 0 the
  // kernel assigns one; port() reports the actual value.
  Status Start();
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int port() const { return port_; }

  // Routes one request path (query strings are ignored) to its endpoint.
  Response Handle(std::string_view path);

 private:
  void Serve();
  void HandleConnection(int fd);

  Response Metrics();
  Response Healthz();
  Response Statusz();
  Response Epochz();
  Response Viewz();

  AdminOptions options_;
  std::chrono::steady_clock::time_point started_at_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

// Builds (and leaks) the process-wide admin server from the environment on
// first call, enabling RuntimeRegistry::Global() and starting the listener
// when GPIVOT_ADMIN_PORT is set. Returns nullptr when disabled; a
// malformed knob or a failed bind returns the error (callers exit 2, the
// strict-env convention). Subsequent calls return the first result.
Result<AdminServer*> AdminServerFromEnv();

}  // namespace gpivot::obs

#endif  // GPIVOT_OBS_ADMIN_H_
