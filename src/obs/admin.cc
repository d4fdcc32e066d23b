#include "obs/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/json_util.h"
#include "util/string_util.h"

extern char** environ;

namespace gpivot::obs {

namespace {

// Strict uint64 parse: digits only, no sign/space/suffix.
bool ParseStrictUint64(const char* raw, uint64_t* out) {
  if (raw == nullptr || *raw == '\0') return false;
  uint64_t value = 0;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

// Unlabeled gauge lookup; nullopt when the series was never set.
std::optional<double> GaugeValue(const MetricsSnapshot& snapshot,
                                 const std::string& name) {
  auto it = snapshot.gauges.find(name);
  if (it == snapshot.gauges.end()) return std::nullopt;
  auto sample = it->second.find({std::string(), std::string()});
  if (sample == it->second.end()) return std::nullopt;
  return sample->second;
}

}  // namespace

Result<AdminOptions> AdminOptions::FromEnv() {
  AdminOptions options;
  const char* raw = std::getenv("GPIVOT_ADMIN_PORT");
  if (raw != nullptr) {
    uint64_t value = 0;
    if (!ParseStrictUint64(raw, &value) || value > 65535) {
      return Status::InvalidArgument(StrCat(
          "GPIVOT_ADMIN_PORT='", raw, "' is not a port number (0-65535)"));
    }
    options.enabled = true;
    options.port = static_cast<int>(value);
  }
  raw = std::getenv("GPIVOT_ADMIN_STUCK_EPOCH_MS");
  if (raw != nullptr) {
    uint64_t value = 0;
    if (!ParseStrictUint64(raw, &value) || value == 0) {
      return Status::InvalidArgument(
          StrCat("GPIVOT_ADMIN_STUCK_EPOCH_MS='", raw,
                 "' is not a positive integer"));
    }
    options.stuck_epoch_ms = value;
  }
  return options;
}

AdminServer::AdminServer(AdminOptions options)
    : options_(options), started_at_(std::chrono::steady_clock::now()) {}

AdminServer::~AdminServer() { Stop(); }

Status AdminServer::Start() {
  if (running()) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrCat("admin: socket(): ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never a public surface
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::Internal(StrCat("admin: bind(127.0.0.1:",
                                            options_.port,
                                            "): ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 16) != 0) {
    Status status =
        Status::Internal(StrCat("admin: listen(): ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = options_.port;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void AdminServer::Serve() {
  // Poll with a short timeout so the same thread doubles as the watchdog
  // driver and notices Stop() promptly.
  const int poll_ms = 100;
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, poll_ms);
    if (ready > 0 && (pfd.revents & POLLIN) != 0) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        HandleConnection(fd);
        ::close(fd);
      }
    }
    // Keep the watchdog counter live even when nobody scrapes /healthz.
    RuntimeRegistry::Global().CheckStuck(
        static_cast<double>(options_.stuck_epoch_ms));
  }
}

void AdminServer::HandleConnection(int fd) {
  timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  std::string request;
  char buf[2048];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  Response response;
  size_t line_end = request.find("\r\n");
  std::string_view first_line(request.data(),
                              line_end == std::string::npos ? request.size()
                                                            : line_end);
  size_t sp1 = first_line.find(' ');
  size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : first_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    response = {400, "text/plain; charset=utf-8", "malformed request line\n"};
  } else if (first_line.substr(0, sp1) != "GET") {
    response = {405, "text/plain; charset=utf-8", "only GET is supported\n"};
  } else {
    std::string_view target = first_line.substr(sp1 + 1, sp2 - sp1 - 1);
    size_t query = target.find('?');
    if (query != std::string_view::npos) target = target.substr(0, query);
    response = Handle(target);
  }
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << " " << StatusText(response.status)
      << "\r\nContent-Type: " << response.content_type
      << "\r\nContent-Length: " << response.body.size()
      << "\r\nConnection: close\r\n\r\n"
      << response.body;
  std::string wire = out.str();
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

AdminServer::Response AdminServer::Handle(std::string_view path) {
  if (path == "/metrics") return Metrics();
  if (path == "/healthz") return Healthz();
  if (path == "/statusz") return Statusz();
  if (path == "/epochz") return Epochz();
  if (path == "/viewz") return Viewz();
  if (path == "/") {
    return {200, "text/plain; charset=utf-8",
            "gpivot admin endpoints:\n  /metrics\n  /healthz\n  /statusz\n"
            "  /epochz\n  /viewz\n"};
  }
  return {404, "text/plain; charset=utf-8",
          StrCat("no such endpoint: ", std::string(path), "\n")};
}

AdminServer::Response AdminServer::Metrics() {
  return {200, "text/plain; version=0.0.4; charset=utf-8",
          RuntimeRegistry::Global().metrics().Snapshot().ToPrometheusText()};
}

AdminServer::Response AdminServer::Healthz() {
  RuntimeRegistry& runtime = RuntimeRegistry::Global();
  MetricsSnapshot snapshot = runtime.metrics().Snapshot();
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks;

  std::optional<double> poisoned =
      GaugeValue(snapshot, "storage.wal.poisoned");
  checks.push_back({"wal_writable", !(poisoned.has_value() && *poisoned != 0.0),
                    poisoned.has_value() && *poisoned != 0.0
                        ? "WAL poisoned: appends disabled after an earlier "
                          "write failure"
                        : "ok"});

  std::optional<double> age =
      GaugeValue(snapshot, "storage.checkpoint.age_epochs");
  std::optional<double> cadence =
      GaugeValue(snapshot, "storage.checkpoint.cadence");
  bool checkpoint_ok = true;
  std::string checkpoint_detail = "ok";
  if (age.has_value() && cadence.has_value() && *cadence > 0.0 &&
      *age > 2.0 * *cadence) {
    checkpoint_ok = false;
    checkpoint_detail =
        StrCat("checkpoint is ", static_cast<uint64_t>(*age),
               " epochs old (cadence ", static_cast<uint64_t>(*cadence), ")");
  }
  checks.push_back({"checkpoint_fresh", checkpoint_ok, checkpoint_detail});

  StuckEpochInfo stuck =
      runtime.CheckStuck(static_cast<double>(options_.stuck_epoch_ms));
  checks.push_back(
      {"epoch_not_stuck", !stuck.stuck,
       stuck.stuck ? StrCat("epoch ", stuck.seq, " stuck in ", stuck.phase,
                            " for ", static_cast<uint64_t>(stuck.elapsed_ms),
                            " ms (bound ", options_.stuck_epoch_ms, " ms)")
                   : "ok"});

  bool healthy = true;
  for (const Check& check : checks) healthy = healthy && check.ok;
  std::ostringstream out;
  out << "{\"status\": " << (healthy ? "\"ok\"" : "\"unhealthy\"")
      << ", \"checks\": [";
  for (size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"name\": " << JsonQuote(checks[i].name)
        << ", \"ok\": " << (checks[i].ok ? "true" : "false")
        << ", \"detail\": " << JsonQuote(checks[i].detail) << "}";
  }
  out << "]}\n";
  return {healthy ? 200 : 503, "application/json", out.str()};
}

AdminServer::Response AdminServer::Statusz() {
  std::chrono::duration<double> uptime =
      std::chrono::steady_clock::now() - started_at_;
  std::ostringstream out;
  out << "{\"build\": {\"compiler\": " << JsonQuote(__VERSION__)
      << ", \"mode\": "
#ifdef NDEBUG
      << "\"release\""
#else
      << "\"debug\""
#endif
      << "}, \"uptime_seconds\": " << uptime.count()
      << ", \"options\": {\"port\": " << port_
      << ", \"stuck_epoch_ms\": " << options_.stuck_epoch_ms
      << "}, \"env\": {";
  bool first = true;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    std::string_view entry(*env);
    if (entry.rfind("GPIVOT_", 0) != 0) continue;
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos) continue;
    if (!first) out << ", ";
    out << JsonQuote(entry.substr(0, eq)) << ": "
        << JsonQuote(entry.substr(eq + 1));
    first = false;
  }
  out << "}}\n";
  return {200, "application/json", out.str()};
}

AdminServer::Response AdminServer::Epochz() {
  std::vector<std::string> ring = RuntimeRegistry::Global().EpochRing();
  std::ostringstream out;
  out << "{\"epochs\": [";
  for (size_t i = 0; i < ring.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n" << ring[i];
  }
  if (!ring.empty()) out << "\n";
  out << "]}\n";
  return {200, "application/json", out.str()};
}

AdminServer::Response AdminServer::Viewz() {
  RuntimeRegistry& runtime = RuntimeRegistry::Global();
  MetricsSnapshot snapshot = runtime.metrics().Snapshot();
  double manager_seq =
      GaugeValue(snapshot, "ivm.manager.epoch_seq").value_or(0.0);
  std::ostringstream out;
  out << "{\"manager_epoch_seq\": " << static_cast<uint64_t>(manager_seq)
      << ", \"stores\": [";
  bool first_store = true;
  for (const auto& [name, json] : runtime.CollectJsonSections()) {
    if (name != "serve") continue;
    std::optional<JsonValue> parsed = ParseJson(json);
    if (!parsed.has_value() || !parsed->is_object()) continue;
    if (!first_store) out << ", ";
    first_store = false;
    const JsonValue* last = parsed->Find("last_committed_seq");
    const JsonValue* slots = parsed->Find("reader_slots");
    const JsonValue* retired = parsed->Find("retired_pending");
    out << "{\"last_committed_seq\": "
        << static_cast<uint64_t>(last != nullptr ? last->number_value : 0)
        << ", \"retired_pending\": "
        << static_cast<uint64_t>(retired != nullptr ? retired->number_value
                                                    : 0);
    if (slots != nullptr && slots->is_object()) {
      const JsonValue* capacity = slots->Find("capacity");
      const JsonValue* occupied = slots->Find("occupied");
      out << ", \"reader_slots\": {\"capacity\": "
          << static_cast<uint64_t>(
                 capacity != nullptr ? capacity->number_value : 0)
          << ", \"occupied\": "
          << static_cast<uint64_t>(
                 occupied != nullptr ? occupied->number_value : 0)
          << "}";
    }
    out << ", \"views\": [";
    const JsonValue* views = parsed->Find("views");
    if (views != nullptr && views->is_array()) {
      for (size_t i = 0; i < views->array.size(); ++i) {
        const JsonValue& view = views->array[i];
        const JsonValue* view_name = view.Find("view");
        const JsonValue* seq = view.Find("snapshot_seq");
        double snapshot_seq = seq != nullptr ? seq->number_value : 0.0;
        // The exact staleness contract: manager epoch seq minus the seq of
        // the installed snapshot. Only committed epochs consume a seq, and
        // each installs, so a healthy attached store reads 0.
        double staleness =
            manager_seq > snapshot_seq ? manager_seq - snapshot_seq : 0.0;
        if (i > 0) out << ", ";
        out << "{\"view\": "
            << JsonQuote(view_name != nullptr ? view_name->string_value
                                              : std::string())
            << ", \"snapshot_seq\": " << static_cast<uint64_t>(snapshot_seq)
            << ", \"staleness\": " << static_cast<uint64_t>(staleness) << "}";
      }
    }
    out << "]}";
  }
  out << "]}\n";
  return {200, "application/json", out.str()};
}

Result<AdminServer*> AdminServerFromEnv() {
  static const Result<AdminServer*>* const kResult =
      []() -> const Result<AdminServer*>* {
    Result<AdminOptions> options = AdminOptions::FromEnv();
    if (!options.ok()) return new Result<AdminServer*>(options.status());
    if (!options->enabled) {
      return new Result<AdminServer*>(static_cast<AdminServer*>(nullptr));
    }
    // The admin surface is what turns the runtime registry on: with it off,
    // every gauge/heartbeat publish in the hot path stays a single relaxed
    // load.
    RuntimeRegistry::Global().set_enabled(true);
    auto* server = new AdminServer(*options);  // leaked: lives until exit
    Status status = server->Start();
    if (!status.ok()) return new Result<AdminServer*>(status);
    return new Result<AdminServer*>(server);
  }();
  return *kResult;
}

}  // namespace gpivot::obs
