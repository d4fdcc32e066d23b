#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json_util.h"

namespace gpivot::obs {

std::string Name::Join(std::string_view key) const {
  std::string out;
  out.reserve(head_.size() + tail_.size() + (key.empty() ? 0 : key.size() + 1));
  out.append(head_).append(tail_);
  if (!key.empty()) {
    if (!out.empty()) out.push_back('.');
    out.append(key);
  }
  return out;
}

namespace {

// (tracer id -> innermost open span) for the calling thread. Keyed by a
// process-unique id so a stale entry for a destroyed tracer never aliases
// a new one.
thread_local std::unordered_map<uint64_t, SpanId> t_current_span;

uint64_t NextTracerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Tracer::Tracer()
    : id_(NextTracerId()), epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer& Tracer::Global() {
  // Leaked for the same reason as MetricsRegistry::Global().
  static Tracer* const kTracer = new Tracer();
  return *kTracer;
}

SpanId Tracer::BeginSpan(std::string name, SpanId parent, int64_t order,
                         std::chrono::steady_clock::time_point start) {
  if (parent == 0) parent = CurrentSpan();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord record;
  record.id = spans_.size() + 1;
  record.parent = parent;
  record.name = std::move(name);
  record.start = start;
  record.order = order;
  record.tid =
      thread_numbers_.emplace(std::this_thread::get_id(), thread_numbers_.size())
          .first->second;
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

void Tracer::EndSpan(SpanId id, std::chrono::steady_clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;  // cleared mid-span
  SpanRecord& record = spans_[id - 1];
  record.dur_us = DurationUs(record.start, end);
}

void Tracer::AddAttr(SpanId id, std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attrs.emplace_back(std::string(key), std::string(value));
}

SpanId Tracer::CurrentSpan() const {
  auto it = t_current_span.find(id_);
  return it == t_current_span.end() ? 0 : it->second;
}

void Tracer::SetCurrentSpan(SpanId id) { t_current_span[id_] = id; }

std::string Tracer::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& span : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << " {\"name\": " << JsonQuote(span.name)
        << ", \"cat\": \"gpivot\", \"ph\": \"X\", \"ts\": "
        << DurationUs(epoch_, span.start)
        << ", \"dur\": " << (span.dur_us < 0 ? 0.0 : span.dur_us)
        << ", \"pid\": 0, \"tid\": " << span.tid;
    if (!span.attrs.empty()) {
      out << ", \"args\": {";
      for (size_t i = 0; i < span.attrs.size(); ++i) {
        if (i > 0) out << ", ";
        out << JsonQuote(span.attrs[i].first) << ": "
            << JsonQuote(span.attrs[i].second);
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string Tracer::ToSpanTree() const {
  std::lock_guard<std::mutex> lock(mu_);
  // children[p] = ids of spans whose parent is p (0 = roots).
  std::unordered_map<SpanId, std::vector<SpanId>> children;
  for (const SpanRecord& span : spans_) {
    children[span.parent].push_back(span.id);
  }
  // Deterministic sibling order: explicit `order` keys first (ascending),
  // then creation order. Creation order across threads is only used for
  // same-thread sequential siblings, so it is deterministic too.
  for (auto& [parent, ids] : children) {
    std::sort(ids.begin(), ids.end(), [this](SpanId a, SpanId b) {
      const SpanRecord& ra = spans_[a - 1];
      const SpanRecord& rb = spans_[b - 1];
      bool a_explicit = ra.order >= 0;
      bool b_explicit = rb.order >= 0;
      if (a_explicit != b_explicit) return a_explicit;
      if (a_explicit && ra.order != rb.order) return ra.order < rb.order;
      return a < b;
    });
  }
  std::ostringstream out;
  // Iterative DFS from the roots; (id, depth) stack, children pre-reversed.
  std::vector<std::pair<SpanId, int>> stack;
  auto push_children = [&](SpanId parent, int depth) {
    auto it = children.find(parent);
    if (it == children.end()) return;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      stack.emplace_back(*rit, depth);
    }
  };
  push_children(0, 0);
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const SpanRecord& span = spans_[id - 1];
    out << std::string(static_cast<size_t>(depth) * 2, ' ') << span.name;
    for (const auto& [key, value] : span.attrs) {
      out << " " << key << "=" << value;
    }
    out << "\n";
    push_children(id, depth + 1);
  }
  return out.str();
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << ToChromeTraceJson();
  return static_cast<bool>(out.flush());
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

const std::string& TraceDirFromEnv() {
  static const std::string* const kDir = [] {
    const char* value = std::getenv("GPIVOT_TRACE_DIR");
    return new std::string(value == nullptr ? "" : value);
  }();
  return *kDir;
}

Tracer* TracerFromEnv() {
  static Tracer* const kFromEnv = []() -> Tracer* {
    if (TraceDirFromEnv().empty()) return nullptr;
    Tracer::Global().set_enabled(true);
    return &Tracer::Global();
  }();
  return kFromEnv;
}

}  // namespace gpivot::obs
