#include "tools/bench_compare.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/json_util.h"

namespace gpivot::tools {

namespace {

using obs::JsonValue;

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return !in.bad();
}

// Structural equality; object members are order-sensitive, which is exact
// for documents our own deterministic writers produced.
bool JsonEquals(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.bool_value == b.bool_value;
    case JsonValue::Kind::kNumber:
      return a.number_value == b.number_value;
    case JsonValue::Kind::kString:
      return a.string_value == b.string_value;
    case JsonValue::Kind::kArray:
      return a.array.size() == b.array.size() &&
             std::equal(a.array.begin(), a.array.end(), b.array.begin(),
                        JsonEquals);
    case JsonValue::Kind::kObject:
      if (a.object.size() != b.object.size()) return false;
      for (size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first ||
            !JsonEquals(a.object[i].second, b.object[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

double NumberOr(const JsonValue* value, double fallback) {
  return value != nullptr && value->is_number() ? value->number_value
                                                : fallback;
}

std::string StringOr(const JsonValue* value, const std::string& fallback) {
  return value != nullptr && value->is_string() ? value->string_value
                                                : fallback;
}

// Key of one measurement row within a figure.
std::string RowKey(const JsonValue& row) {
  return Fmt("%s @%.4f", StringOr(row.Find("strategy"), "?").c_str(),
             NumberOr(row.Find("delta_fraction"), -1.0));
}

bool CounterIgnored(const std::string& name,
                    const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// Exact comparison of the "counters" object inside a row's metrics.
void DiffCounters(const std::string& where, const JsonValue& base,
                  const JsonValue& cand, const BenchDiffOptions& options,
                  BenchDiffReport* report) {
  for (const auto& [name, value] : base.object) {
    if (CounterIgnored(name, options.ignore_counter_prefixes)) continue;
    const JsonValue* other = cand.Find(name);
    if (other == nullptr) {
      report->errors.push_back(
          Fmt("%s: counter '%s' missing from candidate", where.c_str(),
              name.c_str()));
    } else if (!JsonEquals(value, *other)) {
      report->errors.push_back(Fmt(
          "%s: counter '%s' changed: %.0f -> %.0f", where.c_str(),
          name.c_str(), value.number_value, other->number_value));
    }
  }
  for (const auto& [name, value] : cand.object) {
    (void)value;
    if (CounterIgnored(name, options.ignore_counter_prefixes)) continue;
    if (base.Find(name) == nullptr) {
      report->errors.push_back(Fmt("%s: counter '%s' new in candidate",
                                   where.c_str(), name.c_str()));
    }
  }
}

void DiffRow(const std::string& where, const JsonValue& base,
             const JsonValue& cand, const BenchDiffOptions& options,
             BenchDiffReport* report) {
  // Deterministic shape facts first: these must match exactly.
  for (const char* field : {"view_rows", "delta_rows"}) {
    double b = NumberOr(base.Find(field), -1.0);
    double c = NumberOr(cand.Find(field), -1.0);
    if (b != c) {
      report->errors.push_back(Fmt("%s: %s changed: %.0f -> %.0f",
                                   where.c_str(), field, b, c));
    }
  }
  const JsonValue* base_metrics = base.Find("metrics");
  const JsonValue* cand_metrics = cand.Find("metrics");
  if (base_metrics != nullptr && cand_metrics != nullptr) {
    const JsonValue* base_counters = base_metrics->Find("counters");
    const JsonValue* cand_counters = cand_metrics->Find("counters");
    if (base_counters != nullptr && cand_counters != nullptr) {
      DiffCounters(where, *base_counters, *cand_counters, options, report);
    }
  } else if (base_metrics != nullptr || cand_metrics != nullptr) {
    report->notes.push_back(
        Fmt("%s: metrics present on only one side; counter check skipped",
            where.c_str()));
  }
  const JsonValue* base_cost = base.Find("cost");
  const JsonValue* cand_cost = cand.Find("cost");
  if (base_cost != nullptr && cand_cost != nullptr) {
    if (!JsonEquals(*base_cost, *cand_cost)) {
      report->errors.push_back(
          Fmt("%s: per-node cost report changed", where.c_str()));
    }
  } else if (base_cost != nullptr || cand_cost != nullptr) {
    report->notes.push_back(
        Fmt("%s: cost report present on only one side; check skipped",
            where.c_str()));
  }
  if (options.shape_only) return;
  // Medians are steadier than means across reps; fall back for old files.
  double b = NumberOr(base.Find("wall_ms_median"),
                      NumberOr(base.Find("wall_ms"), 0.0));
  double c = NumberOr(cand.Find("wall_ms_median"),
                      NumberOr(cand.Find("wall_ms"), 0.0));
  if (b > 0.0 && c > b * options.time_tolerance) {
    report->errors.push_back(
        Fmt("%s: wall time regressed %.4f -> %.4f ms (%.2fx > %.2fx "
            "tolerance)",
            where.c_str(), b, c, c / b, options.time_tolerance));
  }
}

}  // namespace

std::string BenchDiffReport::ToString() const {
  std::string out;
  for (const std::string& error : errors) out += "FAIL " + error + "\n";
  for (const std::string& note : notes) out += "note " + note + "\n";
  return out;
}

int DiffBenchFiles(const std::string& baseline_path,
                   const std::string& candidate_path,
                   const BenchDiffOptions& options, BenchDiffReport* report) {
  std::string base_text, cand_text;
  if (!ReadFile(baseline_path, &base_text)) {
    report->errors.push_back(Fmt("cannot read %s", baseline_path.c_str()));
    return kDiffUnusable;
  }
  if (!ReadFile(candidate_path, &cand_text)) {
    report->errors.push_back(Fmt("cannot read %s", candidate_path.c_str()));
    return kDiffUnusable;
  }
  std::string error;
  std::optional<JsonValue> base = obs::ParseJson(base_text, &error);
  if (!base.has_value()) {
    report->errors.push_back(
        Fmt("%s: %s", baseline_path.c_str(), error.c_str()));
    return kDiffUnusable;
  }
  std::optional<JsonValue> cand = obs::ParseJson(cand_text, &error);
  if (!cand.has_value()) {
    report->errors.push_back(
        Fmt("%s: %s", candidate_path.c_str(), error.c_str()));
    return kDiffUnusable;
  }

  std::string figure = StringOr(base->Find("figure"), "?");
  size_t before = report->errors.size();
  // Identity: the two files must describe the same experiment.
  if (figure != StringOr(cand->Find("figure"), "?")) {
    report->errors.push_back(
        Fmt("%s: figure mismatch ('%s' vs '%s')", baseline_path.c_str(),
            figure.c_str(), StringOr(cand->Find("figure"), "?").c_str()));
    return kDiffFailed;
  }
  for (const char* field : {"scale_factor", "seed"}) {
    double b = NumberOr(base->Find(field), -1.0);
    double c = NumberOr(cand->Find(field), -1.0);
    if (b != c) {
      report->errors.push_back(Fmt("%s: %s mismatch (%g vs %g)",
                                   figure.c_str(), field, b, c));
    }
  }
  if (report->errors.size() != before) return kDiffFailed;

  const JsonValue* base_rows = base->Find("results");
  const JsonValue* cand_rows = cand->Find("results");
  if (base_rows == nullptr || !base_rows->is_array() || cand_rows == nullptr ||
      !cand_rows->is_array()) {
    report->errors.push_back(
        Fmt("%s: missing results array", figure.c_str()));
    return kDiffUnusable;
  }
  for (const JsonValue& row : base_rows->array) {
    std::string key = RowKey(row);
    const JsonValue* match = nullptr;
    for (const JsonValue& other : cand_rows->array) {
      if (RowKey(other) == key) {
        match = &other;
        break;
      }
    }
    if (match == nullptr) {
      report->errors.push_back(Fmt("%s %s: missing from candidate",
                                   figure.c_str(), key.c_str()));
      continue;
    }
    DiffRow(Fmt("%s %s", figure.c_str(), key.c_str()), row, *match, options,
            report);
  }
  for (const JsonValue& row : cand_rows->array) {
    std::string key = RowKey(row);
    bool found = false;
    for (const JsonValue& other : base_rows->array) {
      if (RowKey(other) == key) {
        found = true;
        break;
      }
    }
    if (!found) {
      report->notes.push_back(Fmt("%s %s: new measurement (no baseline)",
                                  figure.c_str(), key.c_str()));
    }
  }
  return report->errors.size() == before ? kDiffOk : kDiffFailed;
}

int DiffBenchDirs(const std::string& baseline_dir,
                  const std::string& candidate_dir,
                  const BenchDiffOptions& options, BenchDiffReport* report) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> names;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(baseline_dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      names.push_back(name);
    }
  }
  if (ec) {
    report->errors.push_back(
        Fmt("cannot list %s: %s", baseline_dir.c_str(),
            ec.message().c_str()));
    return kDiffUnusable;
  }
  if (names.empty()) {
    report->errors.push_back(
        Fmt("no BENCH_*.json files in %s", baseline_dir.c_str()));
    return kDiffUnusable;
  }
  std::sort(names.begin(), names.end());
  int worst = kDiffOk;
  for (const std::string& name : names) {
    fs::path candidate = fs::path(candidate_dir) / name;
    if (!fs::exists(candidate)) {
      if (options.require_all) {
        report->errors.push_back(
            Fmt("%s: missing from %s", name.c_str(), candidate_dir.c_str()));
        worst = std::max(worst, kDiffFailed);
      } else {
        report->notes.push_back(
            Fmt("%s: missing from %s (skipped)", name.c_str(),
                candidate_dir.c_str()));
      }
      continue;
    }
    int rc = DiffBenchFiles((fs::path(baseline_dir) / name).string(),
                            candidate.string(), options, report);
    worst = std::max(worst, rc);
  }
  for (const fs::directory_entry& entry :
       fs::directory_iterator(candidate_dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json" &&
        std::find(names.begin(), names.end(), name) == names.end()) {
      report->notes.push_back(
          Fmt("%s: only in %s", name.c_str(), candidate_dir.c_str()));
    }
  }
  return worst;
}

}  // namespace gpivot::tools
