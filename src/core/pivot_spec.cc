#include "core/pivot_spec.h"

#include <unordered_set>

#include "util/check.h"
#include "util/string_util.h"

namespace gpivot {

std::string PivotColumnName(const Row& combo, const std::string& measure) {
  std::string name;
  for (const Value& v : combo) {
    name += v.ToString();
    name += kPivotNameSeparator;
  }
  name += measure;
  return name;
}

Result<std::pair<std::vector<std::string>, std::string>> ParsePivotColumnName(
    const std::string& name, size_t arity) {
  std::vector<std::string> parts = Split(name, kPivotNameSeparator);
  if (parts.size() != arity + 1) {
    return Status::InvalidArgument(
        StrCat("pivoted column name '", name, "' does not have ", arity,
               " dimension components"));
  }
  std::string measure = parts.back();
  parts.pop_back();
  return std::make_pair(std::move(parts), std::move(measure));
}

std::string PivotSpec::OutputColumnName(size_t c, size_t b) const {
  GPIVOT_CHECK(c < combos.size() && b < pivot_on.size())
      << "OutputColumnName(" << c << ", " << b << ") out of range";
  return PivotColumnName(combos[c], pivot_on[b]);
}

std::vector<std::string> PivotSpec::OutputColumnNames() const {
  std::vector<std::string> names;
  names.reserve(combos.size() * pivot_on.size());
  for (size_t c = 0; c < combos.size(); ++c) {
    for (size_t b = 0; b < pivot_on.size(); ++b) {
      names.push_back(OutputColumnName(c, b));
    }
  }
  return names;
}

Result<std::vector<std::string>> PivotSpec::KeyColumns(
    const Schema& input_schema) const {
  GPIVOT_RETURN_NOT_OK(Validate(input_schema));
  std::unordered_set<std::string> pivoted(pivot_by.begin(), pivot_by.end());
  pivoted.insert(pivot_on.begin(), pivot_on.end());
  std::vector<std::string> key;
  for (const Column& c : input_schema.columns()) {
    if (pivoted.count(c.name) == 0) key.push_back(c.name);
  }
  return key;
}

Result<Schema> PivotSpec::OutputSchema(const Schema& input_schema) const {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                          KeyColumns(input_schema));
  std::vector<Column> columns;
  for (const std::string& name : key) {
    columns.push_back(input_schema.column(input_schema.ColumnIndexOrDie(name)));
  }
  for (size_t c = 0; c < combos.size(); ++c) {
    for (size_t b = 0; b < pivot_on.size(); ++b) {
      DataType type = input_schema
                          .column(input_schema.ColumnIndexOrDie(pivot_on[b]))
                          .type;
      columns.push_back({OutputColumnName(c, b), type});
    }
  }
  return Schema(std::move(columns));
}

Status PivotSpec::Validate(const Schema& input_schema) const {
  if (pivot_by.empty()) {
    return Status::InvalidArgument("GPIVOT needs at least one pivot-by column");
  }
  if (pivot_on.empty()) {
    return Status::InvalidArgument("GPIVOT needs at least one pivot-on column");
  }
  if (combos.empty()) {
    return Status::InvalidArgument("GPIVOT needs at least one output combo");
  }
  std::unordered_set<std::string> seen;
  for (const std::string& name : pivot_by) {
    if (!input_schema.HasColumn(name)) {
      return Status::NotFound(StrCat("pivot-by column '", name, "' missing"));
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument(
          StrCat("column '", name, "' listed twice in GPIVOT parameters"));
    }
  }
  for (const std::string& name : pivot_on) {
    if (!input_schema.HasColumn(name)) {
      return Status::NotFound(StrCat("pivot-on column '", name, "' missing"));
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument(
          StrCat("column '", name, "' listed twice in GPIVOT parameters"));
    }
  }
  std::unordered_set<Row, RowHash, RowEq> combo_set;
  for (const Row& combo : combos) {
    if (combo.size() != pivot_by.size()) {
      return Status::InvalidArgument(
          StrCat("combo ", RowToString(combo), " arity != ", pivot_by.size()));
    }
    for (const Value& v : combo) {
      if (v.is_null()) {
        return Status::InvalidArgument("⊥ not allowed in GPIVOT output combos");
      }
    }
    if (!combo_set.insert(combo).second) {
      return Status::InvalidArgument(
          StrCat("duplicate combo ", RowToString(combo)));
    }
  }
  return Status::OK();
}

std::vector<Row> PivotSpec::CrossProduct(
    const std::vector<std::vector<Value>>& dims) {
  std::vector<Row> result = {{}};
  for (const std::vector<Value>& dim : dims) {
    std::vector<Row> next;
    next.reserve(result.size() * dim.size());
    for (const Row& prefix : result) {
      for (const Value& v : dim) {
        Row combo = prefix;
        combo.push_back(v);
        next.push_back(std::move(combo));
      }
    }
    result = std::move(next);
  }
  return result;
}

std::string PivotSpec::ToString() const {
  std::vector<std::string> combo_strings;
  combo_strings.reserve(combos.size());
  for (const Row& combo : combos) combo_strings.push_back(RowToString(combo));
  return StrCat("GPIVOT^{", Join(combo_strings, ", "), "}_{[",
                Join(pivot_by, ", "), "] on [", Join(pivot_on, ", "), "]}",
                keep_all_null_rows ? " KEEP ⊥-ROWS" : "");
}

bool PivotSpec::operator==(const PivotSpec& other) const {
  if (pivot_by != other.pivot_by || pivot_on != other.pivot_on ||
      keep_all_null_rows != other.keep_all_null_rows ||
      combos.size() != other.combos.size()) {
    return false;
  }
  for (size_t c = 0; c < combos.size(); ++c) {
    if (!IdenticalRows(combos[c], other.combos[c])) return false;
  }
  return true;
}

std::vector<std::string> UnpivotSpec::AllSourceColumns() const {
  std::vector<std::string> all;
  for (const UnpivotGroup& g : groups) {
    all.insert(all.end(), g.source_columns.begin(), g.source_columns.end());
  }
  return all;
}

Result<Schema> UnpivotSpec::OutputSchema(const Schema& input_schema) const {
  GPIVOT_RETURN_NOT_OK(Validate(input_schema));
  std::unordered_set<std::string> consumed;
  for (const std::string& name : AllSourceColumns()) consumed.insert(name);
  std::vector<Column> columns;
  for (const Column& c : input_schema.columns()) {
    if (consumed.count(c.name) == 0) columns.push_back(c);
  }
  // Dimension column types come from the first group's combo values.
  for (size_t d = 0; d < name_columns.size(); ++d) {
    columns.push_back({name_columns[d], groups[0].combo[d].type()});
  }
  // Measure column types come from the first group's source columns.
  for (size_t b = 0; b < value_columns.size(); ++b) {
    DataType type =
        input_schema
            .column(input_schema.ColumnIndexOrDie(groups[0].source_columns[b]))
            .type;
    columns.push_back({value_columns[b], type});
  }
  return Schema(std::move(columns));
}

Status UnpivotSpec::Validate(const Schema& input_schema) const {
  if (groups.empty()) {
    return Status::InvalidArgument("GUNPIVOT needs at least one group");
  }
  if (name_columns.empty() && value_columns.empty()) {
    return Status::InvalidArgument("GUNPIVOT needs output columns");
  }
  std::unordered_set<std::string> consumed;
  std::unordered_set<Row, RowHash, RowEq> combo_set;
  for (const UnpivotGroup& g : groups) {
    if (g.combo.size() != name_columns.size()) {
      return Status::InvalidArgument(
          StrCat("group combo ", RowToString(g.combo), " arity != ",
                 name_columns.size()));
    }
    if (g.source_columns.size() != value_columns.size()) {
      return Status::InvalidArgument(
          StrCat("group for ", RowToString(g.combo), " has ",
                 g.source_columns.size(), " source columns, expected ",
                 value_columns.size()));
    }
    if (!combo_set.insert(g.combo).second) {
      return Status::InvalidArgument(
          StrCat("duplicate group combo ", RowToString(g.combo)));
    }
    for (const std::string& name : g.source_columns) {
      if (!input_schema.HasColumn(name)) {
        return Status::NotFound(
            StrCat("GUNPIVOT source column '", name, "' missing"));
      }
      if (!consumed.insert(name).second) {
        return Status::InvalidArgument(
            StrCat("GUNPIVOT source column '", name, "' used twice"));
      }
    }
  }
  for (const std::string& name : name_columns) {
    if (input_schema.HasColumn(name) && consumed.count(name) == 0) {
      return Status::InvalidArgument(
          StrCat("GUNPIVOT output column '", name, "' collides with input"));
    }
  }
  for (const std::string& name : value_columns) {
    if (input_schema.HasColumn(name) && consumed.count(name) == 0) {
      return Status::InvalidArgument(
          StrCat("GUNPIVOT output column '", name, "' collides with input"));
    }
  }
  return Status::OK();
}

UnpivotSpec UnpivotSpec::InverseOf(const PivotSpec& spec) {
  UnpivotSpec result;
  result.name_columns = spec.pivot_by;
  result.value_columns = spec.pivot_on;
  result.groups.reserve(spec.combos.size());
  for (size_t c = 0; c < spec.combos.size(); ++c) {
    UnpivotGroup group;
    group.combo = spec.combos[c];
    for (size_t b = 0; b < spec.pivot_on.size(); ++b) {
      group.source_columns.push_back(spec.OutputColumnName(c, b));
    }
    result.groups.push_back(std::move(group));
  }
  return result;
}

std::string UnpivotSpec::ToString() const {
  std::vector<std::string> group_strings;
  group_strings.reserve(groups.size());
  for (const UnpivotGroup& g : groups) {
    group_strings.push_back(
        StrCat(RowToString(g.combo), ":(", Join(g.source_columns, ", "), ")"));
  }
  return StrCat("GUNPIVOT[", Join(group_strings, "; "), "] -> (",
                Join(name_columns, ", "), " | ", Join(value_columns, ", "),
                ")");
}

bool UnpivotSpec::operator==(const UnpivotSpec& other) const {
  return name_columns == other.name_columns &&
         value_columns == other.value_columns && groups == other.groups;
}

}  // namespace gpivot
