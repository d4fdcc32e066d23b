#include "test_util.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "exec/basic_ops.h"
#include "expr/expr.h"
#include "util/string_util.h"

namespace gpivot::testing {

Table MakeTable(std::vector<Column> columns, std::vector<Row> rows) {
  return Table(Schema(std::move(columns)), std::move(rows));
}

namespace {

std::unordered_map<Row, int64_t, RowHash, RowEq> RowCounts(const Table& t) {
  std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
  for (const Row& row : t.rows()) ++counts[row];
  return counts;
}

::testing::AssertionResult CompareRowBags(const Table& expected,
                                          const Table& actual) {
  auto expected_counts = RowCounts(expected);
  auto actual_counts = RowCounts(actual);
  for (const auto& [row, count] : expected_counts) {
    auto it = actual_counts.find(row);
    int64_t have = it == actual_counts.end() ? 0 : it->second;
    if (have != count) {
      return ::testing::AssertionFailure()
             << "row " << RowToString(row) << " expected x" << count
             << " but found x" << have << "\nexpected:\n"
             << expected.Sorted().ToString() << "actual:\n"
             << actual.Sorted().ToString();
    }
  }
  if (actual.num_rows() != expected.num_rows()) {
    return ::testing::AssertionFailure()
           << "row counts differ: expected " << expected.num_rows()
           << ", actual " << actual.num_rows() << "\nexpected:\n"
           << expected.Sorted().ToString() << "actual:\n"
           << actual.Sorted().ToString();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

::testing::AssertionResult BagEqualModuloColumnOrder(const Table& expected,
                                                     const Table& actual) {
  std::vector<std::string> expected_names = expected.schema().ColumnNames();
  for (const std::string& name : expected_names) {
    if (!actual.schema().HasColumn(name)) {
      return ::testing::AssertionFailure()
             << "actual is missing column '" << name << "'; actual schema "
             << actual.schema().ToString();
    }
  }
  if (actual.schema().num_columns() != expected.schema().num_columns()) {
    return ::testing::AssertionFailure()
           << "column counts differ: expected "
           << expected.schema().ToString() << ", actual "
           << actual.schema().ToString();
  }
  auto aligned = exec::Project(actual, expected_names);
  if (!aligned.ok()) {
    return ::testing::AssertionFailure() << aligned.status().ToString();
  }
  return CompareRowBags(expected, *aligned);
}

::testing::AssertionResult BagEqual(const Table& expected,
                                    const Table& actual) {
  if (expected.schema() != actual.schema()) {
    return ::testing::AssertionFailure()
           << "schemas differ: expected " << expected.schema().ToString()
           << ", actual " << actual.schema().ToString();
  }
  return CompareRowBags(expected, actual);
}

Table NestedLoopOracle(const Table& left, const Table& right,
                       const exec::JoinSpec& spec) {
  std::vector<size_t> lkeys =
      left.schema().ColumnIndices(spec.left_keys).value();
  std::vector<size_t> rkeys =
      right.schema().ColumnIndices(spec.right_keys).value();
  std::vector<size_t> payload;
  for (size_t i = 0; i < right.schema().num_columns(); ++i) {
    if (std::find(rkeys.begin(), rkeys.end(), i) == rkeys.end()) {
      payload.push_back(i);
    }
  }
  std::vector<Column> combined_columns = left.schema().columns();
  for (size_t i : payload) combined_columns.push_back(right.schema().column(i));
  Schema combined(combined_columns);
  CompiledExpr residual;
  if (spec.residual != nullptr) {
    residual = CompileExpr(spec.residual, combined).value();
  }
  const bool outer = spec.type == exec::JoinType::kFullOuter;
  Table out(combined);
  std::vector<bool> right_matched(right.num_rows(), false);
  for (const Row& l : left.rows()) {
    bool matched = false;
    for (size_t j = 0; j < right.num_rows(); ++j) {
      const Row& r = right.rows()[j];
      bool keys_equal = true;
      for (size_t k = 0; k < lkeys.size(); ++k) {
        const Value& lv = l[lkeys[k]];
        const Value& rv = r[rkeys[k]];
        keys_equal = keys_equal && !lv.is_null() && !rv.is_null() && lv == rv;
      }
      if (!keys_equal) continue;
      Row joined = l;
      for (size_t i : payload) joined.push_back(r[i]);
      if (residual && !ValueIsTrue(residual(joined))) continue;
      matched = true;
      right_matched[j] = true;
      out.AddRow(std::move(joined));
    }
    if (outer && !matched) {
      Row padded = l;
      padded.resize(combined.num_columns(), Value::Null());
      out.AddRow(std::move(padded));
    }
  }
  if (outer) {
    for (size_t j = 0; j < right.num_rows(); ++j) {
      if (right_matched[j]) continue;
      const Row& r = right.rows()[j];
      Row row(combined.num_columns(), Value::Null());
      for (size_t k = 0; k < lkeys.size(); ++k) row[lkeys[k]] = r[rkeys[k]];
      for (size_t p = 0; p < payload.size(); ++p) {
        row[left.schema().num_columns() + p] = r[payload[p]];
      }
      out.AddRow(std::move(row));
    }
  }
  return out;
}

std::vector<exec::JoinType> AllJoinTypes() {
  return {exec::JoinType::kInner, exec::JoinType::kFullOuter};
}

std::string JoinTypeParamName(
    const ::testing::TestParamInfo<exec::JoinType>& info) {
  switch (info.param) {
    case exec::JoinType::kInner: return "Inner";
    case exec::JoinType::kFullOuter: return "FullOuter";
  }
  return "?";
}

std::vector<Row> SelectOracle(const Table& input, const ExprPtr& predicate) {
  CompiledExpr compiled = CompileExpr(predicate, input.schema()).value();
  std::vector<Row> rows;
  for (const Row& row : input.rows()) {
    if (ValueIsTrue(compiled(row))) rows.push_back(row);
  }
  return rows;
}

Table GroupByOracle(const Table& input,
                    const std::vector<std::string>& group_columns,
                    const std::vector<AggSpec>& aggregates) {
  std::vector<size_t> group_idx =
      input.schema().ColumnIndices(group_columns).value();
  std::vector<Row> keys;                    // first-appearance order
  std::vector<std::vector<size_t>> members;  // input rows per group
  for (size_t r = 0; r < input.num_rows(); ++r) {
    Row key = ProjectRow(input.rows()[r], group_idx);
    size_t g = 0;
    while (g < keys.size() && !(keys[g] == key)) ++g;
    if (g == keys.size()) {
      keys.push_back(std::move(key));
      members.emplace_back();
    }
    members[g].push_back(r);
  }
  std::vector<Column> columns;
  for (size_t i : group_idx) columns.push_back(input.schema().column(i));
  for (const AggSpec& agg : aggregates) {
    DataType type = DataType::kInt64;
    if (agg.func == AggFunc::kAvg) type = DataType::kDouble;
    if (agg.func == AggFunc::kSum || agg.func == AggFunc::kMin ||
        agg.func == AggFunc::kMax) {
      size_t col = input.schema().ColumnIndex(agg.input).value();
      type = input.schema().column(col).type;
    }
    columns.push_back({agg.output, type});
  }
  Table out{Schema(columns)};
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = keys[g];
    for (const AggSpec& agg : aggregates) {
      if (agg.func == AggFunc::kCountStar) {
        row.push_back(Value::Int(static_cast<int64_t>(members[g].size())));
        continue;
      }
      size_t col = input.schema().ColumnIndex(agg.input).value();
      int64_t count = 0;
      double sum = 0;
      bool all_int = true;
      Value extreme = Value::Null();
      for (size_t r : members[g]) {
        const Value& v = input.rows()[r][col];
        if (v.is_null()) continue;
        ++count;
        if (agg.func == AggFunc::kSum || agg.func == AggFunc::kAvg) {
          sum += v.AsNumeric();
          all_int = all_int && v.is_int();
        }
        if ((agg.func == AggFunc::kMin && (extreme.is_null() || v < extreme)) ||
            (agg.func == AggFunc::kMax && (extreme.is_null() || extreme < v))) {
          extreme = v;
        }
      }
      Value result = Value::Null();
      if (count > 0) {
        switch (agg.func) {
          case AggFunc::kCount:
            result = Value::Int(count);
            break;
          case AggFunc::kSum:
            result = all_int ? Value::Int(static_cast<int64_t>(sum))
                             : Value::Real(sum);
            break;
          case AggFunc::kAvg:
            result = Value::Real(sum / static_cast<double>(count));
            break;
          default:
            result = extreme;
            break;
        }
      }
      row.push_back(result);
    }
    out.AddRow(std::move(row));
  }
  Status st = out.SetKey(group_columns);
  (void)st;
  return out;
}

Table RandomVerticalTable(const RandomVerticalSpec& spec, Rng* rng) {
  std::vector<Column> columns = {{"k", DataType::kInt64}};
  for (size_t d = 0; d < spec.num_dims; ++d) {
    columns.push_back({StrCat("a", d + 1), DataType::kString});
  }
  for (size_t b = 0; b < spec.num_measures; ++b) {
    columns.push_back({StrCat("b", b + 1), DataType::kInt64});
  }
  Table table{Schema(columns)};

  std::unordered_set<Row, RowHash, RowEq> used_keys;
  size_t attempts = 0;
  while (table.num_rows() < spec.num_rows &&
         attempts < spec.num_rows * 20) {
    ++attempts;
    Row row;
    row.push_back(Value::Int(rng->Int(1, spec.num_keys)));
    for (size_t d = 0; d < spec.num_dims; ++d) {
      row.push_back(
          Value::Str(StrCat("v", rng->Int(0, spec.dim_alphabet - 1))));
    }
    // (k, dims) must form a key.
    Row key(row.begin(), row.begin() + 1 + spec.num_dims);
    if (!used_keys.insert(std::move(key)).second) continue;
    for (size_t b = 0; b < spec.num_measures; ++b) {
      row.push_back(rng->Chance(spec.null_fraction)
                        ? Value::Null()
                        : Value::Int(rng->Int(0, 999)));
    }
    table.AddRow(std::move(row));
  }
  std::vector<std::string> key_columns = {"k"};
  for (size_t d = 0; d < spec.num_dims; ++d) {
    key_columns.push_back(StrCat("a", d + 1));
  }
  Status st = table.SetKey(key_columns);
  (void)st;
  return table;
}

}  // namespace gpivot::testing
