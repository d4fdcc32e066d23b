#ifndef GPIVOT_TPCH_DBGEN_H_
#define GPIVOT_TPCH_DBGEN_H_

#include <cstdint>

#include "algebra/plan.h"
#include "ivm/delta.h"
#include "relation/table.h"
#include "util/result.h"

namespace gpivot::tpch {

// Deterministic TPC-H-like generator covering the columns the paper's three
// experiment views use (§7). Row counts keep TPC-H's ratios (150k customers
// : 1.5M orders : ~6M lineitems at SF 1.0) but default to laptop scale.
//
// Deviations from real dbgen, chosen deliberately:
//  * lineitem line numbers range over [1, max_line_numbers] so the View-1/2
//    pivots have a fixed combo list;
//  * a `lineless_order_fraction` of orders starts with no lineitems, giving
//    the Fig. 35 "inserts that only insert view rows" workload somewhere to
//    put new orders' lines;
//  * extendedprice is a uniform integer in [1000, 105000] (exact DECIMAL-style arithmetic), making the View-2
//    condition (line-1 price > 30000) ≈ 72% selective, close to the paper's
//    890k / 1.5M ≈ 59%.
struct Config {
  double scale_factor = 0.01;
  uint64_t seed = 20050405;  // ICDE 2005 ;-)
  int max_line_numbers = 7;  // View 1/2 pivot over line numbers 1..7
  int max_initial_lines = 5; // generated orders carry 1..5 lines
  double lineless_order_fraction = 0.10;
  int num_years = 6;         // orders span [first_year, first_year+num_years)
  int first_year = 1992;
};

struct Data {
  Table customer;  // (custkey, name, nationkey, nation), key custkey
  Table orders;    // (orderkey, custkey, orderyear), key orderkey
  Table lineitem;  // (orderkey, linenumber, quantity, extendedprice),
                   // key (orderkey, linenumber)
};

Data Generate(const Config& config);

// Moves the generated tables into a catalog under the names "customer",
// "orders", "lineitem".
Result<Catalog> MakeCatalog(Data data);

// --- Delta workload generators (§7's x-axes) -------------------------------
// `fraction` is relative to the current lineitem row count. All three are
// deterministic in `seed` and leave the catalog untouched.

// Deletes a uniform sample of lineitem rows (Fig. 33 / 37 / 40).
Result<ivm::SourceDeltas> MakeLineitemDeletes(const Catalog& catalog,
                                              double fraction, uint64_t seed);

// Inserts new line numbers for orders that already have lines — every
// affected view row exists, so the view only *updates* (Fig. 34).
Result<ivm::SourceDeltas> MakeLineitemInsertsUpdatesOnly(
    const Catalog& catalog, const Config& config, double fraction,
    uint64_t seed);

// Inserts lines for orders that have none — every affected view row is new,
// so the view only *inserts* (Fig. 35).
Result<ivm::SourceDeltas> MakeLineitemInsertsNewKeys(const Catalog& catalog,
                                                     const Config& config,
                                                     double fraction,
                                                     uint64_t seed);

// Mixed insert batch (Fig. 38 / 41): half update-causing, half new-key.
Result<ivm::SourceDeltas> MakeLineitemInsertsMixed(const Catalog& catalog,
                                                   const Config& config,
                                                   double fraction,
                                                   uint64_t seed);

// Hot-key churn workload: `num_batches` delta batches, each touching
// `rows_per_batch` distinct lineitem rows drawn from a Zipf(theta)
// popularity distribution over the row positions (rank r has weight
// 1 / (r+1)^theta; theta = 0 degenerates to uniform). Each touch deletes
// the row's *current* version and inserts a mutated one (fresh quantity
// and extendedprice, same key), so under skew a few hot keys churn over
// and over — the churn DeltaBatcher compaction folds away. Batches are
// sequentially consistent: batch N's deletes match the row state after
// batches 0..N-1 applied, and each batch's sampled keys are distinct
// (ValidateDeltas-clean). Deterministic in (catalog contents, num_batches,
// rows_per_batch, theta, seed).
Result<std::vector<ivm::SourceDeltas>> MakeLineitemZipfChurn(
    const Catalog& catalog, size_t num_batches, size_t rows_per_batch,
    double theta, uint64_t seed);

}  // namespace gpivot::tpch

#endif  // GPIVOT_TPCH_DBGEN_H_
