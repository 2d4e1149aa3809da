#ifndef AGGRECOL_TESTS_TEST_SUPPORT_H_
#define AGGRECOL_TESTS_TEST_SUPPORT_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "csv/grid.h"
#include "numfmt/numeric_grid.h"

namespace aggrecol::testing {

/// Builds a Grid from row literals.
inline csv::Grid MakeGrid(std::initializer_list<std::vector<std::string>> rows) {
  return csv::Grid(std::vector<std::vector<std::string>>(rows));
}

/// Builds a normalized NumericGrid from row literals (comma/dot format).
inline numfmt::NumericGrid MakeNumeric(
    std::initializer_list<std::vector<std::string>> rows) {
  return numfmt::NumericGrid::FromGrid(MakeGrid(rows),
                                       numfmt::NumberFormat::kCommaDot);
}

/// An all-active column mask for `grid`.
inline std::vector<bool> AllActive(const numfmt::NumericGrid& grid) {
  return std::vector<bool>(grid.columns(), true);
}

/// Shorthand aggregation builder (row-wise unless axis given).
inline core::Aggregation Agg(int line, int aggregate, std::vector<int> range,
                             core::AggregationFunction function,
                             core::Axis axis = core::Axis::kRow, double error = 0.0) {
  core::Aggregation aggregation;
  aggregation.axis = axis;
  aggregation.line = line;
  aggregation.aggregate = aggregate;
  aggregation.range = std::move(range);
  aggregation.function = function;
  aggregation.error = error;
  return aggregation;
}

/// True if `aggregations` contains an aggregation with the given identity
/// (canonicalized commutative range order is NOT applied; exact match).
inline bool Contains(const std::vector<core::Aggregation>& aggregations,
                     const core::Aggregation& wanted) {
  for (const auto& aggregation : aggregations) {
    if (aggregation == wanted) return true;
  }
  return false;
}

/// True if `aggregations` contains `wanted` up to canonicalization
/// (difference folded into sum, commutative ranges sorted) — the equivalence
/// the evaluation uses (Sec. 4.3.2).
inline bool ContainsCanonical(const std::vector<core::Aggregation>& aggregations,
                              const core::Aggregation& wanted) {
  const core::Aggregation canonical_wanted = core::Canonicalize(wanted);
  for (const auto& aggregation : aggregations) {
    if (core::Canonicalize(aggregation) == canonical_wanted) return true;
  }
  return false;
}

/// Order-sensitive FNV-1a digest of an aggregation list: every identity
/// field plus the raw bits of `error`, so two lists digest equal only when
/// they are elementwise identical with bit-equal error levels. Golden tests
/// pin this value to catch any change in results, order or error bits.
inline uint64_t Digest(const std::vector<core::Aggregation>& aggregations) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  };
  for (const auto& aggregation : aggregations) {
    mix(static_cast<uint64_t>(aggregation.axis));
    mix(static_cast<uint64_t>(aggregation.line));
    mix(static_cast<uint64_t>(aggregation.aggregate));
    mix(static_cast<uint64_t>(aggregation.function));
    mix(aggregation.range.size());
    for (int cell : aggregation.range) mix(static_cast<uint64_t>(cell));
    uint64_t error_bits = 0;
    std::memcpy(&error_bits, &aggregation.error, sizeof(error_bits));
    mix(error_bits);
  }
  return hash;
}

/// The Figure 5 table of the paper: three sum aggregations (one cumulative)
/// and one division. Column 0 is the year label; columns per the paper:
///   a1: C1 = C2+...+C7   a2: C8 = C9+C10   a3: C12 = C1+C8+C11
///   a4: C13 = C9/C8
inline csv::Grid Figure5Grid() {
  return MakeGrid({
      {"Year", "Europe", "Bulgaria", "France", "Germany", "Poland", "Portugal",
       "Romania", "Africa", "Kenya", "Ethiopia", "Chile", "Total pop. change",
       "Kenya in Africa"},
      {"2013", "3703", "215", "930", "1278", "1216", "62", "2", "64", "58", "6",
       "128", "3895", "0.90625"},
      {"2014", "4038", "546", "959", "1145", "1388", "-243", "243", "22", "6", "16",
       "78", "4138", "0.27272727"},
      {"2015", "3900", "307", "736", "1573", "1263", "90", "-69", "23", "6", "17",
       "123", "4046", "0.26086957"},
      {"2016", "4830", "279", "1176", "1683", "135", "1548", "9", "19", "10", "9",
       "197", "5046", "0.52631579"},
      {"2017", "4944", "378", "1669", "2897", "-305", "228", "77", "22", "8", "14",
       "", "4966", "0.36363636"},
      {"2018", "5791", "900", "2583", "1148", "1127", "21", "13", "34", "21", "13",
       "", "5825", "0.61764706"},
      {"2019", "8266", "364", "4155", "3550", "164", "22", "11", "33", "14", "19",
       "", "8299", "0.42424242"},
  });
}

}  // namespace aggrecol::testing

#endif  // AGGRECOL_TESTS_TEST_SUPPORT_H_
