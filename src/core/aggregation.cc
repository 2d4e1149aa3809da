#include "core/aggregation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace aggrecol::core {

std::string ToString(Axis axis) { return axis == Axis::kRow ? "row" : "column"; }

double ErrorLevel(double observed, double calculated) {
  if (observed == 0.0) return std::fabs(calculated - observed);
  return std::fabs((calculated - observed) / observed);
}

namespace {

std::string RangeToString(const std::vector<int>& range) {
  std::ostringstream oss;
  oss << "{";
  for (size_t i = 0; i < range.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << range[i];
  }
  oss << "}";
  return oss.str();
}

}  // namespace

std::string ToString(const Aggregation& aggregation) {
  std::ostringstream oss;
  oss << "(" << ToString(aggregation.axis) << ":" << aggregation.line << ", "
      << aggregation.aggregate << " <- " << RangeToString(aggregation.range) << ", "
      << ToString(aggregation.function) << ", e=" << aggregation.error << ")";
  return oss.str();
}

Pattern PatternOf(const Aggregation& aggregation) {
  return Pattern{aggregation.axis, aggregation.aggregate, aggregation.range,
                 aggregation.function};
}

std::string ToString(const Pattern& pattern) {
  std::ostringstream oss;
  oss << ToString(pattern.function) << " [" << ToString(pattern.axis) << "]: "
      << pattern.aggregate << " <- " << RangeToString(pattern.range);
  return oss.str();
}

bool PatternLess(const Aggregation& a, const Aggregation& b) {
  if (a.axis != b.axis) return a.axis < b.axis;
  if (a.aggregate != b.aggregate) return a.aggregate < b.aggregate;
  if (a.range != b.range) return a.range < b.range;
  return a.function < b.function;
}

bool SamePattern(const Aggregation& a, const Aggregation& b) {
  return a.axis == b.axis && a.aggregate == b.aggregate &&
         a.function == b.function && a.range == b.range;
}

std::vector<size_t> OrderByPattern(const std::vector<Aggregation>& aggregations) {
  std::vector<size_t> order(aggregations.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&aggregations](size_t a, size_t b) {
    return PatternLess(aggregations[a], aggregations[b]);
  });
  return order;
}

Aggregation Canonicalize(const Aggregation& aggregation) {
  Aggregation out = aggregation;
  if (out.function == AggregationFunction::kDifference && out.range.size() == 2) {
    // A = B - C  ==>  B = A + C.
    const int a = out.aggregate;
    const int b = out.range[0];
    const int c = out.range[1];
    out.aggregate = b;
    out.range = {a, c};
    out.function = AggregationFunction::kSum;
  }
  if (TraitsOf(out.function).commutative) {
    std::sort(out.range.begin(), out.range.end());
  }
  return out;
}

bool AggregationLess(const Aggregation& a, const Aggregation& b) {
  if (a.axis != b.axis) return a.axis < b.axis;
  if (a.line != b.line) return a.line < b.line;
  if (a.aggregate != b.aggregate) return a.aggregate < b.aggregate;
  if (a.function != b.function) return a.function < b.function;
  return a.range < b.range;
}

std::vector<size_t> OrderByIdentity(const std::vector<Aggregation>& aggregations) {
  std::vector<size_t> order(aggregations.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&aggregations](size_t a, size_t b) {
    return AggregationLess(aggregations[a], aggregations[b]);
  });
  return order;
}

bool ContainsIdentity(const std::vector<Aggregation>& aggregations,
                      const std::vector<size_t>& order, const Aggregation& wanted) {
  const auto at = std::lower_bound(
      order.begin(), order.end(), wanted,
      [&aggregations](size_t i, const Aggregation& value) {
        return AggregationLess(aggregations[i], value);
      });
  return at != order.end() && !AggregationLess(wanted, aggregations[*at]);
}

std::vector<Aggregation> CanonicalizeAll(const std::vector<Aggregation>& aggregations) {
  std::vector<Aggregation> out;
  out.reserve(aggregations.size());
  for (const auto& aggregation : aggregations) {
    out.push_back(Canonicalize(aggregation));
  }
  std::sort(out.begin(), out.end(), AggregationLess);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace aggrecol::core
