#ifndef AGGRECOL_CORE_PAIR_SCREEN_H_
#define AGGRECOL_CORE_PAIR_SCREEN_H_

#include <cmath>
#include <limits>

namespace aggrecol::core {

/// Division-free certain-miss screens for one pair (b, c) of a pairwise
/// function against an observed aggregate. The reference test
///   ErrorLevel(obs, ApplyPairwise(f, b, c)) <= level + slack
/// is multiplied through by the function's denominator, turning it into one
/// absolute comparison per pair (no division, no optional, no call), with
/// `threshold` = (level + slack) * |obs|, or level + slack when obs == 0
/// (the reference error is absolute there; then obs * denominator = 0 and
/// the same formulas cover the case without a branch).
///
/// MayHit is false only for a certain miss: the eps terms and kInflate
/// absorb the relative rounding of the reference's division and of the
/// screen's own terms, and the kUnderflowSlack term (the smallest normal
/// number, scaled by 1 + |divisor|) the absolute rounding — at most half
/// the smallest denormal per operation — of a quotient, a product or a
/// threshold that lands below the normal range, where relative bounds fail. Every pair that passes replays the exact ApplyPairwise +
/// ErrorLevel decision, so a caller stays bit-identical to the naive scan.
/// A NaN comparison is not a certain miss: it passes to the exact replay.
/// The bitwise & keeps each screen branch-free, so a loop over c vectorizes.
///
/// The window kernel (window_strategy.cc) and pairwise extension
/// (extension.cc) share these screens; the window kernel's O(1) window and
/// row bounds are written to dominate exactly these right-hand sides.
struct PairScreenTerms {
  static constexpr double kEps = std::numeric_limits<double>::epsilon();
  static constexpr double kInflate = 1.0 + 32.0 * kEps;
  // Far above the few denormals it has to cover, but itself a normal
  // number: arithmetic on a denormal operand is slow on common hardware,
  // and this term enters every screen evaluation.
  static constexpr double kUnderflowSlack = std::numeric_limits<double>::min();
};

struct DifferenceScreen : PairScreenTerms {
  // |(b - c) - obs| > (level + slack) * |obs|  => miss. A difference that
  // lands below the normal range is exact, so no underflow term is needed.
  static bool MayHit(double b, double c, double observed, double threshold) {
    const double diff = b - c;
    return !(std::fabs(diff - observed) >
             (threshold + kEps * std::fabs(diff)) * kInflate);
  }
};

struct DivisionScreen : PairScreenTerms {
  // b / c vs obs, scaled by |c|: |b - obs*c| > thr*|c|  => miss; the
  // reference skips c == 0 (ApplyPairwise is undefined there).
  static bool MayHit(double b, double c, double observed, double threshold) {
    const double target = observed * c;
    return (c != 0.0) &
           !(std::fabs(b - target) >
             (threshold * std::fabs(c) + kEps * std::fabs(target) +
              kUnderflowSlack * (1.0 + std::fabs(c))) *
                 kInflate);
  }
};

struct RelativeChangeScreen : PairScreenTerms {
  // (c - b) / b vs obs, scaled by |b|: |(c-b) - obs*b| > thr*|b|  => miss;
  // the reference skips b == 0.
  static bool MayHit(double b, double c, double observed, double threshold) {
    const double diff = c - b;
    const double target = observed * b;
    return (b != 0.0) &
           !(std::fabs(diff - target) >
             (threshold * std::fabs(b) +
              kEps * (std::fabs(diff) + std::fabs(target)) +
              kUnderflowSlack * (1.0 + std::fabs(b))) *
                 kInflate);
  }
};

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_PAIR_SCREEN_H_
