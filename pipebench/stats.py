"""Statistics of the pipeline benchmark: percentiles, tail selection, the
size-scaling exponent, the per-file reducers over passes and the rescaling
of times to a reference host speed."""

import math

# Percentiles a tail metric may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 97.0, 95.0, 90.0, 75.0, 50.0)

# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolation percentile: rank p/100 * (n - 1) between the
    two nearest order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def samples_beyond(n, p):
    """Number of order statistics strictly above the interpolation rank of
    percentile p among n samples."""
    return n - 1 - math.floor(p / 100.0 * (n - 1))


def select_tail_percentile(n, candidates=TAIL_CANDIDATES):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when not even the lowest has."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail_percentile(values, p):
    """Percentile p of values; refuses (ValueError) when fewer than
    MIN_BEYOND samples lie beyond it."""
    if samples_beyond(len(values), p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has fewer than {MIN_BEYOND} beyond it")
    return percentile(values, p)


def fit_exponent(sizes, seconds):
    """Least-squares slope of log(seconds) against log(size)."""
    if len(sizes) != len(seconds) or len(sizes) < 2:
        raise ValueError("need at least two (size, seconds) points")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all sizes are equal")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def at_reference_speed(seconds, host_s, reference_s):
    """Times rescaled to a host whose gauge reads reference_s: each
    seconds[i] * reference_s / host_s[i], host_s[i] being the gauge sampled
    around that time."""
    if len(seconds) != len(host_s) or any(h <= 0 for h in host_s):
        raise ValueError("need one positive gauge sample per time")
    return [s * reference_s / h for s, h in zip(seconds, host_s)]


def best_of_passes(passes):
    """Per-item minimum over passes; passes is a list of equal-length lists."""
    return [min(column) for column in _columns(passes)]


def median_of_passes(passes):
    """Per-item median over passes; passes is a list of equal-length lists."""
    return [median(column) for column in _columns(passes)]


def _columns(passes):
    if not passes or any(len(p) != len(passes[0]) for p in passes):
        raise ValueError("passes must be non-empty and of equal length")
    return zip(*passes)


def median(values):
    return percentile(values, 50.0)
