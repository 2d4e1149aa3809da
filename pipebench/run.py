#!/usr/bin/env python3
"""Pipeline benchmark of aggrecol: file bytes to DetectionResult.

    python3 pipebench/run.py --workload validation|mixed --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the pipebench binary
(pipebench/CMakeLists.txt) into $CARGO_TARGET_DIR/pipebench (default
.bench_build/pipebench), runs it and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave the checkout as found
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("validation", "mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HOL_FACTOR = 10.0

# Seconds of one host-gauge sample (pipebench.cc, HostGauge), median on the
# 4-core Xeon (Sapphire Rapids) VM the bounds were set on. End-to-end
# timings are reported at that host speed: each measured time times
# GAUGE_REF_S over the gauge sampled around it.
GAUGE_REF_S = 0.0079

# Replay layers from here on are detection (what BatchFileReport.seconds
# covers); the ones before are ingest.
FIRST_DETECT_LAYER = "numfmt.elect.detect"

COUNTERS = (
    "csv.sniff.candidates",
    "csv.parse.cells",
    "individual.candidates.adjacency",
    "individual.candidates.window",
    "prune.input.candidates",
    "prune.r1_coverage.candidates",
    "stage2.input.candidates",
    "stage3.rounds",
    "stage3.configurations",
    "stage3.fresh",
    "stage3.returned",
)
FUNCTIONS = ("sum", "difference", "average", "division", "relative_change")


def fail(message, code=1):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the pipebench binary; returns its build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no aggrecol sources under {ROOT}/src", 2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "pipebench")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pipebench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}", 2)
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}", 2)
    return build_dir


def p97(samples):
    """The tail percentile BENCHMARK.json names. It must be the highest with
    at least stats.MIN_BEYOND samples beyond it, as for 385 files."""
    if stats.select_tail_percentile(len(samples)) != 97.0:
        raise ValueError(f"p97 is not the tail percentile of {len(samples)} samples")
    return stats.tail_percentile(samples, 97.0)


def reduce_end_to_end(raw):
    """End-to-end metrics of an untraced run, every timing at the reference
    host speed."""
    files = raw["files"]

    def steady(seconds, host_s):
        return stats.at_reference_speed(seconds, host_s, GAUGE_REF_S)

    passes = [steady(p["file_seconds"], p["file_host_s"]) for p in raw["passes"]]
    walls = steady([p["wall_s"] for p in raw["passes"]], [p["host_s"] for p in raw["passes"]])
    cpus = steady([p["cpu_s"] for p in raw["passes"]], [p["host_s"] for p in raw["passes"]])
    small = [i for i, f in enumerate(files) if not f["tall"]]
    if raw["threads"] == 1:
        # Sequential: each file's median over passes. Host bursts, slow or
        # fast, drop out; a best pass would keep the fast ones.
        typical = stats.median_of_passes(passes)
        sizes = [f["rows"] for f in files]
        files_per_s = len(files) / sum(typical)
        p50, tail = stats.median(typical), p97(typical)
        exponent = stats.fit_exponent(sizes, typical)
    else:
        # Concurrent: the median pass. Every pass is a whole batch with its
        # interference, which taking each file's best pass would hide.
        sizes = [files[i]["rows"] for i in small]
        latency = [[p[i] for i in small] for p in passes]
        files_per_s = stats.median([len(files) / wall for wall in walls])
        p50 = stats.median([stats.median(x) for x in latency])
        tail = stats.median([p97(x) for x in latency])
        exponent = stats.median([stats.fit_exponent(sizes, x) for x in latency])
    return {
        "files_per_s": files_per_s,
        "file_ms_p50": 1e3 * p50,
        "file_ms_p97": 1e3 * tail,
        "scaling_exp": exponent,
        "cpu_s": stats.median(cpus),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": stats.median(steady(raw["setup_s"], raw["setup_host_s"])),
        "f1": raw["f1"],
        "ok_frac": raw["ok"] / raw["attempted"],
    }


def reduce_trace(raw):
    """Per-layer metrics of a traced run."""
    files = raw["files"]
    names = raw["layers"]
    first_detect = names.index(FIRST_DETECT_LAYER)
    untraced_passes = [p["file_seconds"] for p in raw["sequential_passes"]]
    # Each file's calmest paired pass: the one where its replay and its
    # untraced run, taken back to back, add up to the least time.
    pairs = [min(((replay[f], untraced[f])
                  for replay, untraced in zip(raw["replay"], untraced_passes)),
                 key=lambda pair: sum(pair[0]) + pair[1])
             for f in range(len(files))]
    layer = {name: sum(r[i] for r, _ in pairs) for i, name in enumerate(names)}
    replay_detect = sum(sum(r[first_detect:]) for r, _ in pairs)
    untraced = sum(u for _, u in pairs)
    sequential_best = stats.best_of_passes(untraced_passes)

    small = [i for i, f in enumerate(files) if not f["tall"]]
    interference, victims, busy = [], [], []
    for p in raw["passes"]:
        seconds = p["file_seconds"]
        interference.append(sum(seconds[i] - sequential_best[i] for i in small))
        victims.append(sum(seconds[i] > HOL_FACTOR * sequential_best[i] for i in small))
        busy.append(sum(seconds) / (raw["threads"] * p["wall_s"]))

    counters = raw["counters"]
    metrics = {
        "csv.map_s": layer["csv.map"],
        "csv.sniff_s": layer["csv.sniff"],
        "csv.parse_s": layer["csv.parse"],
        "numfmt.elect_s": layer["numfmt.elect.load"] + layer["numfmt.elect.detect"],
        "numfmt.normalize_s": layer["numfmt.normalize"],
        "numfmt.elect.files_per_file": counters["numfmt.elect.files"] / len(files),
    }
    for axis in ("rows", "columns"):
        metrics[f"stage1.{axis}_s"] = sum(layer[f"stage1.{axis}.{fn}"] for fn in FUNCTIONS)
        for fn in FUNCTIONS:
            metrics[f"stage1.{axis}.{fn}_s"] = layer[f"stage1.{axis}.{fn}"]
    metrics.update({
        "stage1.accept_ratio": ratio(counters["prune.accepted.candidates"],
                                     counters["prune.input.candidates"]),
        "stage2_s": layer["stage2"],
        "stage3.rows_s": layer["stage3.rows"],
        "stage3.columns_s": layer["stage3.columns"],
        "stage3.yield": ratio(counters["stage3.returned"], counters["stage3.configurations"]),
        "core.merge_s": layer["core.merge"],
        "eval.load_s": layer["eval.load"],
        "eval.score_s": layer["eval.score"],
        "batch.interference_s": stats.median(interference),
        "batch.hol_victims": stats.median(victims),
        "pool.busy_share": stats.median(busy),
        "trace.coverage": replay_detect / untraced,
        "trace.overhead_s": replay_detect - untraced,
    })
    for name in COUNTERS:
        metrics[name] = counters[name]
    return metrics


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build_dir = build()
    command = [os.path.join(build_dir, "pipebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work", os.path.join(build_dir, "work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pipebench exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"pipebench exited {done.returncode}")
    raw = json.loads(done.stdout)

    values = reduce_trace(raw) if args.trace else reduce_end_to_end(raw)
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        fail(f"emitted metrics differ from BENCHMARK.json: "
             f"{sorted(set(values) ^ set(units))}")
    for name in raw["failures"]:
        print(f"pipebench: mismatch or failed file: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
