"""End-to-end and per-layer benchmark for quasi3.

Usage, from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload {basis,graded,identities} \\
        --seed N --seconds S --trace {0,1}

One run is one fresh, single-threaded process serving one closed-loop
client: each request starts only after the previous one finished.  The
workload's requests are generated from --seed before timing starts (see
workloads.py for what each workload runs and why).  A pass runs every
request once; passes repeat until --seconds have elapsed and at least the
workload's minimum number of passes ran; an untimed pass over the tiny
version of the workload warms up every code path first.  Every output is
then checked by an independent route, and a failed check counts as a
failed request.

--trace 0 reports the end-to-end metrics, every time in host-adjusted
units (see below):
  wall_s        median time of one pass over the workload's requests
  op_ms.p50     median request latency (nearest rank, as for the tail)
  op_ms.tail    latency at the highest percentile with at least 10 samples
                beyond it, given the workload's minimum pass count
  setup_s       median over SETUP_REPEATS fresh interpreters of the time to
                import quasi3 and quasi3.cli and build the CLI parser
  peak_rss_mb   peak resident memory of this process
  verified_frac requests whose output passed every check / attempted
  checked_frac  requests with no verdict reported as skipped / attempted

Host-adjusted times.  A shared host can change speed by a third or more
over minutes, for every process alike.  So a gauge, a fixed piece of the
benchmark's own exact arithmetic (exact.py), is timed between requests
whenever GAUGE_EVERY_S have passed since the last one, after every pass
and between the set-up imports.  A request's latency is multiplied by
GAUGE_REF_S / (median of the two gauges timed last before it and the two
timed first after it), the set-up time by GAUGE_REF_S / (median of its
gauges): each is reported as it would be on a host where the gauge takes
GAUGE_REF_S.  A pass's adjusted time is the sum of its adjusted
latencies.  No gauge runs inside a timed interval.  The measured times
and each pass's overall scale are printed and kept too.

--trace 1 runs one untraced pass, then at least two traced passes, and
reports the per-layer metrics (see tracer.py): <layer>.<function>.calls
and .self_s (median self time over traced passes), the named counts of
one pass, bench.self_s (time spent in the benchmark's own loop),
tracing.overhead_s and tracing.accounted_frac.  Counts that differ
between traced passes of the same inputs are listed as unsteady.

Human-readable lines come first, including the environment (Python,
nproc, seed, commit, path backend) and a digest of the concatenated
outputs; the last line is the JSON result.  Full results, and for traced
runs the spans of the first traced pass, go to perfbench/out/.  The run
exits 2 without a result when the quasi3 sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
GAUGE_REF_S = 0.009  # seconds; near the gauge's time on a 2-vCPU Xeon 2.1 GHz host
GAUGE_EVERY_S = 0.25

SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import quasi3, quasi3.cli\n"
    "quasi3.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def load_package():
    """Import quasi3 from this checkout's src/, never from elsewhere."""
    if not (SRC / "quasi3" / "__init__.py").is_file():
        print(f"error: quasi3 sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import quasi3

    if Path(quasi3.__file__).resolve().parent != SRC / "quasi3":
        print(f"error: imported quasi3 from {quasi3.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return quasi3


class Gauge:
    """Times a fixed piece of exact arithmetic, to follow the host's speed."""

    def __init__(self):
        import exact

        self.exact = exact
        self.P = exact.vandermonde_power(5)
        self.Q = {(i, j, 4 - i - j): i - j + 3 for i in range(5) for j in range(5 - i)}
        self.M = [[Fraction(i * j + 1, i + j + 1) for j in range(5)] for i in range(5)]
        self.last = -GAUGE_EVERY_S

    def due(self):
        return time.perf_counter() - self.last >= GAUGE_EVERY_S

    def __call__(self):
        """Seconds one gauge takes."""
        start = time.perf_counter()
        self.exact.pmul(self.P, self.Q)
        self.exact.leibniz_det(self.M)
        self.last = time.perf_counter()
        return self.last - start


def scale(gauged):
    """Factor taking times measured alongside these gauges to GAUGE_REF_S."""
    return GAUGE_REF_S / statistics.median(gauged)


def request_scales(gauged, before):
    """Scale of each request, from the two gauges timed last before it and
    the two timed first after it; before[i] gauges preceded request i."""
    ends = before[1:] + [len(gauged)]
    return [scale(gauged[max(0, b - 2):e + 2]) for b, e in zip(before, ends)]


def measure_setup(gauge):
    """Median seconds from a fresh interpreter to quasi3.cli being ready,
    and the gauges timed between the imports."""
    times, gauged = [], [gauge()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        times.append(float(done.stdout))
        gauged.append(gauge())
    return statistics.median(times), gauged


def environment(quasi3, seed):
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
            text=True, timeout=10, cwd=ROOT,
        ).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:  # not an enclosing repository
            commit = head.strip()
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "quasi3").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    backend = getattr(quasi3.paths, "backend", lambda: "pure-python")()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "backend": backend,
    }


def run_pass(workload, tracer=None, gauge=None):
    """Serve every request once.  Returns wall seconds, latencies, results
    and each request's host scale (1 without a gauge); the wall excludes
    the gauges."""
    latencies, results, gauged, before = [], [], [], []
    start = time.perf_counter()
    for req in workload.requests:
        if gauge is not None and gauge.due():
            gauged.append(gauge())
        before.append(len(gauged))
        t0 = time.perf_counter()
        with tracer.span("bench.request") if tracer else nullcontext():
            try:
                results.append(req.call())
            except Exception as exc:  # counted as a failed request
                results.append(exc)
        latencies.append(time.perf_counter() - t0)
    if gauge is None:
        return time.perf_counter() - start, latencies, results, [1.0] * len(latencies)
    gauged.append(gauge())
    wall = time.perf_counter() - start - sum(gauged)
    return wall, latencies, results, request_scales(gauged, before)


def check_pass(workload, results):
    """Statuses ('ok', 'unchecked' or a failure text) and the output digest."""
    import workloads

    digest = hashlib.sha256()
    statuses = []
    for req, result in zip(workload.requests, results):
        if isinstance(result, Exception):
            statuses.append(f"{req.label}: {type(result).__name__}: {result}")
            digest.update(f"error {type(result).__name__}\n".encode())
            continue
        digest.update(req.text(result).encode() + b"\n")
        try:
            statuses.append(req.check(result))
        except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
            statuses.append(f"{req.label}: {exc}")
    return statuses, digest.hexdigest()


def tail_level(requests_per_pass, min_passes):
    """Highest percentile leaving TAIL_BEYOND samples beyond it in min_passes."""
    samples = requests_per_pass * min_passes
    return max(0.0, 100.0 * (1 - TAIL_BEYOND / samples))


def percentile(values, level):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * level // 100))
    return ordered[int(rank) - 1]


def run(workload_name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result line dict, details dict)."""
    quasi3 = load_package()
    import tracer as tracing
    import workloads

    gauge = Gauge()
    setup_raw, setup_gauged = measure_setup(gauge)
    work_dir = OUT / f"inputs-{workload_name}-{seed}"
    workload = workloads.WORKLOADS[workload_name](seed, work_dir, tiny=tiny)
    # Untimed warm-up: every kind of request once, at the tiny sizes.
    run_pass(workloads.WORKLOADS[workload_name](seed, work_dir / "warm-up", tiny=True))

    passes = []
    started = time.perf_counter()
    untraced = None
    active = None
    if trace:
        untraced = run_pass(workload)[0]
        active = tracing.Tracer()
        active.install()
    try:
        while True:
            if active is not None:
                active.reset()
                active.recording = not passes
            wall, latencies, results, scales = run_pass(
                workload, active, None if trace else gauge)
            layers = active.snapshot(wall) if active is not None else None
            statuses, digest = check_pass(workload, results)
            passes.append(dict(wall=wall, latencies=latencies, statuses=statuses,
                               digest=digest, layers=layers,
                               adjusted=[x * k for x, k in zip(latencies, scales)]))
            elapsed = time.perf_counter() - started
            enough = len(passes) >= (2 if trace else workload.min_passes)
            if enough and elapsed + wall > seconds:
                break
    finally:
        if active is not None:
            active.uninstall()

    latencies = [x for p in passes for x in p["latencies"]]
    adjusted = [x for p in passes for x in p["adjusted"]]
    statuses = [s for p in passes for s in p["statuses"]]
    digests = {p["digest"] for p in passes}
    attempted = len(statuses)
    failures = [s for s in statuses if s not in (workloads.OK, workloads.UNCHECKED)]
    unchecked = statuses.count(workloads.UNCHECKED)
    if len(digests) > 1:
        failures.append("outputs differ between passes of the same inputs")
    level = tail_level(len(workload.requests), workload.min_passes)
    wall_s = statistics.median(sum(p["adjusted"]) if not trace else p["wall"]
                               for p in passes)
    setup_s = setup_raw * scale(setup_gauged)

    details = {
        "workload": workload_name,
        "why": workload.why,
        "environment": environment(quasi3, seed),
        "trace": trace,
        "passes": len(passes),
        "requests_per_pass": len(workload.requests),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_scale": [sum(p["adjusted"]) / sum(p["latencies"]) for p in passes],
        "setup_scale": scale(setup_gauged),
        "measured": {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "op_ms.p50": 1000 * percentile(latencies, 50),
            "op_ms.tail": 1000 * percentile(latencies, level),
            "setup_s": setup_raw,
        },
        "digest": sorted(digests)[0],
        "tail_percentile": level,
        "latency_samples": len(latencies),
        "failed_frac": len(failures) / attempted,
        "unchecked_frac": unchecked / attempted,
        "failures": failures[:20],
        "median_ms_by_request": {
            req.label: 1000 * statistics.median(p["latencies"][i] for p in passes)
            for i, req in enumerate(workload.requests)
        },
    }
    if trace:
        metrics = per_layer_metrics([p["layers"] for p in passes])
        metrics["tracing.overhead_s"] = (wall_s - untraced, "s")  # both measured
        details["missing_layers"] = active.missing
        details["hook_errors"] = active.hook_errors
        details["unsteady_counts"] = unsteady_counts(passes)
        details["spans_dropped"] = active.dropped
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "op_ms.p50": (1000 * percentile(adjusted, 50), "ms"),
            "op_ms.tail": (1000 * percentile(adjusted, level), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "verified_frac": (1 - len(failures) / attempted, "ratio"),
            "checked_frac": (1 - unchecked / attempted, "ratio"),
        }
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details["result"] = line
    OUT.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if trace:
        active.write_spans(OUT / f"spans-{stem}.txt.gz")
    return line, details


def per_layer_metrics(snapshots):
    """Median times and ratio over traced passes; counts from the first."""
    metrics = {}
    for name, value in snapshots[0].items():
        if name.endswith("_s"):
            metrics[name] = (statistics.median(s[name] for s in snapshots), "s")
        elif name.endswith("_frac"):
            metrics[name] = (statistics.median(s[name] for s in snapshots), "ratio")
        elif name.endswith("_ratio"):
            metrics[name] = (value, "ratio")
        else:
            metrics[name] = (value, "count")
    return metrics


def unsteady_counts(passes):
    """Named counts that did not repeat exactly between traced passes."""
    snapshots = [p["layers"] for p in passes]
    return sorted(
        name for name, value in snapshots[0].items()
        if not name.endswith(("_s", "_frac")) and any(s[name] != value for s in snapshots)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=("basis", "graded", "identities"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    line, details = run(args.workload, args.seed, args.seconds, args.trace)
    env = details["environment"]
    print(f"workload {args.workload}: {details['why']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if env["backend"] != "pure-python":
        print(f"NOTE: {env['backend']} backend; do not compare with pure-Python runs")
    print(f"passes {details['passes']} x {details['requests_per_pass']} requests; "
          f"output digest {details['digest']}")
    print(f"tail = p{details['tail_percentile']:.2f} of {details['latency_samples']} samples")
    print(f"failed_frac {details['failed_frac']:.6g} ratio; "
          f"unchecked_frac {details['unchecked_frac']:.6g} ratio")
    if not args.trace:
        print("measured, before host adjustment: " + ", ".join(
            f"{k} {v:.6g}" for k, v in details["measured"].items()))
        print("host scale: set-up {:.4g}, passes {}".format(
            details["setup_scale"], " ".join(f"{x:.4g}" for x in details["pass_scale"])))
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    for key in ("missing_layers", "unsteady_counts"):
        if details.get(key):
            print(f"{key}: {', '.join(details[key])}")
    for name, metric in line["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
