"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads basis,graded]
        [--trace 0|1] [--out FILE]

Each run is a separate `run.py` process, one after another.  For every
workload and metric the summary gives the median, the quartiles and the
spread (interquartile distance / median) over the seeds, plus the output
digest of every run.  Runs on different path backends are never pooled:
collect stops if they differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=600, cwd=HERE.parent)
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((HERE / "out" / f"{stem}.json").read_text())


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {"run_seconds": BENCHMARK["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.trace) for seed in args.seeds]
        backends = {r["environment"]["backend"] for r in runs}
        if len(backends) > 1:
            raise SystemExit(f"runs mix path backends {sorted(backends)}; not pooled")
        names = runs[0]["result"]["metrics"]
        summary["environment"] = {k: v for k, v in runs[0]["environment"].items() if k != "seed"}
        summary["workloads"][workload] = {
            "seeds": args.seeds,
            "digests": {r["environment"]["seed"]: r["digest"] for r in runs},
            "failed": sum(r["result"]["failed"] for r in runs),
            "failed_frac": max(r["failed_frac"] for r in runs),
            "unchecked_frac": max(r["unchecked_frac"] for r in runs),
            "metrics": {
                name: dict(unit=names[name]["unit"], **summarise(
                    [r["result"]["metrics"][name]["value"] for r in runs]))
                for name in names
            },
        }
        result = summary["workloads"][workload]
        print(f"{workload:10s} failed_frac {result['failed_frac']:.6g} ratio, "
              f"unchecked_frac {result['unchecked_frac']:.6g} ratio (worst run)")
        for name, m in result["metrics"].items():
            print(f"{workload:10s} {name:40s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
