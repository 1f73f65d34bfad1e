"""qtransient benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload far-field --seed 1 --seconds 30 --trace 0

Run from the repository root.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run and its overhead;
--workload all runs every workload in turn.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Each workload runs in its own fresh interpreter (worker.py) with the
OpenBLAS/OpenMP pools pinned to one thread before numpy loads, so set-up
time and peak RSS belong to that workload.  Set-up time is the fastest of
several fresh interpreters importing qtransient.cli, spread across the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from importlib.metadata import version
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170.0   # the whole run, set-up included

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _versions():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git_sha": sha}


def run_workload(name, seed, seconds, trace, env, deadline):
    """One workload in a fresh interpreter; returns (notes, result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {name} exited {proc.returncode}")
    *notes, last = proc.stdout.splitlines()
    return notes, json.loads(last)


def _metrics(result, trace):
    if trace:
        return {k: {"value": v, "unit": u}
                for k, (v, u) in result["per_layer"].items()}
    return {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtransient" / "cli.py").is_file():
        print(f"error: no qtransient sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = (tuple(workloads.WORKLOADS) if args.workload == "all"
             else (args.workload,))
    deadline = time.monotonic() + TIMEOUT_S * len(names)
    env = _env()
    print("# " + json.dumps({"seed": args.seed, "nproc": os.cpu_count(),
                             "threads": workloads.THREADS, **_versions()}))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        notes, result = run_workload(
            name, args.seed, args.seconds, args.trace, env, deadline)
        metrics = _metrics(result, args.trace)
        print(f"# workload {name}: {workloads.WORKLOADS[name].why}")
        for line in notes:
            print(line)
        print(f"# passes: {result['passes']} untraced, "
              f"{result['traced_passes']} traced")
        # printed for reading only: zero or undefined on some workloads
        extra = {"failed_frac": (result["failed"] / result["attempted"], "ratio"),
                 "ops_per_s": (result["ops_per_s"], "1/s")}
        if result["oracle_rel_err"] is not None:
            extra["oracle_rel_err"] = (result["oracle_rel_err"], "ratio")
        for k, m in metrics.items():
            print(f"{name} {k} {m['value']:.6g} {m['unit']}")
        for k, (v, u) in extra.items():
            print(f"{name} {k} {v:.6g} {u}")
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: m for k, m in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
