"""Runs one workload in this (fresh) interpreter and prints one JSON line.

Started by run.py with the thread pools pinned and `src` on PYTHONPATH.
Each op is a CLI command issued in-process through qtransient.cli.main,
closed loop with one client: a command starts when the previous returns.
Its CSV is captured and parsed with qtransient.config.parse_csv.

A run makes --seconds / pass_s passes of the workload, at least two, so
the number of samples depends on --seconds alone and not on how fast the
program or the host is: two commits are measured with as many samples.
With --trace 1 untraced and traced passes alternate; the traced CSV must
match the untraced bytes exactly.  With --trace 0 the run also times
SETUP_RUNS fresh interpreters importing qtransient.cli, one after each
command until there are enough, so the samples spread across the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracer
import workloads
from qtransient import cli
from qtransient.config import parse_csv

EXIT_NUMERICAL = 3   # qtransient.cli: the program gave up and said why
MIN_PASSES = 2
SETUP_RUNS = 7
# the child stamps the end itself: subprocess's wait with a timeout polls
# every 50 ms, which would round the samples to that step
SETUP_ARGV = (sys.executable, "-c",
              "import qtransient.cli, time; print(time.monotonic())")


def run_command(cmd, seen):
    """Run one command; returns (seconds, csv_text, verdicts, wrong)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
    except Exception:
        elapsed = time.perf_counter() - start
        reason = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        return elapsed, "", [f"crashed: {reason}"] * cmd.ops, True
    elapsed = time.perf_counter() - start
    if code != 0:
        reason = f"exit {code}: {err.getvalue().strip()}"
        return elapsed, "", [reason] * cmd.ops, code != EXIT_NUMERICAL
    text = out.getvalue()
    try:
        _, columns, rows = parse_csv(text)
        verdicts = cmd.check(columns, rows, seen)
    except Exception as exc:   # malformed output is a wrong result
        verdicts = [f"unreadable output: {exc!r}"]
    if len(verdicts) != cmd.ops:
        verdicts = [f"{len(verdicts)} results, want {cmd.ops}"] * cmd.ops
    return elapsed, text, verdicts, any(v is not None for v in verdicts)


def setup_seconds():
    """Wall time from starting a fresh interpreter to qtransient.cli imported."""
    start = time.monotonic()   # one clock for every process on the machine
    proc = subprocess.run(SETUP_ARGV, check=True, timeout=60,
                          capture_output=True, text=True)
    return float(proc.stdout) - start


def run_pass(cmds, log, after_command):
    """Every command once, in order; returns the pass record."""
    times, texts, ok, bad, wrong, seen = [], [], 0, 0, False, {}
    for cmd in cmds:
        elapsed, text, verdicts, w = run_command(cmd, seen)
        after_command()
        times.append(elapsed)
        texts.append(text)
        wrong |= w
        for v in verdicts:
            ok += v is None
            bad += v is not None
            if v is not None:
                log(f"# failed op: {' '.join(cmd.argv)}: {v}")
    return {"times": times, "texts": texts, "ok": ok, "failed": bad,
            "wrong": wrong}


def pass_seconds(passes):
    """One pass assembled from the fastest run of each command.

    Other tenants of the host slow this one down by up to 1.5x for seconds
    to minutes at a time.  Slow-downs only add time, so the fastest of a
    command's runs is the steadiest estimate of its cost.
    """
    return sum(min(ts) for ts in zip(*(p["times"] for p in passes)))


def run_rounds(cmds, passes, tracer_, log):
    """`passes` untraced passes, or, when tracing, `passes` // 2 rounds of
    an untraced and a traced pass.  Returns the untraced and traced passes
    and the set-up samples (none when tracing).
    """
    plain, traced, setups = [], [], []

    def sample_setup():
        if tracer_ is None and len(setups) < SETUP_RUNS:
            setups.append(setup_seconds())

    for _ in range(passes if tracer_ is None else passes // 2):
        plain.append(run_pass(cmds, log, sample_setup))
        if tracer_ is not None:
            tracer_.install()
            try:
                traced.append(run_pass(cmds, log, sample_setup))
            finally:
                tracer_.uninstall()
    while tracer_ is None and len(setups) < SETUP_RUNS:
        sample_setup()
    return plain, traced, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    cmds = workloads.build(args.workload, args.seed)
    passes = max(MIN_PASSES, round(args.seconds / workload.pass_s))
    notes = []
    log = notes.append
    for cmd in cmds:
        log(f"# argv: {json.dumps(list(cmd.argv))}")

    t = tracer.Tracer() if args.trace else None
    plain, traced, setups = run_rounds(cmds, passes, t, log)
    wall_s = pass_seconds(plain)
    metrics = {}
    if t is not None:
        metrics = tracer.layer_metrics(t.spans, passes=len(traced))
        traced_wall = pass_seconds(traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        for p in traced:
            if p["texts"] != plain[0]["texts"]:
                p["wrong"] = True
                log("# traced CSV differs from the untraced CSV")

    every = plain + traced
    oracle = [workloads.oracle_rel_err(*parse_csv(text)[1:])
              for p in every for cmd, text in zip(cmds, p["texts"])
              if "oracle-compare" in cmd.argv and text]
    result = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "wall_s": wall_s,
        # the fastest sample, for the same reason as wall_s
        "setup_s": min(setups) if setups else None,
        "ops_per_s": statistics.median(p["ok"] for p in plain) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_rel_err": max(oracle) if oracle else None,
        "attempted": sum(p["ok"] + p["failed"] for p in every),
        "failed": sum(p["failed"] for p in every),
        "correct": not any(p["wrong"] for p in every),
        "per_layer": metrics,
    }
    for line in dict.fromkeys(notes):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
