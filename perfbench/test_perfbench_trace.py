"""The benchmark's tracer is transparent to the program it wraps."""

import contextlib
import importlib
import io
import json
from pathlib import Path

import run
import tracer
from qtransient import cli

GAAS = ["--V", "0.3", "--E", "0.001", "--L", "4", "--mass-ratio", "0.067"]
COMMANDS = (
    GAAS + ["--threads", "2", "scan-freq-x", "--grid", "2:4:2"],
    GAAS + ["--threads", "1", "oracle-compare", "--tmin", "1", "--tmax", "3",
            "--steps", "3"],
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _bound():
    return {(m, a): getattr(importlib.import_module(f"qtransient.{m}"), a)
            for m, a, _ in tracer.BOUNDARIES}


def test_traced_run_is_byte_identical_and_restores_every_function():
    before = _bound()
    plain = [_run(argv) for argv in COMMANDS]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(f is not before[k] for k, f in _bound().items())
        traced = [_run(argv) for argv in COMMANDS]
    finally:
        t.uninstall()
    assert traced == plain
    assert all(f is before[k] for k, f in _bound().items())

    m = {k: v for k, (v, _) in tracer.layer_metrics(t.spans).items()}
    assert m["cli.commands"] == 2 and m["cli.threads"] == 2
    assert m["analysis.peaks"] == 2
    assert m["faddeeva.points"] == (m["faddeeva.points.trapezoid"]
                                    + m["faddeeva.points.contfrac"]
                                    + m["faddeeva.points.reflected"]) > 0
    assert m["oracle.steps"] > 0 and m["oracle.nodes"] > 0
    # spans opened on the scan's pool threads hang under the command's span
    peaks = [s for s in t.spans if s.layer == "analysis.peak"]
    assert all(s.parent is not None and s.parent.layer == "cli.main"
               for s in peaks)


def _span(layer, parent, start, end, book=0.0):
    s = tracer.Span(layer, parent)
    s.start, s.end, s.book = start, end, book
    return s


def test_self_times_leave_out_bookkeeping_and_the_cli_root():
    root = _span("cli.main", None, 0.0, 10.0)
    kernel = _span("faddeeva", root, 1.0, 4.0, book=0.5)
    m = {k: v for k, (v, _) in tracer.layer_metrics([root, kernel]).items()}
    assert m["faddeeva.self_s"] == 3.0
    # the kernel's bookkeeping is in neither the kernel nor its parent
    assert m["cli.self_s"] == 6.5
    # cli.main's own time is explained by no layer
    assert m["trace.self_share"] == 0.3


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    # worker.py adds the traced wall time and the tracing overhead
    layers = {k: u for k, (_, u) in tracer.layer_metrics([]).items()}
    assert per_layer == dict(layers, **{"trace.wall_s": "s",
                                        "trace.overhead_s": "s"})
