"""The benchmark's per-layer metrics name spans the package still has.

``bench/run.py`` reports a per-layer metric whose span the tracer did not
wrap as ``absent:`` and leaves it out of its result line, so renaming or
deleting a function under ``src/`` can silently drop a metric.  This
derives each metric's span the way ``bench/run.py`` does and checks it
against what ``bench/tracing.py`` wraps.  ``bench/`` is only read here.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name: str):
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_per_layer_metrics_are_wrapped(monkeypatch):
    # bench/run.py puts bench/ on sys.path for its own imports; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load_bench_module("run")  # imports Tracer from bench/tracing.py
    import crosspeak.cli  # noqa: F401  (the modules a CLI run has loaded)

    tracer = run.Tracer()
    with tracer.installed():
        pass
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = {}
    for name in (m["name"] for m in metrics):
        if name.startswith("setup.import.") or name == "trace.overhead_pct":
            continue
        if name in run.COUNT_SOURCES:
            spans[name] = run.COUNT_SOURCES[name]
        elif name.endswith(".self_ms"):
            spans[name] = name[: -len(".self_ms")]
        else:
            assert name.endswith(".calls") or name in run.CALL_ALIASES, name
            spans[name] = run.CALL_ALIASES.get(name, name[: -len(".calls")])
    assert spans
    absent = sorted(name for name, span in spans.items() if span not in tracer.wrapped)
    assert absent == []
