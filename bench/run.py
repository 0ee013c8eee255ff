"""crosspeak benchmark: the crossings, invert, fit and map CLI workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload crossings --seed 1 --seconds 20 --trace 0

One closed-loop client calls ``crosspeak.cli.main(argv)`` in process,
one operation after the other, for ``--seconds`` seconds, and checks
every output against references computed apart from the program.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run (see bench/README.md).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# traced operations whose work counts are reported: a fixed prefix of the
# seeded sequence, so two traced runs with one seed give identical counts
COUNT_OPS = 8
# what every CLI call pays before its work, timed in a fresh interpreter
# that puts the checkout's src on its path itself
SETUP_CODE = """\
import sys, time
sys.path.insert(0, "src")
t0 = time.perf_counter()
import crosspeak.cli
from crosspeak.catalog import load_catalog
load_catalog()
print(time.perf_counter() - t0)
"""
# -X importtime rows whose cumulative time is reported as setup.import.<name>_ms
IMPORT_ROWS = ("numpy", "scipy.optimize", "scipy.signal", "scipy.ndimage")
# count metrics taken at a boundary hook rather than from call counts,
# with the span that must exist for them to be measured
COUNT_SOURCES = {
    "spin.track_levels.points": "spin.track_levels",
    "crossings.events": "crossings.find_crossings",
    "kernels.matrices": "kernels.eigh_stack",
    "kernels.eigh_stack.calls": "kernels.eigh_stack",
    "io.bytes_written": "io.write_text_atomic",
}
# call-count metrics whose span has another name
CALL_ALIASES = {"spin.assignment_fallbacks": "spin.linear_sum_assignment"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli(root: Path):
    """Import crosspeak.cli from the checkout's src, never from elsewhere."""
    src = root / "src"
    if not (src / "crosspeak" / "cli.py").is_file():
        fail(f"no crosspeak sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import crosspeak.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "crosspeak").resolve():
        fail(f"imported {cli.__file__}, not the checkout's copy")
    return cli


def fresh_interpreter(root: Path, *flags: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SETUP_CODE],
        cwd=root, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    if proc.returncode != 0:
        fail(f"setup interpreter failed: {proc.stderr.strip()[-400:]}")
    return proc


def measure_setup(root: Path) -> float:
    return statistics.median(
        float(fresh_interpreter(root).stdout.split()[-1]) for _ in range(SETUP_SAMPLES)
    )


def import_breakdown(root: Path) -> dict[str, float]:
    """Median over fresh interpreters of the -X importtime figures, ms.

    A dependency that setup no longer imports reads 0."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        err = fresh_interpreter(root, "-X", "importtime").stderr
        cumulative: dict[str, float] = {}
        own = 0.0
        for m in re.finditer(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", err):
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            cumulative.setdefault(name, cum_us / 1e3)
            if name == "crosspeak" or name.startswith("crosspeak."):
                own += self_us / 1e3
        row = {f"setup.import.{n}_ms": cumulative.get(n, 0.0) for n in IMPORT_ROWS}
        row["setup.import.crosspeak_ms"] = own
        samples.append(row)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def run_op(cli, op) -> bool:
    """Make the operation's CLI calls; True when every call exits 0."""
    for argv in op.argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a crash is a failed operation
                print(f"bench: {argv[0]} raised {exc!r}", file=sys.__stderr__)
                return False
        if code != 0:
            print(f"bench: {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}",
                  file=sys.__stderr__)
            return False
    return True


def loop(cli, workload, seed: int, seconds: float, workdir: Path, tracer=None):
    """Closed loop over whole operations until ``seconds`` have passed.

    With a tracer, even-numbered operations run untraced and odd-numbered
    ones traced, so the two latency sets measure the tracing overhead
    under the same host conditions; the loop then also runs until
    COUNT_OPS traced operations were attempted.  At least one operation
    runs whatever ``seconds`` is.
    """
    plain, traced = [], []
    attempted = failed = traced_attempts = 0
    bad: list[str] = []
    counts = None
    deadline = time.perf_counter() + seconds
    index = 0
    while (index == 0 or time.perf_counter() < deadline
           or (tracer is not None and traced_attempts < COUNT_OPS)):
        index += 1
        opdir = workdir / f"op{index % 2}"
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir(parents=True)
        op = workload.make(seed, index, opdir)
        use_trace = tracer is not None and index % 2 == 1
        attempted += 1
        if use_trace:
            traced_attempts += 1
            tracer.trace_id = index
            tracer.record = not traced  # keep the spans of the first traced op
            with tracer.installed():
                t0 = time.perf_counter()
                ok = run_op(cli, op)
                dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            ok = run_op(cli, op)
            dt = time.perf_counter() - t0
        if use_trace and traced_attempts == COUNT_OPS:
            counts = tracer.snapshot()
        if not ok:
            failed += 1
            continue
        (traced if use_trace else plain).append(dt)
        try:
            workload.check(op, workload.read(op))
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            bad.append(f"op {index}: {exc}")
    return plain, traced, attempted, failed, bad, counts


def end_to_end(latencies: list[float], setup_s: float) -> dict[str, float]:
    ms = np.asarray(latencies) * 1e3
    return {
        "ops_per_s": len(ms) / (float(ms.sum()) / 1e3),
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_p90_ms": float(np.percentile(ms, 90)),
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, plain, counts, imports, names) -> tuple[dict, list]:
    """Per-operation layer figures; names the package no longer has are
    returned as absent instead of as zeros."""
    values: dict[str, float] = {}
    absent = []
    n_count = COUNT_OPS
    n_time = len(traced)
    for name in names:
        if name in imports:
            values[name] = imports[name]
        elif name == "trace.overhead_pct":
            values[name] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        elif name in COUNT_SOURCES:
            if COUNT_SOURCES[name] not in tracer.wrapped:
                absent.append(name)
                continue
            values[name] = counts["counts"].get(name, 0) / n_count
        elif name.endswith(".self_ms"):
            span = name[: -len(".self_ms")]
            if span not in tracer.wrapped:
                absent.append(name)
                continue
            values[name] = 1e3 * tracer.self_s.get(span, 0.0) / n_time
        else:
            span = CALL_ALIASES.get(name, name[: -len(".calls")])
            if span not in tracer.wrapped:
                absent.append(name)
                continue
            values[name] = counts["calls"].get(span, 0) / n_count
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cli = import_cli(root)
    from crosspeak.catalog import default_catalog_path

    workload = WORKLOADS[args.workload](json.loads(default_catalog_path().read_text()))
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # one untimed operation fills lazy imports and allocator pools
        loop(cli, workload, args.seed + 1_000_003, 0.0, workdir)
        if args.trace:
            imports = import_breakdown(root)
            tracer = Tracer()
            plain, traced, attempted, failed, bad, counts = loop(
                cli, workload, args.seed, args.seconds, workdir, tracer)
            if not plain or not traced:
                fail(f"every operation failed ({failed} of {attempted})")
            metrics_spec = spec["per_layer"]
            values, absent = per_layer(tracer, traced, plain, counts, imports,
                                       [m["name"] for m in metrics_spec])
            out_dir = root / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(
                [dict(zip(("trace", "name", "start", "end", "id", "parent"), s))
                 for s in tracer.spans]))
            for name in absent:
                print(f"absent: {name} (not in this version of the package)")
        else:
            setup_s = measure_setup(root)
            plain, _, attempted, failed, bad, _ = loop(
                cli, workload, args.seed, args.seconds, workdir)
            if not plain:
                fail(f"every operation failed ({failed} of {attempted})")
            metrics_spec = spec["end_to_end"]
            values = end_to_end(plain, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in bad[:10]:
        print(f"CHECK FAILED {line}")
    metrics = {}
    for m in metrics_spec:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:34s} {values[m['name']]:14.6g} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}  checked-bad {len(bad)}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
