"""In-memory spans and counts around crosspeak's public functions.

The program is not changed: ``Tracer.installed()`` swaps each public
function and method of the package's modules for a timing wrapper and
puts the originals back on exit.  A function that one module imports
from another is wrapped in every module that holds it, under the name of
the module that defines it (``nv_probe_frequencies`` called from ``zfs``
or ``spectrum`` is recorded as ``spin.nv_probe_frequencies``).  Names
that a later version of the package no longer has are simply not
wrapped; their metrics are then reported as absent.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

# per-element helpers whose cost stays in their caller's self time
SKIP = {"io.fmt_gauss", "io.fmt_mhz"}

# io functions grouped into the read / format / write layers
IO_READ = {"read_scan_csv", "read_fiducials_csv"}
IO_WRITE = {"write_text_atomic"}


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _layer(name: str) -> str:
    """Aggregation key for self time: io functions fold into three layers,
    kernels into one, everything else keeps its own name."""
    module, _, func = name.partition(".")
    if module == "io":
        if func in IO_READ:
            return "io.read"
        if func in IO_WRITE:
            return "io.write"
        return "io.format"
    if module == "kernels":
        return "kernels"
    return name


class Tracer:
    """Collects spans (name, start, end, parent) and counts in memory.

    Aggregates (calls, self time per span name, extra counts) cover every
    traced operation; the full span list is kept only while ``record`` is
    true, so memory stays bounded on long runs.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.record = False
        self.trace_id = 0
        self._stack: list[list] = []  # [name, start, child_time, span_id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        # span names and aggregation layers that exist in this package
        self.wrapped: set[str] = set()

    # -- bookkeeping -------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the call counts and boundary counts so far."""
        return {"calls": dict(self.calls), "counts": dict(self.counts)}

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        self.calls[name] += 1
        self.self_s[_layer(name)] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            parent_id = 0
        if self.record:
            self.spans.append((self.trace_id, name, start, end, span_id, parent_id))

    def caller(self) -> str | None:
        """Name of the open span, i.e. the caller of a wrapper that has
        just returned."""
        return self._stack[-1][0] if self._stack else None

    # -- wrappers ----------------------------------------------------

    def _wrap(self, func, name: str, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _public_modules(self, package: str):
        prefix = package + "."
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            if any(part.startswith("_") for part in mod_name.split(".")):
                continue
            yield mod_name, mod

    @contextlib.contextmanager
    def installed(self, package: str = "crosspeak"):
        """Wrap every public function and method of the package's already
        imported modules for the duration of the block."""
        wrappers: dict[int, object] = {}
        taken: set[str] = set()
        classes = []
        for mod_name, mod in self._public_modules(package):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(package):
                    if id(obj) not in wrappers:
                        name = f"{_short(obj.__module__)}.{obj.__name__}"
                        if name in SKIP:
                            continue
                        taken.add(name)
                        wrappers[id(obj)] = self._wrap(obj, name, AFTER.get(name))
                    self._patch(mod, attr, wrappers[id(obj)])
                elif (inspect.isclass(obj) and obj.__module__ == mod_name
                      and obj not in classes):
                    classes.append(obj)
            # scipy's assignment solver is the tracking fallback; count it
            # wherever the package imported it
            lsa = vars(mod).get("linear_sum_assignment")
            if lsa is not None and id(lsa) not in wrappers:
                wrappers[id(lsa)] = self._wrap(lsa, "spin.linear_sum_assignment")
            if lsa is not None:
                taken.add("spin.linear_sum_assignment")
                self._patch(mod, "linear_sum_assignment", wrappers[id(lsa)])
        for cls in classes:
            module = _short(cls.__module__)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = f"{module}.{attr}"
                if name in taken:
                    name = f"{module}.{cls.__name__}.{attr}"
                taken.add(name)
                self._patch(cls, attr, self._wrap(obj, name, AFTER.get(name)))
        self.wrapped = taken | {_layer(n) for n in taken}
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()


# -- counts taken from arguments and results at layer boundaries --------

def _track_points(tracer, args, kwargs, result):
    tracer.counts["spin.track_levels.points"] += len(result.B)


def _events(tracer, args, kwargs, result):
    tracer.counts["crossings.events"] += len(result)


def _stack_matrices(tracer, args, kwargs, result):
    tracer.counts["kernels.matrices"] += len(result[0])
    if tracer.caller() != "kernels.eigh":
        tracer.counts["kernels.eigh_stack.calls"] += 1


def _bytes_written(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["io.bytes_written"] += len(text.encode())


AFTER = {
    "spin.track_levels": _track_points,
    "crossings.find_crossings": _events,
    "kernels.eigh_stack": _stack_matrices,
    "io.write_text_atomic": _bytes_written,
}
