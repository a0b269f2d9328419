"""Per-layer spans for one `llspec` command, recorded from outside the program.

Run as `python bench/tracer.py SPANS_JSON ARGV...` with `src` on PYTHONPATH:
it imports the package, wraps every public function defined in each layer
module, rebinds every `from .x import f` alias of those functions inside the
package (including `llspec/__init__`), then runs `llspec.cli.main(ARGV)`
exactly as `python -m llspec.cli ARGV` would.  Spans stay in memory and are
written to SPANS_JSON when the command ends, also when it raises.

A span is `[function index, parent, start, end, raised]`; `parent` indexes the
span that was open when this one began (-1 for none).  Calls made inside
worker processes (the `dos` pool) are not recorded there: that time shows up
as the self time of the `anderson` span waiting on the pool.

The same module holds the arithmetic that turns spans into layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

PACKAGE = "llspec"
LAYERS = ("cli", "chebyshev", "ghpolys", "jacobi", "lamplighter", "measure", "anderson", "novikov")

# Named functions reported on their own: which of call count and inclusive
# time (outermost spans only) each one gets.
NAMED = {
    "jacobi.tridiag_eigs": ("calls", "s"),
    "ghpolys.g_zeros": ("calls",),
    "chebyshev.u_pair_scaled": ("calls",),
    "lamplighter.dense_eigs": ("s",),
    "lamplighter.phi_det_signlog": ("calls",),
    "lamplighter.build_level": ("calls",),
    "measure.measure_truncation": ("s",),
    "anderson.empirical_ids": ("s",),
    "anderson.block_decompose": ("s",),
    "novikov.gap_sequence": ("calls", "s"),
}

UNITS = {"self_s": "s", "s": "s", "calls": "count", "errors": "count"}


class Recorder:
    """Holds spans in memory; one per process."""

    def __init__(self):
        self.functions: list[str] = []
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        fid = len(self.functions)
        self.functions.append(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fid, open_[-1] if open_ else -1, clock(), 0.0, 0]
            spans.append(span)
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                open_.pop()
                span[3] = clock()

        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"functions": self.functions, "spans": self.spans}, fh)


def public_functions(module) -> dict:
    """Functions defined in `module` itself whose names do not start with `_`."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def install(recorder: Recorder, package: str = PACKAGE, layers=LAYERS) -> None:
    """Wrap each layer's public functions and rebind every alias in the package."""
    importlib.import_module(package)
    wrappers = {}
    for layer in layers:
        try:
            module = importlib.import_module(f"{package}.{layer}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{layer}":
                raise
            continue  # a removed layer is reported as absent
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, recorder.wrap(fn, f"{layer}.{name}"))
    for modname, module in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration less the part of it covered by its child spans.

    Spans come from one thread's call stack, so children of one parent never
    overlap; the covered part is the union of the children clipped to the
    parent, computed here without relying on that.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def command_metrics(functions: list[str], spans) -> dict[str, float]:
    """Layer and named-function metrics for one command's spans.

    Only layers and named functions that exist in the program get a metric,
    so a function removed by a refactor is absent rather than zero.
    """
    metrics: dict[str, float] = {}
    for layer in {f.split(".", 1)[0] for f in functions}:
        for kind in ("self_s", "calls", "errors"):
            metrics[f"{layer}.{kind}"] = 0
    for name in set(functions) & NAMED.keys():
        for kind in NAMED[name]:
            metrics[f"{name}.{kind}"] = 0
    selfs = self_times(spans)
    for idx, (fid, parent, start, end, raised) in enumerate(spans):
        name = functions[fid]
        layer = name.split(".", 1)[0]
        metrics[f"{layer}.self_s"] += selfs[idx]
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.errors"] += raised
        kinds = NAMED.get(name, ())
        if "calls" in kinds:
            metrics[f"{name}.calls"] += 1
        if "s" in kinds and not _has_ancestor(spans, parent, fid):
            metrics[f"{name}.s"] += end - start
    return metrics


def _has_ancestor(spans, parent: int, fid: int) -> bool:
    while parent >= 0:
        if spans[parent][0] == fid:
            return True
        parent = spans[parent][1]
    return False


def all_metric_names() -> list[str]:
    """Every per-layer metric this module can report, in a stable order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls", "errors")]
    names += [f"{name}.{kind}" for name, kinds in NAMED.items() for kind in kinds]
    return names


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def sum_metrics(parts: list[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*runs) if runs else set()
    return {k: statistics.median(r[k] for r in runs if k in r) for k in keys}


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    cli = sys.modules[f"{PACKAGE}.cli"]
    try:
        return cli.main(cli_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
