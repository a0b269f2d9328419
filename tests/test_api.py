"""The package's public surface (the names its modules define), the functions
the benchmark traces, the environment it reads and the contract every public
function keeps at the edges of the float range, pinned on purpose."""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llspec import anderson, cli, lamplighter
from llspec.errors import CapacityError, ConvergenceError, DomainError, InsufficientDataError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_llspec_defines_no_name_and_loads_no_submodule():
    # each public name is imported from the module that defines it; a fresh
    # interpreter, so submodules imported by other tests (llspec.cli) do not show
    code = (
        "import json, sys, llspec\n"
        "print(json.dumps([[n for n in vars(llspec) if not n.startswith('_')],\n"
        "                  [m for m in sys.modules if m.startswith('llspec.')]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout
    assert json.loads(out) == [[], []]
    # the level matrix and the disorder window are plain arrays, with no wrapper type
    assert not hasattr(lamplighter, "PencilMatrix") and not hasattr(anderson, "DisorderWindow")


def _public_functions(module) -> set[str]:
    # the functions the benchmark's tracer wraps: defined in the module itself, no leading `_`
    return {
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def test_benchmark_traced_names_exist():
    # a traced benchmark run reports a layer or named-function metric only
    # while that module or function exists, and still exits 0 without it
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    layers = [n.split(".")[0] for n in names if n.endswith(".self_s")]
    functions = [n.rsplit(".", 1)[0] for n in names if n.count(".") == 2]
    assert layers and functions
    for layer in layers:
        assert _public_functions(importlib.import_module(f"llspec.{layer}")), layer
    for name in functions:
        layer, function = name.split(".")
        assert function in _public_functions(importlib.import_module(f"llspec.{layer}")), name


# the names through which Python code reads or writes the process environment
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _sets_blas_threads(node, parents) -> bool:
    """`os.environ[<BLAS thread name>]`, or `os.environ.keys()` met with `_BLAS_THREAD_VARIABLES`."""
    parent = parents[node]
    if isinstance(parent, ast.Subscript):
        key = parent.slice
        return isinstance(key, ast.Constant) and key.value in cli._BLAS_THREAD_VARIABLES
    if isinstance(parent, ast.Attribute) and parent.attr == "keys":
        meet = parents[parents[parent]]  # os.environ.keys() is a call inside it
        return isinstance(meet, ast.BinOp) and isinstance(meet.op, ast.BitAnd) and any(
            isinstance(side, ast.Name) and side.id == "_BLAS_THREAD_VARIABLES"
            for side in (meet.left, meet.right))
    return False


def test_only_the_blas_thread_count_is_read_from_the_environment():
    # no configuration knob: adding one means editing this test on purpose.
    # `cli.run` alone touches the environment, for OpenBLAS's thread count
    found, allowed = [], 0
    for path in sorted((SRC / "llspec").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} if node.module == "os" else set()
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            if not names & _ENVIRONMENT:
                continue
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            if (path.name == "cli.py" and getattr(scope, "name", None) == "run"
                    and _sets_blas_threads(node, parents)):
                allowed += 1
            else:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert allowed == 2  # the scan sees both uses in `cli.run`


# the ceiling on the package's source lines for this round of work: the size
# the package had when the round began
_SOURCE_LINES_MAX = 2602


def test_source_stays_within_the_round_budget():
    # new checks are paid for by deletions: raising the ceiling is a decision
    # to make on purpose, here
    lines = sum(len(path.read_text().splitlines()) for path in (SRC / "llspec").glob("*.py"))
    assert lines <= _SOURCE_LINES_MAX


# public functions no command reaches, kept as the oracle a cross-check reads:
# `u_zeros` is the closed form tests/test_jacobi.py checks eigenvalues against
ORACLES = {"u_zeros"}


def _referenced(tree) -> list[str]:
    """Every name the code reads: bare names and attribute names."""
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def _module_trees() -> dict:
    """The parsed source of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted((SRC / "llspec").glob("*.py")) if path.name != "__init__.py"}


def _public_definitions(trees):
    """(module file, class name or None, FunctionDef) of each public function and method."""
    for module, tree in trees.items():
        functions = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                functions += [(cls.name, node) for node in cls.body
                              if isinstance(node, ast.FunctionDef)]
        yield from ((module, cls, node) for cls, node in functions if not node.name.startswith("_"))


def test_every_public_function_has_a_caller():
    # a public function or method is kept only for a caller: the package
    # itself, an acceptance criterion, a benchmark metric, or the oracle set
    trees = _module_trees()
    in_src = Counter(name for tree in trees.values() for name in _referenced(tree))
    acceptance = set(_referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    traced = {m["name"].split(".")[1] for m in metrics if m["name"].count(".") == 2}
    defined, unreached = set(), []
    for module, _, node in _public_definitions(trees):
        defined.add(node.name)
        # a reference inside the function's own body, as in a recursion, is no caller
        outside = in_src[node.name] - _referenced(node).count(node.name)
        if not (outside or node.name in acceptance | traced | ORACLES):
            unreached.append(f"{module}:{node.name}")
    assert unreached == []
    assert ORACLES <= defined


def _attributes_read(tree) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_record_field_is_read():
    # a field is kept only for a reader: the package itself or an acceptance
    # criterion; one that is only ever written is dead weight
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((SRC / "llspec").glob("*.py"))}
    read = set().union(*map(_attributes_read, trees.values()))
    read |= _attributes_read(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    fields, unread = set(), []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    fields.add(node.target.id)
                    if node.target.id not in read:
                        unread.append(f"{module}:{cls.name}.{node.target.id}")
    assert unread == []
    assert {"b1_witness", "b3_witness"} <= fields  # the scan sees the record fields


# The library's contract: every public function and method, given each
# float-valued argument from the edges of the double range and past it,
# returns or raises one of the four typed errors.  A NaN or infinite argument
# is refused, and no result holds a NaN.  Ints and Fractions past the float
# range may be taken exactly (`critical_index(10**400)` is 1) or refused.
_EXTREMES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, -1,
             10**400, -10**400, Fraction(10**400, 3))
_FLOATS = {"mu", "lam", "x", "t", "position"}
_FLOAT_LISTS = {"xs", "checkpoints"}
# sizes are held at small valid values: bounding them is a question of its own
_SIZES = {"n": 3, "k": 3, "depth": 6, "M": 12, "level": 2, "sites": 2000, "length": 64,
          "seed": 7, "offset": 0}
_TYPED = (DomainError, CapacityError, ConvergenceError, InsufficientDataError)
# generous against a shared 2-core machine; the slowest call takes milliseconds
_CALL_SECONDS = 5.0


@functools.cache
def _records() -> dict:
    """Valid record arguments, by parameter name or by annotation."""
    from llspec import jacobi, measure, novikov

    level = lamplighter.build_level(2)
    bits = anderson.sample_window(7, 0, 64)
    sample = anderson.build_jacobi_sample(bits, 0.3)
    seq = novikov.gap_sequence(2.0, _SIZES["M"])
    return {
        # by name
        "m": [lamplighter.pencil_matrix(level, 0.3)],
        "bits": [bits],
        "diag2d": [[[0.3, 1.0]]],
        "off2d": [[[1.0]]],
        "empirical": [anderson.line_ids(7, 2000, 0.3)],
        # by annotation, or the class of a method
        "MuParam": [measure.FloatMu(1e308), measure.FloatMu(-5e-324), measure.FloatMu(-1),
                    measure.RationalMu(7, 6), measure.B1Mu(1, 3, 2), measure.B2Mu(1, 2)],
        "AtomicMeasure": [measure.measure_truncation(mu, _SIZES["depth"])
                          for mu in (measure.FloatMu(0.3), measure.RationalMu(1, 1))],
        "EmpiricalIDS": [anderson.line_ids(7, 2000, 1.0)],
        "TridiagonalMatrix": [jacobi.jstar_truncation(0.3, 4)],
        "LevelRep": [level],
        "JacobiSample": [sample],
        "list[JacobiSample]": [[sample]],
        "GapSequence": [seq],
        "GapSequence | None": [seq, None],
    }


def _argument(name: str, annotation):
    """The strategy for one parameter; a parameter of a new kind fails here until it has one."""
    records = _records()
    if name in records or annotation in records:
        return st.sampled_from(records[name if name in records else annotation])
    if name in _SIZES:
        return st.just(_SIZES[name])
    if name in _FLOATS:
        return st.sampled_from(_EXTREMES)
    if name in _FLOAT_LISTS:
        return st.lists(st.sampled_from(_EXTREMES), min_size=1, max_size=3)
    if name == "text":
        return st.sampled_from(_EXTREMES).map(lambda v: f"float:{v!r}")
    if name == "argv":
        return st.sampled_from(_EXTREMES).map(
            lambda v: ["spectrum", "--mu", f"float:{v!r}", "--out", os.devnull])
    raise AssertionError(f"no strategy for parameter {name}: {annotation}")


def _non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def _holds_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f" and bool(np.isnan(value).any())
    if isinstance(value, (tuple, list)):
        return any(map(_holds_nan, value))
    if dataclasses.is_dataclass(value):
        return any(_holds_nan(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


_DEFINITIONS = [(module, cls, node.name) for module, cls, node in _public_definitions(_module_trees())]


@pytest.mark.parametrize("module, cls, name", _DEFINITIONS,
                         ids=[f"{m[:-3]}.{c + '.' if c else ''}{n}" for m, c, n in _DEFINITIONS])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_public_function_returns_or_raises_a_typed_error(module, cls, name, data):
    owner = importlib.import_module(f"llspec.{module[:-3]}")
    if cls is not None:
        owner = data.draw(st.sampled_from(_records()[cls]), label="self")
    is_property = isinstance(inspect.getattr_static(owner, name), property)
    params = () if is_property else inspect.signature(getattr(owner, name)).parameters.values()
    args = {p.name: data.draw(_argument(p.name, p.annotation), label=p.name) for p in params}
    scalars = [v for a in args.values() for v in (a if isinstance(a, list) else [a])]
    start = time.perf_counter()
    try:
        result = getattr(owner, name) if is_property else getattr(owner, name)(**args)
    except _TYPED:
        pass
    else:
        assert not any(map(_non_finite, scalars)), f"a non-finite argument gave {result!r}"
        assert not _holds_nan(result), result
    assert time.perf_counter() - start < _CALL_SECONDS
