"""The package's public surface (the names its modules define), the functions
the benchmark traces and the environment it reads, pinned on purpose."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from llspec import anderson, cli, lamplighter

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


def test_every_public_function_has_a_caller():
    # a public function or method is kept only for a caller: the package
    # itself, an acceptance criterion, a benchmark metric, or the oracle set
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((SRC / "llspec").glob("*.py")) if path.name != "__init__.py"}
    in_src = Counter(name for tree in trees.values() for name in _referenced(tree))
    acceptance = set(_referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    traced = {m["name"].split(".")[1] for m in metrics if m["name"].count(".") == 2}
    defined, unreached = set(), []
    for module, tree in trees.items():
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        for node in functions:
            if node.name.startswith("_"):
                continue
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
