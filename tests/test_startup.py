"""Start-up footprint: a command imports only the modules it runs.

Every `llspec` command starts a fresh interpreter, where imports are most of
the cost of the cheap commands.  `llspec` itself imports no submodule (each
name is imported from its module), `llspec.cli` imports a layer inside the
commands that call it and `json` only under --format json, numpy is imported
only by the code that computes with arrays, and `mpmath` only where
multiprecision arithmetic runs.  As a process, every command starts OpenBLAS
with one thread, which spares it the worker threads' spin-wait.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import llspec
import llspec.cli

SRC = Path(__file__).resolve().parents[1] / "src"

# modules that only some commands need
OPTIONAL = (
    "json", "llspec.anderson", "llspec.lamplighter", "llspec.novikov", "mpmath", "numpy",
    "numpy.ma", "numpy.random",
)


def _modules_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running `code`."""
    probe = f"{code}\nimport sys\nprint('loaded:', *sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout
    last = out.splitlines()[-1].split()
    assert last[0] == "loaded:"
    return set(last[1:])


def _loaded_after(code: str) -> list[str]:
    """Which of OPTIONAL a fresh interpreter holds after running `code`."""
    return sorted(set(OPTIONAL) & _modules_after(code))


def test_parser_loads_no_optional_module():
    assert _loaded_after("import llspec.cli; llspec.cli.build_parser()") == []


# what `measure` (with `jacobi`) and `json` would bring along from the standard library
NUMERIC_STDLIB = {"dataclasses", "decimal", "fractions", "json"}


@pytest.mark.parametrize("code", [
    "import llspec.cli; llspec.cli.build_parser()",
    "import llspec.cli\n"
    "try:\n"
    "    llspec.cli.run(['--help'])\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0\n"
    "else:\n"
    "    raise AssertionError('no SystemExit')",
], ids=["build_parser", "help"])
def test_parser_path_loads_no_layer(code):
    loaded = _modules_after(code)
    assert {m for m in loaded if m.split(".")[0] == "llspec"} == {"llspec", "llspec.cli", "llspec.errors"}
    assert NUMERIC_STDLIB & loaded == set()


# one command of each kind, with the optional modules it needs
COMMANDS = [
    (["zeros", "--mu", "float:0.3", "--depth", "3", "--check"], ["numpy"]),
    (["spectrum", "--mu", "rat:2/1"], []),
    (["measure", "--mu", "rat:3/2", "--depth", "12", "--check"], ["numpy"]),
    (["joint-spectrum", "--depth", "2", "--grid", "0,2", "--check"], ["numpy"]),
    (["eigs", "--level", "2", "--mu", "float:0.3", "--check"], ["llspec.lamplighter", "numpy"]),
    (["char-poly", "--level", "2", "--mu", "rat:7/6", "--grid", "0", "--check"],
     ["llspec.lamplighter", "numpy"]),
    (["multiplicity", "--level", "2", "--mu", "rat:2/1", "--grid", "2", "--check"],
     ["llspec.lamplighter", "numpy"]),
    (["dos", "--mu", "float:0.3", "--sites", "2000", "--depth", "8", "--check"],
     ["llspec.anderson", "numpy", "numpy.random"]),
    (["ns", "--mu", "float:2", "--depth", "12", "--check"], ["llspec.novikov", "mpmath"]),
]


@pytest.mark.parametrize("argv, expected", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_loads_only_what_it_runs(argv, expected):
    code = (
        "import os, llspec.cli\n"
        f"assert llspec.cli.main({argv!r} + ['--out', os.devnull]) == 0"
    )
    assert _loaded_after(code) == expected


def test_json_loads_only_under_format_json():
    # the CSV runs above load no json
    argv = ["spectrum", "--mu", "rat:2/1", "--format", "json"]
    code = f"import os, llspec.cli\nassert llspec.cli.main({argv!r} + ['--out', os.devnull]) == 0"
    assert _loaded_after(code) == ["json"]


def test_refused_arguments_load_no_optional_module():
    # an argparse error exits through SystemExit, a bad --mu through main's exit 2
    code = (
        "import llspec.cli\n"
        "try:\n"
        "    llspec.cli.main(['eigs', '--level', 'x', '--mu', 'float:0.3'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 2\n"
        "else:\n"
        "    raise AssertionError('no SystemExit')\n"
        "assert llspec.cli.main(['spectrum', '--mu', 'float:nan']) == 2"
    )
    assert _loaded_after(code) == []


@pytest.mark.parametrize("mu", ["RationalMu(7, 6)", "FloatMu(0.3)"])
def test_classification_loads_no_optional_module(mu):
    # rationals are decided from tables, floats as the rational they store, in plain Python
    code = f"from llspec.measure import FloatMu, RationalMu, classify_mu\nclassify_mu({mu})"
    assert _loaded_after(code) == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        llspec.no_such_name


def _blas_threads_after(argv, entry="run", **env) -> tuple[str | None, int | None]:
    """OPENBLAS_NUM_THREADS and the thread count of a fresh interpreter after `entry(argv)`.

    `env` adds variables to an environment without any of the BLAS thread
    variables.  The count is None where there is no /proc.
    """
    probe = (
        "import os, llspec.cli\n"
        f"assert llspec.cli.{entry}({argv!r} + ['--out', os.devnull]) == 0\n"
        "task = '/proc/self/task'\n"
        "count = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), count)"
    )
    base = {k: v for k, v in os.environ.items() if k not in llspec.cli._BLAS_THREAD_VARIABLES}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(base, PYTHONPATH=str(SRC), **env),
    ).stdout
    value, count = out.split()
    return (None if value == "None" else value), (None if count == "None" else int(count))


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS], ids=[argv[0] for argv, _ in COMMANDS])
def test_every_command_runs_one_blas_thread(argv):
    value, count = _blas_threads_after(argv)
    assert value == "1"
    if count is None:
        pytest.skip("no /proc to count threads")
    assert count == 1


@pytest.mark.parametrize("variable", sorted(llspec.cli._BLAS_THREAD_VARIABLES))
def test_user_blas_threads_win(variable):
    value = _blas_threads_after(COMMANDS[0][0], **{variable: "2"})[0]
    assert value == ("2" if variable == "OPENBLAS_NUM_THREADS" else None)


def test_main_alone_leaves_the_environment():
    assert _blas_threads_after(COMMANDS[0][0], entry="main")[0] is None


def test_in_process_run_after_numpy_leaves_the_environment(monkeypatch):
    import numpy  # noqa: F401  the rule looks for it in sys.modules

    for variable in llspec.cli._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    before = dict(os.environ)
    assert llspec.cli.run(["zeros", "--mu", "float:0.3", "--depth", "2", "--out", os.devnull]) == 0
    assert dict(os.environ) == before
