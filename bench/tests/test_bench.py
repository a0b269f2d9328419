"""Tests of the benchmark harness itself: span arithmetic, metric names, passes."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Command, interior_sites  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(fid, parent, start, end, raised=0):
    return [fid, parent, start, end, raised]


def test_self_time_on_synthetic_tree():
    # main [0, 10] -> g [1, 3], h [4, 8] -> g [5, 6] (raises)
    functions = ["cli.main", "jacobi.tridiag_eigs", "novikov.gap_sequence"]
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 4.0, 8.0),
        _span(1, 2, 5.0, 6.0, raised=1),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    m = tracer.command_metrics(functions, spans)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["jacobi.self_s"] == pytest.approx(3.0)
    assert m["novikov.self_s"] == pytest.approx(3.0)
    assert (m["jacobi.calls"], m["jacobi.errors"], m["cli.calls"]) == (2, 1, 1)
    assert m["jacobi.tridiag_eigs.calls"] == 2
    assert m["jacobi.tridiag_eigs.s"] == pytest.approx(3.0)
    assert m["novikov.gap_sequence.s"] == pytest.approx(4.0)
    # layer self times add up to the root span's duration
    assert sum(m[f"{layer}.self_s"] for layer in ("cli", "jacobi", "novikov")) == pytest.approx(10.0)


def test_nested_same_function_counts_outermost_time_once():
    spans = [_span(0, -1, 0.0, 4.0), _span(0, 0, 1.0, 2.0)]
    m = tracer.command_metrics(["novikov.gap_sequence"], spans)
    assert m["novikov.gap_sequence.s"] == pytest.approx(4.0)
    assert m["novikov.gap_sequence.calls"] == 2


def test_missing_function_is_absent_not_zero():
    m = tracer.command_metrics(["lamplighter.build_level"], [])
    assert m["lamplighter.build_level.calls"] == 0
    assert "lamplighter.dense_eigs.s" not in m
    assert "anderson.self_s" not in m


def test_install_rebinds_aliases(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .low import leaf\n")
    (pkg / "low.py").write_text("def leaf(x):\n    return x + 1\n\ndef _hidden():\n    return 0\n")
    (pkg / "high.py").write_text(
        "from .low import leaf\n\ndef top(x):\n    return leaf(x) * 2\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    rec = tracer.Recorder()
    try:
        tracer.install(rec, package="fakepkg", layers=("low", "high", "gone"))
        import fakepkg
        import fakepkg.high

        assert fakepkg.high.top(1) == 4
        assert fakepkg.leaf(0) == 1
    finally:
        for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
            del sys.modules[name]
    assert sorted(rec.functions) == ["high.top", "low.leaf"]
    names = [rec.functions[s[0]] for s in rec.spans]
    assert names == ["high.top", "low.leaf", "low.leaf"]
    assert rec.spans[1][1] == 0  # leaf called from top is its child


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert list(layer) == run.per_layer_names()
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert run.unit_of(name) == unit
    labels = [c.label for cmds in WORKLOADS.values() for c in cmds]
    assert len(labels) == len(set(labels))
    for label in labels:
        assert NAME.fullmatch(f"cli.{label}.wall_s"), label


def test_interior_sites_matches_direct_count():
    import numpy as np

    bits = np.random.Philox(key=5).random_raw(200) & np.uint64(1)
    blocks, current = [], 1
    for n in range(199):
        if bits[n] == 1:
            blocks.append(current)
            current = 1
        else:
            current += 1
    blocks.append(current)
    assert interior_sites(5, 200) == sum(blocks[1:-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_pass_of_each_workload(workload, tmp_path, capsys):
    bench = run.Bench(workload, 3, tmp_path)
    one = bench.run_pass(traced=False)
    assert [r.label for r in one.runs] == [c.label for c in WORKLOADS[workload]]
    bench.setup_s.append(bench.probe_setup())
    args = run.parse_args(["--workload", workload, "--seed", "3", "--trace", "0"])
    start = (run.loadavg(), run.steal_s())
    result = run.report(args, run.machine_record(), start, [one], [], bench.setup_s)
    printed = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(WORKLOADS[workload])
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["ok_ratio"]["value"] == pytest.approx(1 - result["failed"] / result["attempted"])
    for name, value in metrics.items():
        assert f"{name} {value['value']!r} {value['unit']}" in printed
    assert "fail_ratio " in printed


def test_measure_takes_two_untraced_passes_or_one_traced_round(tmp_path):
    bench = run.Bench("spectral", 3, tmp_path)
    bench.commands = (Command("spectrum-r2", ("spectrum", "--mu", "rat:2/1", "--format", "json")),)
    plain, traced = run.measure(bench, 0.0, trace=False)
    assert (len(plain), len(traced), len(bench.setup_s)) == (2, 0, 2 * run.SETUP_PROBES_PER_PASS)
    plain, traced = run.measure(bench, 0.0, trace=True)
    assert (len(plain), len(traced)) == (1, 1)


def test_traced_pass_reports_layers_and_errors(tmp_path):
    bench = run.Bench("levels", 3, tmp_path)
    bench.commands = (
        Command("spectrum-r2", ("spectrum", "--mu", "rat:2/1", "--format", "json")),
        Command("raises", ("eigs", "--level", "7", "--mu", "float:0.3")),
    )
    traced = bench.run_pass(traced=True)
    assert [r.failed for r in traced.runs] == [False, True]
    assert traced.runs[1].last_stderr.startswith("llspec.errors.ConvergenceError")
    m = traced.layer_metrics
    assert m["cli.calls"] == 4  # main and build_parser, per command
    assert m["lamplighter.errors"] == 1 and m["cli.errors"] == 1
    assert m["lamplighter.build_level.calls"] == 1
    assert m["lamplighter.dense_eigs.s"] > 0
    assert set(m) <= set(run.per_layer_names())


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
