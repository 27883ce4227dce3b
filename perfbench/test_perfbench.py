"""Tests of the benchmark itself: generator, checker and span arithmetic.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REF = os.path.join(HERE, "reference")


def span(name, start, end, parent, info=None):
    return [name, float(start), float(end), parent, info]


def nested_trace():
    """level_table [0, 10] holds an enumeration [1, 4] and a solve [5, 9]."""
    return [
        span("spectrum.level_table", 0, 10, -1),
        span("core.enumerate_bath_sector", 1, 4, 0, {"dim": 6, "key": [4, 0, 0]}),
        span("core.enumerate_sector", 2, 3, 1, {"dim": 6, "key": [4, 0, 0]}),
        span("spectrum.lowest_eigenpair", 5, 9, 0, {"dim": 6}),
        span("spectrum.lanczos_lowest", 6, 8, 3, {"dim": 6}),
    ]


def test_self_times_subtract_direct_children():
    assert tracing.self_times(nested_trace()) == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_layer_metrics_partition_the_unit_wall():
    m = tracing.layer_metrics(nested_trace(), wall=12.0)
    assert m["cli.self_s"] == 2.0
    assert m["core.enumerate_s"] == 3.0
    assert m["core.enumerate_calls"] == 1          # the nested call is not counted
    assert m["core.basis_states"] == 6
    assert m["spectrum.solve_s"] == 4.0
    assert m["spectrum.solve_calls"] == 1
    assert m["spectrum.dense_frac"] == 0.0
    layers = ("core.self_s", "operators.self_s", "spectrum.self_s", "states.self_s",
              "dynamics.propagate_s", "dynamics.prepare_s", "csvio.write_s", "cli.self_s")
    assert sum(m[k] for k in layers) == pytest.approx(12.0)
    assert set(m) == set(tracing.METRIC_UNITS) - {"trace.overhead_frac"}


def test_merge_shifts_parents_and_keeps_processes_apart():
    spans, wall = tracing.merge([(nested_trace(), 12.0), (nested_trace(), 11.0)])
    assert wall == 23.0
    assert [s[3] for s in spans[5:]] == [-1, 5, 6, 5, 8]
    m = tracing.layer_metrics(spans, wall)
    assert m["core.enumerate_calls"] == 2
    assert m["core.sector_reuse"] == 1.0           # same sector, but two processes
    assert m["cli.self_s"] == 3.0


def test_generator_is_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        argv = [c.argv for i in range(4) for c in workloads.unit(name, 7, i).commands]
        assert argv == [c.argv for i in range(4) for c in workloads.unit(name, 7, i).commands]
        assert argv != [c.argv for i in range(4) for c in workloads.unit(name, 8, i).commands]


def test_generator_stays_inside_the_bands():
    for i in range(40):
        spec = workloads.unit("spectrum", 3, i).commands[2].params
        assert spec["two_s"] in (1, 2, 3, 4) and spec["two_l"] in (4, 6, 8)
        argv = workloads.unit("driven-aniso", 3, i).commands[0].argv
        j, jp = float(argv[argv.index("--j") + 1]), float(argv[argv.index("--jp") + 1])
        assert 0.5 <= j <= 1.5 and 0.7 * j - 1e-6 <= jp <= 0.9 * j + 1e-6


def test_reference_outputs_satisfy_the_invariants():
    unit = workloads.unit("driven-aniso", workloads.DEFAULT_SEED, 0)
    assert checker.check_unit(unit, os.path.join(REF, "driven-aniso", "0")) == []
    unit = workloads.unit("spectrum", workloads.DEFAULT_SEED, 0)
    ref = os.path.join(REF, "spectrum", "0")
    n, two_s = unit.commands[1].params["n"], unit.commands[1].params["two_s"]
    assert checker.check_level_table(os.path.join(ref, "level_table.csv"), n) == []
    assert checker.check_ground_scan(os.path.join(ref, "ground_scan.csv"), n, two_s,
                                     workloads.SCAN_STEP) == []


def _shift_one_value(path, delta):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[5].split(",")
    fields[-1] = repr(float(fields[-1]) + delta)
    lines[5] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_checker_rejects_a_value_shifted_by_1e_6(tmp_path):
    ref = os.path.join(REF, "driven-aniso", "0")
    shutil.copytree(ref, tmp_path / "unit")
    assert checker.compare_reference(tmp_path / "unit", ref) == []
    _shift_one_value(tmp_path / "unit" / "coherent.csv", 1e-6)
    errors = checker.compare_reference(tmp_path / "unit", ref)
    assert len(errors) == 1 and "coherent.csv" in errors[0]


def test_checker_rejects_norm_drift_above_its_bound(tmp_path):
    ref = os.path.join(REF, "driven-aniso", "0", "coherent.csv.meta")
    meta = tmp_path / "coherent.csv.meta"
    shutil.copy(ref, meta)
    assert checker.check_drift(meta) == []
    text = meta.read_text(encoding="utf-8")
    drift = checker.read_meta(meta)["norm_drift"]
    meta.write_text(text.replace(f"norm_drift = {drift}", "norm_drift = 2.000e-10"),
                    encoding="utf-8")
    errors = checker.check_drift(meta)
    assert len(errors) == 1 and "norm_drift" in errors[0]


def test_child_records_nested_layer_spans(tmp_path):
    root = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "unit.py"), str(report), "1",
         "level-table", "--n", "6", "--threads", "1", "--out", "table.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text(encoding="utf-8"))
    names = [s[0] for s in data["spans"]]
    roots = [s[0] for s in data["spans"] if s[3] < 0]
    assert roots == ["spectrum.level_table", "csvio.write_level_table", "csvio.write_meta"]
    assert names.count("spectrum.lowest_eigenpair") == 4
    m = tracing.layer_metrics(data["spans"], data["wall_s"])
    assert m["spectrum.solve_calls"] == 4 and m["spectrum.dense_frac"] == 1.0
    assert m["csvio.bytes"] == sum(os.path.getsize(tmp_path / f)
                                   for f in ("table.csv", "table.csv.meta"))
    assert 0.0 <= m["cli.self_s"] < data["wall_s"]
    assert checker.check_level_table(str(tmp_path / "table.csv"), 6) == []
