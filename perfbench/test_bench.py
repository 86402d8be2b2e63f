"""Tests of the benchmark itself: tiny-size smoke runs of every workload,
the tracer's self-time arithmetic, and that wrong outputs are counted.

    python3 -m pytest perfbench/test_bench.py
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), HERE) if p not in sys.path]

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from bench_trace import Span, Tracer, self_time_by_module, self_times, union_length  # noqa: E402

import iterreg  # noqa: E402
from iterreg import cli, optimizers, problems  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(tmp_path):
    def make(name):
        workload = bw.WORKLOADS[name](bw.TINY, 5, str(tmp_path))
        workload.setup()
        return workload
    return make


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_declared_metric(name, trace, tiny):
    run = _load_run()
    metrics, samples, named, tally, _ = run.measure(tiny(name), 1e-3, trace, 0.0)
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(metrics)
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    assert tally.attempted > 0 and tally.failed == 0, tally.failures
    assert all(np.isfinite(v) for v, _ in metrics.values())
    assert all(value > 0 and n >= 1 for value, _, n in named.values())
    if not trace:
        assert all(v > 0 for v, _ in metrics.values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(bw.WORKLOADS)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_self_times_on_synthetic_spans():
    spans = [
        Span("bench.op", 0.0, 10.0, None, 1),
        Span("optimizers.a", 1.0, 4.0, 0, 1),
        Span("problems.b", 2.0, 3.0, 1, 1),
        Span("averaging.c", 3.0, 6.0, 0, 2),   # overlaps a: another thread
        Span("oracles.d", 9.0, 12.0, 0, 2),    # runs past its parent's end
    ]
    # root: 10 - |[1,6] u [9,10]| = 4; a: 3 - 1; b, c, d: no children.
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]
    assert self_time_by_module(spans) == {"bench": 4.0, "optimizers": 2.0, "problems": 1.0,
                                          "averaging": 3.0, "oracles": 3.0}


def test_tracer_wraps_reexports_and_restores():
    original = optimizers.sgd_run
    tracer = Tracer()
    with tracer:
        assert cli.sgd_run is optimizers.sgd_run is iterreg.sgd_run
        assert cli.sgd_run is not original
        assert problems.jacobi_eigh is iterreg.linalg.jacobi_eigh
        assert hasattr(problems.jacobi_eigh, "__wrapped__")
        problems.KernelProblem(K=np.eye(3), y=np.ones(3))
        problems.QuadraticProblem.from_data(np.eye(2), np.ones((2, 1)))
    assert cli.sgd_run is original and iterreg.sgd_run is original
    assert not hasattr(problems.jacobi_eigh, "__wrapped__")
    assert {"optimizers.sgd_run", "linalg.jacobi_eigh", "cli.main"} <= set(tracer.wrapped)
    summary = tracer.summary(["problems.KernelProblem", "linalg.jacobi_eigh",
                              "problems.QuadraticProblem.from_data", "gone.function"])
    assert [calls for calls, _ in summary.values()] == [1, 1, 1, 0]


def test_missing_target_reads_zero_calls(monkeypatch):
    monkeypatch.setattr(bench_trace, "EXTRA_TARGETS",
                        bench_trace.EXTRA_TARGETS + ("problems.NoSuchClass",
                                                     "nosuchmodule.f"))
    tracer = Tracer()
    with tracer:
        pass
    assert "problems.NoSuchClass" not in tracer.wrapped
    assert tracer.summary(["problems.NoSuchClass"]) == {"problems.NoSuchClass": (0, 0.0)}


def test_worker_spans_are_children_of_the_submitting_span():
    tracer = Tracer()

    def work(_):
        with tracer.span("optimizers.work"):
            return 1

    with tracer:
        with tracer.span("cli.main"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert sum(pool.map(work, range(4))) == 4
    workers = [s for s in tracer.spans if s.name == "optimizers.work"]
    assert len(workers) == 4
    assert all(s.parent == 0 for s in workers)


@pytest.mark.parametrize("name,part", [("store-sweep", "store"), ("store-sweep", "sweep"),
                                       ("kernel-mc", "kernel"), ("kernel-mc", "mc")])
def test_wrong_output_raises_error_rate(name, part, tiny):
    workload = tiny(name)
    op = workload.op()
    if part == "store":
        records = op.outputs[1]
        rec = records["gd"]
        bad = rec.iterates.copy()
        bad[-1, 0] = np.nextafter(bad[-1, 0], np.inf)
        records["gd"] = optimizers.PathRecord(bad, rec.tag, rec.seed, rec.schedule,
                                              rec.problem_fingerprint)
    elif part == "sweep":
        op.outputs[4][0] *= 1.0 + 1e-3
    elif part == "kernel":
        op.outputs[3][0] += 1e-4
    else:
        out = op.outputs[5]
        with open(os.path.join(out, "checks.json"), encoding="ascii") as fh:
            payload = json.load(fh)
        payload["checks"][0]["pass"] = False
        with open(os.path.join(out, "checks.json"), "w", encoding="ascii") as fh:
            json.dump(payload, fh)
    tally = bw.Tally()
    workload.check(op, tally)
    assert tally.failed > 0
    assert 0 < tally.failed / tally.attempted < 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "store-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
