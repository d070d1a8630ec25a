"""Tests of the benchmark itself: span arithmetic, metric names, failure
accounting and replay.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cuspforge import cli, profile  # noqa: E402
from cuspforge import qfield_cayley as qc  # noqa: E402


class FakeClock:
    """Returns the given instants in order."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_nested_spans_split_self_time():
    # outer [0, 10] holds inner [1, 3] and inner [4, 8], which holds leaf [5, 6]
    tr = tracer.Tracer(FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    leaf = tr.wrap("leaf", lambda: None)

    def inner_body(deep):
        if deep:
            leaf()

    inner = tr.wrap("inner", inner_body)
    outer = tr.wrap("outer", lambda: (inner(False), inner(True)))
    outer()
    assert tr.stats["outer"].self_s == 10 - 2 - 4
    assert tr.stats["inner"].self_s == 2 + (4 - 1)
    assert tr.stats["leaf"].self_s == 1
    assert [tr.stats[n].calls for n in ("outer", "inner", "leaf")] == [1, 2, 1]
    assert tr.root_s == 10
    assert tr.self_total() == tr.root_s
    assert tr.first_s == {"leaf": 1, "inner": 2, "outer": 10}


def test_recursive_span_of_one_layer_counts_time_once():
    # f [0, 6] calls f [1, 4]: the layer was busy 6, not 6 + 3
    tr = tracer.Tracer(FakeClock(0, 1, 4, 6))

    def body(depth):
        if depth:
            f(depth - 1)

    f = tr.wrap("f", body)
    f(1)
    assert tr.stats["f"].calls == 2
    assert tr.stats["f"].self_s == 6
    assert tr.root_s == 6


def test_span_closes_when_the_call_raises():
    tr = tracer.Tracer(FakeClock(0, 2, 5, 6))

    def boom():
        raise ValueError("bad")

    failing = tr.wrap("failing", boom)
    with pytest.raises(ValueError):
        failing()
    tr.wrap("after", lambda: None)()
    assert tr.stats["failing"].calls == 1
    assert tr.root_s == 2 + 1
    assert tr.open["failing"] == 0


def test_install_traces_and_restore_puts_originals_back():
    originals = (profile.build_cutoff, cli.build_cutoff, qc.cayley, qc.QuadMatrix.inverse)
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        assert cli.build_cutoff is not originals[1]
        cli.build_cutoff(6.0, (1.0, 5.0))
    finally:
        restore()
    assert (profile.build_cutoff, cli.build_cutoff, qc.cayley, qc.QuadMatrix.inverse) == originals
    assert tr.stats["profile.build_cutoff"].calls == 1
    assert tr.stats["smoothstep.step"].counts["points"] == profile.GRID_POINTS
    assert tr.self_total() == pytest.approx(tr.root_s, abs=1e-9)


def test_every_traced_layer_has_metrics():
    assert sorted(tracer.layer_names()) == sorted(metrics.LAYER_MOVES)


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_unique():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names + list(metrics.per_layer()):
        assert re.fullmatch(metrics.NAME_PATTERN, name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_benchmark_json_matches_metric_tables():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in metrics.per_layer().items()
    ]
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def _bad_input_op():
    # does not preserve B, so approximate_in_Ul raises ValueError
    B = qc.HermitianDiagForm((Fraction(1), Fraction(1)))
    return workloads.approx_op(np.diag([2.0, 1.0]).astype(complex), B, 1, 1e-6)


def test_bad_input_is_counted_and_the_run_goes_on(tmp_path):
    bench_run = run.Run("exact_density", 5, tmp_path)
    good = bench_run.make
    bench_run.make = lambda seed, out: good(seed, out)[:3] + [_bad_input_op()] + good(seed, out)[3:5]
    bench_run.iteration(0)
    bench_run.iteration(1)
    assert (bench_run.attempted, bench_run.failed) == (12, 2)
    witness = bench_run.witnesses[0]
    assert {k: witness[k] for k in ("workload", "seed", "iteration", "index")} == {
        "workload": "exact_density", "seed": 5, "iteration": 0, "index": 3,
    }
    assert witness["error"].startswith("ValueError: input does not preserve B")


def test_witness_replays_its_operation(tmp_path):
    bench_run = run.Run("psh_bundle", 3, tmp_path)
    bench_run.iteration(0)
    assert bench_run.failed == 0
    ops = workloads.psh_bundle_ops(workloads.iteration_seed(3, 1), tmp_path)
    first = workloads.run_op(ops[7])
    witness = {"workload": "psh_bundle", "seed": 3, "iteration": 1, "index": 7}
    again = workloads.replay(witness, tmp_path)
    assert again.ok and again.digest == first.digest


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "psh_bundle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_probe_samples_while_busy_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(0.02) as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    assert sum(probe.samples) <= probe.spent_s < 0.3
