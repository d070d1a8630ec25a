"""cuspforge benchmark: seeded batch-verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --replay WITNESS_JSON

Run it from the root of a source checkout: the package is imported from
./src, never from an installed copy, and nothing is built.  One closed-loop
client runs in this single process with BLAS pinned to one thread.

--trace 0 runs iterations until S seconds have passed and at least two
have run, and reports the end-to-end metrics: wall_ref, the peak RSS of
this process, and setup_s, the median of several cold starts
(`setup_probe.py`) in fresh interpreters.  On a shared host the speed
given to one process drifts by a quarter over tens of seconds and more
between minutes, so both times are taken against a fixed reference
computation (speed.py): wall_ref is the mean iteration wall time times
the mean speed of the reference, sampled every 0.2 s while the
iterations run, and each cold start is scaled to the nominal reference
speed by samples taken right after it.  The raw times are kept, with
quartiles, in the detail line.

--trace 1 runs each iteration untraced and then traced with the same
inputs, until S seconds have passed, and reports the per-layer metrics:
calls, self times and counts per iteration (see metrics.py), the tracing
overhead, the microtiming probes, and a traced cold start.

Every operation's output is checked; failures are counted, never raised,
and kept as witnesses that `--replay` runs again.  The last line printed
is the result object; the line before it carries the environment stamp,
quartiles, sample counts and witnesses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from speed import SpeedProbe, mean_speed, scaled_s

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
OUT_DIR = ".perfbench_run"
SETUP_RUNS = 7
TRACED_SETUP_RUNS = 3
MIN_ITERATIONS = 2  # a pair shares one seed, so outputs can be compared
MAX_WITNESSES = 20
SPEED_PERIOD_S = 0.2
# |sum of self times + untraced remainder - traced wall| allowed, seconds
SELF_CHECK_TOL = 1e-6


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cuspforge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or None
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(root: Path) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def cold_starts(root: Path, runs: int, traced: bool) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + (["--trace"] if traced else [])
    results = []
    for _ in range(runs):
        done = subprocess.run(
            cmd, env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True
        )
        results.append(json.loads(done.stdout.splitlines()[-1]))
    return results


# ---------------------------------------------------------------------------
# Iterations
# ---------------------------------------------------------------------------


class Run:
    """Iterations of one workload, with their outcomes and witnesses."""

    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        import workloads

        self.workloads = workloads
        self.make = workloads.WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.witnesses: list[dict] = []
        self._digests: dict[int, list[str]] = {}

    def iteration(self, i: int, tracer=None, speed: SpeedProbe | None = None) -> float:
        """Run iteration i, traced if a tracer is given; return its wall time.

        Inputs are drawn and outputs compared outside the timed region, and
        the time of speed samples taken inside it is left out.
        """
        import tracer as tracing
        from cuspforge import curvature

        seed = self.workloads.iteration_seed(self.seed, i)
        ops = self.make(seed, self.out_dir)
        # every CLI process starts with an empty oracle cache; the one-time
        # quadrature tables stay warm, since setup_s pays for them
        curvature.oracle_for.cache_clear()
        restore = tracing.install(tracer) if tracer is not None else None
        spent = speed.spent_s if speed is not None else 0.0
        try:
            start = time.perf_counter()
            outcomes = [self.workloads.run_op(op) for op in ops]
            wall = time.perf_counter() - start
        finally:
            if restore is not None:
                restore()
        if speed is not None:
            wall -= speed.spent_s - spent
        first = self._digests.setdefault(seed, [o.digest for o in outcomes])
        for k, outcome in enumerate(outcomes):
            self.attempted += 1
            detail = outcome.detail
            if outcome.ok and outcome.digest != first[k]:
                detail = {"check": "output differs from an earlier iteration with the same seed"}
            elif outcome.ok:
                continue
            self.failed += 1
            if len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(
                    {"workload": self.workload, "seed": self.seed, "iteration": i, "index": k, **detail}
                )
        return wall


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """wall_ref is the mean iteration wall time times the mean speed the
    reference samples saw (1 / their time): the samples are spread evenly
    over the same stretch of time, so this is the work of one iteration in
    units of the reference computation."""
    walls: list[float] = []
    with SpeedProbe(SPEED_PERIOD_S) as speed:
        start = time.perf_counter()
        while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            walls.append(run.iteration(len(walls), speed=speed))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_ref = statistics.mean(walls) * mean_speed(speed.samples)
    values = {"wall_ref": wall_ref, "peak_rss_mb": rss_mib}
    return values, {"wall_s": summary(walls), "reference_s": summary(speed.samples)}


def measure_traced(run: Run, seconds: float, root: Path) -> tuple[dict, dict, bool]:
    import probes
    import tracer as tracing
    from cuspforge import curvature

    tr = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    remainders: list[float] = []
    defects: list[float] = []
    hits = misses = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        i = len(traced)
        plain.append(run.iteration(i))
        root0, self0 = tr.root_s, tr.self_total()
        wall = run.iteration(i, tr)
        info = curvature.oracle_for.cache_info()
        hits += info.hits
        misses += info.misses
        traced.append(wall)
        spans, self_s = tr.root_s - root0, tr.self_total() - self0
        remainder = wall - spans
        remainders.append(remainder)
        defects.append(max(abs(self_s + remainder - wall), -remainder))

    n = len(traced)
    values = metrics.layer_values(tr.stats, n)
    values["curvature.oracle_for.hits"] = hits / n
    values["curvature.oracle_for.misses"] = misses / n
    values["curvature.oracle_for.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace_overhead_ratio"] = sum(traced) / sum(plain)
    values["trace.untraced_s"] = statistics.mean(remainders)
    values["fail_ratio"] = run.failed / run.attempted
    values.update(probes.run())
    cold = cold_starts(root, TRACED_SETUP_RUNS, traced=True)
    values["smoothstep.first_call_s"] = statistics.median(c["first_call_s"] for c in cold)
    values["setup.import_s"] = statistics.median(c["import_s"] for c in cold)
    self_check_ok = max(defects) <= SELF_CHECK_TOL
    detail = {
        "wall_s_untraced": summary(plain),
        "wall_s_traced": summary(traced),
        "self_check_max_defect_s": max(defects),
        "oracle_for": {"hits": hits, "misses": misses},
    }
    return values, detail, self_check_ok


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="cuspforge benchmark")
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", metavar="WITNESS_JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.replay is None):
        parser.error("give either --workload or --replay")
    root = Path.cwd()
    src = root / "src"
    if not (src / "cuspforge" / "__init__.py").is_file():
        print("error: no ./src/cuspforge; run from the root of a cuspforge checkout",
              file=sys.stderr)
        return 2
    # before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import cuspforge

    if Path(cuspforge.__file__).resolve().parent != (src / "cuspforge").resolve():
        print(f"error: cuspforge imported from {cuspforge.__file__}, not ./src",
              file=sys.stderr)
        return 2
    import workloads
    from cuspforge.profile import build_cutoff

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    if args.replay is not None:
        outcome = workloads.replay(json.loads(args.replay), out_dir)
        print(json.dumps({"ok": outcome.ok, "digest": outcome.digest, **outcome.detail}))
        return 0 if outcome.ok else 1

    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(root),
    }
    run = Run(args.workload, args.seed, out_dir)
    build_cutoff(6.0, (1.0, 5.0))  # the one-time quadrature tables
    if args.trace:
        values, extra, correct = measure_traced(run, args.seconds, root)
        units = {name: unit for name, (unit, _, _) in metrics.per_layer().items()}
    else:
        cold = cold_starts(root, SETUP_RUNS, traced=False)
        setup = [scaled_s(c["setup_s"], c["reference_s"]) for c in cold]
        values, extra = measure(run, args.seconds)
        values["setup_s"] = statistics.median(setup)
        extra["setup_s"] = summary(setup)
        extra["setup_s_unscaled"] = summary([c["setup_s"] for c in cold])
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        correct = True
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    correct = correct and run.failed == 0
    detail.update(extra)
    detail.update(
        attempted=run.attempted,
        failed=run.failed,
        fail_ratio=run.failed / run.attempted,
        witnesses=run.witnesses,
    )
    print(json.dumps(detail))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
