"""Seeded workloads of the cuspforge benchmark.

A workload turns an iteration seed into a list of operations.  Making the
operations draws every input; running one calls the program through a
public entry point (`cuspforge.cli.main` or a module function) and checks
the output by a second route.  An operation returns an Outcome and never
raises: an exception, a nonzero exit code or a failed check is a failed
operation, counted and kept as a witness.

Why each workload exists:

* verify_all: `cuspforge verify all` with the default config, the command
  users run; about 90% of it is the profile psi solve.
* curvature_scan: `verify curvature --samples 20000 --n 3` (scalar jets and
  closed forms) plus `sweep t --steps 60 --n 8` (oracle builds and
  evaluations on 60 distinct metric points).  No psi solve, no exact
  arithmetic.
* exact_density: `approximate_in_Ul` and `unipotent_fixed_vector`, all
  Fraction/QuadElem work; no float layer runs.
* psh_bundle: psh, cusp_bundle and heisenberg_siegel, which are under 3%
  of every other workload.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from cuspforge import cli, cusp_bundle, heisenberg_siegel, psh
from cuspforge import qfield_cayley as qc

SWEEP = dict(lo=0.5, hi=5.5, steps=60)
EXACT_MS = (2, 3, 4)
EXACT_DS = (1, 2, 3, 7)
GENERIC_EPS = (1e-6, 1e-9)
SMALL_EPS = 1e-6
# with an eigenvalue at -1 the input is first rotated, and the error is of
# the order of the rotation angle; that angle grows when another eigenvalue
# is near -1 too, so this is the tolerance the package's own rotation test
# uses, not one tuned to the inputs
ROTATION_EPS = 1e-2
FIXED_VECTOR_NS = (3, 5)
HESSIANS_PER_N = 48
HESSIAN_NS = (3, 6)
REG_MAX_PAIRS = 4000
CHI_SAMPLES = 2000
INVARIANCE_DRAWS = 2000
INVARIANCE_N = 6


@dataclass
class Outcome:
    ok: bool
    digest: str = ""  # stable digest of the output, compared across repeats
    detail: dict = field(default_factory=dict)


Operation = Callable[[], Outcome]


def iteration_seed(seed: int, iteration: int) -> int:
    """Seed of one iteration.  Iterations 2k and 2k+1 share it, so each
    pair repeats the same inputs and their outputs must agree."""
    state = np.random.SeedSequence([seed, iteration // 2]).generate_state(1)
    return int(state[0] % 2**31)


def run_op(op: Operation) -> Outcome:
    try:
        return op()
    except Exception as exc:  # counted as a failed operation, not raised
        return Outcome(
            False,
            detail={
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=-3),
            },
        )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()[-500:]


def _verify_op(argv: list[str], out: Path) -> Operation:
    def op() -> Outcome:
        out.unlink(missing_ok=True)
        code, err = _cli(argv + ["--out", str(out)])
        report = json.loads(out.read_text())
        report.pop("timings")
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        ok = code == 0 and report["passed"] is True and bool(report["checks"]) and not failed
        detail = {} if ok else {"exit_code": code, "failed_checks": failed, "stderr": err}
        return Outcome(ok, _digest(json.dumps(report, sort_keys=True)), detail)

    return op


def _sweep_op(argv: list[str], out: Path) -> Operation:
    def op() -> Outcome:
        out.unlink(missing_ok=True)
        code, err = _cli(argv + ["--out", str(out)])
        text = out.read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        table = np.array([[float(v) for v in row.values()] for row in rows])
        expected_t = np.linspace(SWEEP["lo"], SWEEP["hi"], SWEEP["steps"])
        cols = {name: table[:, k] for k, name in enumerate(rows[0])}
        bad = [
            i for i in range(len(rows))
            if not (
                cols["min_hbc"][i] <= cols["max_hbc"][i] < 0.0
                and cols["min_ricci_eigenvalue"][i] < 0.0
                and cols["sectional_min"][i] <= cols["sectional_max"][i]
            )
        ]
        ok = (
            code == 0
            and len(rows) == SWEEP["steps"]
            and bool(np.all(np.isfinite(table)))
            and np.array_equal(cols["t"], expected_t)
            and not bad
        )
        detail = {} if ok else {"exit_code": code, "bad_rows": bad[:10], "stderr": err}
        return Outcome(ok, _digest(text), detail)

    return op


def verify_all_ops(seed: int, out_dir: Path) -> list[Operation]:
    return [_verify_op(["verify", "all", "--seed", str(seed)], out_dir / "verify_all.json")]


def curvature_scan_ops(seed: int, out_dir: Path) -> list[Operation]:
    verify = ["verify", "curvature", "--samples", "20000", "--n", "3", "--seed", str(seed)]
    sweep = [
        "sweep", "t", "--from", str(SWEEP["lo"]), "--to", str(SWEEP["hi"]),
        "--steps", str(SWEEP["steps"]), "--n", "8", "--seed", str(seed),
    ]
    return [
        _verify_op(verify, out_dir / "curvature.json"),
        _sweep_op(sweep, out_dir / "sweep_t.csv"),
    ]


# ---------------------------------------------------------------------------
# exact_density
# ---------------------------------------------------------------------------


def _small(rng: np.random.Generator) -> Fraction:
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))


def float_skew(rng: np.random.Generator, diag, d: int) -> np.ndarray:
    """Random float S = X + Y sqrt(-d) with tS B = -B conj(S), B = diag."""
    m = len(diag)
    sqd = math.sqrt(d)
    S = np.zeros((m, m), dtype=complex)
    for i in range(m):
        S[i, i] = 1j * sqd * rng.uniform(-1.0, 1.0)
        for j in range(i + 1, m):
            x, y = rng.uniform(-1.0, 1.0, 2)
            ratio = float(diag[i] / diag[j])
            S[i, j] = x + 1j * sqd * y
            S[j, i] = -ratio * x + 1j * sqd * ratio * y
    return S


def approx_op(M: np.ndarray, B: qc.HermitianDiagForm, d: int, eps: float) -> Operation:
    def op() -> Outcome:
        Mq = qc.approximate_in_Ul(M, B, d, eps)
        exact = qc.in_unitary_group(Mq, B.matrix(d))
        err = float(np.max(np.abs(Mq.to_complex() - M)))
        ok = exact and err <= eps
        detail = {} if ok else {"exact_unitary": exact, "error": err, "eps": eps}
        return Outcome(ok, _digest(Mq.to_json()), detail)

    return op


def _fixed_vector_op(M: qc.QuadMatrix, H: qc.QuadMatrix) -> Operation:
    def op() -> Outcome:
        v = qc.unipotent_fixed_vector(M, H)
        sq = qc.form_value(H, v, v)
        fixed = M.apply(v) == v and not all(e.is_zero() for e in v)
        ok = fixed and sq.is_rational() and sq.a <= 0
        detail = {} if ok else {"fixed": fixed, "h_square": repr(sq)}
        return Outcome(ok, _digest(repr(v)), detail)

    return op


def exact_density_ops(seed: int, out_dir: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    ops = []
    for m in EXACT_MS:
        for d in EXACT_DS:
            B = qc.HermitianDiagForm(
                tuple(Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4))) for _ in range(m))
            )
            # exact Cayley image with small denominators
            x = {(i, j): _small(rng) for i in range(m) for j in range(i + 1, m)}
            y = {(i, j): _small(rng) for i in range(m) for j in range(i, m)}
            M = qc.cayley(qc.constraint_fill(x, y, B, d)).to_complex()
            ops.append(approx_op(M, B, d, SMALL_EPS))
            # near-generic: large denominators after rationalization
            for eps in GENERIC_EPS:
                ops.append(approx_op(qc.cayley(float_skew(rng, B.diag, d)), B, d, eps))
            # eigenvalue -1 at one coordinate: I + M is singular
            k = int(rng.integers(m))
            rest = [i for i in range(m) if i != k]
            M = np.zeros((m, m), dtype=complex)
            M[k, k] = -1.0
            sub = float_skew(rng, tuple(B.diag[i] for i in rest), d)
            M[np.ix_(rest, rest)] = qc.cayley(sub)
            ops.append(approx_op(M, B, d, ROTATION_EPS))
    for n in FIXED_VECTOR_NS:
        for d in EXACT_DS:
            v = [qc.QuadElem(_small(rng), _small(rng), d) for _ in range(n - 1)]
            M = qc.heisenberg_matrix_exact(_small(rng), v, d)
            ops.append(_fixed_vector_op(M, qc.polarized_form_matrix(n, d)))
    return ops


# ---------------------------------------------------------------------------
# psh_bundle
# ---------------------------------------------------------------------------


def _hessian_op(z0: np.ndarray, cp: cusp_bundle.CuspParams) -> Operation:
    def op() -> Outcome:
        rep = psh.complex_hessian(lambda z: psh.phi_cusp_ambient(z, cp), z0)
        ok = rep.min_eigenvalue > 0.0
        detail = {} if ok else {"min_eigenvalue": rep.min_eigenvalue}
        return Outcome(ok, _digest(repr(rep.eigenvalues.tolist())), detail)

    return op


def _reg_max_op(x: float, y: float, pr: psh.RegMaxParams) -> Operation:
    def op() -> Outcome:
        M = psh.reg_max(x, y, pr)
        swapped = psh.reg_max(y, x, pr)
        # the tolerance of the CLI's own psh.reg_max_properties check
        ok = max(x, y) - M <= 1e-9 and abs(M - swapped) <= 1e-9
        detail = {} if ok else {"x": x, "y": y, "value": M, "swapped": swapped}
        return Outcome(ok, repr(M), detail)

    return op


def _chi_op(phi: np.ndarray, psi: np.ndarray) -> Operation:
    def op() -> Outcome:
        chi = psh.build_chi(list(enumerate(phi.tolist())), list(enumerate(psi.tolist())))
        margins = chi(psi) - phi
        ok = bool(np.all(margins > 0.0)) and chi(0.0) == 0.0
        detail = {} if ok else {"min_margin": float(margins.min()), "chi_at_zero": chi(0.0)}
        return Outcome(ok, _digest(repr((chi.breakpoints, chi.slopes))), detail)

    return op


def _invariance_op(
    g: heisenberg_siegel.HeisenbergElement,
    pt: cusp_bundle.BundlePoint,
    cp: cusp_bundle.CuspParams,
) -> Operation:
    def op() -> Outcome:
        moved = cusp_bundle.lattice_act(g, pt, cp)
        base = cusp_bundle.h_norm(pt, cp)
        drift = abs(cusp_bundle.h_norm(moved, cp) - base) / max(1.0, base)
        ok = drift <= 1e-12
        return Outcome(ok, repr(base), {} if ok else {"relative_drift": drift})

    return op


def _complex_normal(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def psh_bundle_ops(seed: int, out_dir: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in HESSIAN_NS:
        cp = cusp_bundle.CuspParams(l=2.0 * math.pi, t0=float(rng.uniform(0.0, 1.0)), n=n)
        for _ in range(HESSIANS_PER_N):
            v = _complex_normal(rng, n - 1)
            v *= float(rng.uniform(0.0, 3.0)) / float(np.linalg.norm(v))
            a = float(rng.uniform(0.0, 0.9)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            ops.append(_hessian_op(np.concatenate([[a], v]), cp))
    pr = psh.RegMaxParams(eta=float(rng.uniform(0.2, 1.0)))
    for k, (x, y) in enumerate(rng.uniform(-3.0, 3.0, (REG_MAX_PAIRS, 2))):
        if k % 2:
            # inside the band |x - y| < 2 eta, where the quadrature runs
            y = x + 1.9 * pr.eta * (y / 3.0)
        ops.append(_reg_max_op(float(x), float(y), pr))
    radii = rng.uniform(0.05, 1.0, CHI_SAMPLES)
    ops.append(_chi_op(1.0 / radii, float(rng.uniform(0.3, 0.7)) / radii + 0.2))
    cp = cusp_bundle.CuspParams(l=float(rng.uniform(1.0, 10.0)), t0=0.0, n=INVARIANCE_N)
    for _ in range(INVARIANCE_DRAWS):
        a = float(rng.uniform(0.05, 0.9)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        pt = cusp_bundle.BundlePoint(complex(a), _complex_normal(rng, INVARIANCE_N - 1))
        g = heisenberg_siegel.HeisenbergElement(
            float(rng.normal()), _complex_normal(rng, INVARIANCE_N - 1)
        )
        ops.append(_invariance_op(g, pt, cp))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Operation]]] = {
    "verify_all": verify_all_ops,
    "curvature_scan": curvature_scan_ops,
    "exact_density": exact_density_ops,
    "psh_bundle": psh_bundle_ops,
}


def replay(witness: dict, out_dir: Path) -> Outcome:
    """Run again the one operation a witness names."""
    make = WORKLOADS[witness["workload"]]
    ops = make(iteration_seed(witness["seed"], witness["iteration"]), out_dir)
    return run_op(ops[witness["index"]])
