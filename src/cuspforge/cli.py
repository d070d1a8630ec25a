"""Batch verification harness.

`cuspforge verify <suite>` runs one of the check suites (profile,
curvature, bundle, cayley, psh, or all) and emits a JSON report;
`cuspforge sweep <axis>` tabulates curvature and eigenvalue summaries
along a parameter axis as CSV for external plotting.  Reports are
deterministic for a fixed seed: everything except the timings field is
byte-stable.

`_SUITES` is the one table of checks: for each suite, the function that
computes its results and the `Check`s they belong to, in report order.
Each `Check` names the routes it compares, or says why it has only one.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, fields, asdict, replace
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import curvature as cv
from . import psh
from . import qfield_cayley as qc
from .cusp_bundle import (
    BundlePoint,
    CuspParams,
    bundle_curvature,
    cusp_to_disk,
    h_norm,
    lattice_act,
)
from .heisenberg_siegel import (
    HeisenbergElement,
    lambda_const,
    orbit_coords,
    quotient_to_omega,
)
from . import profile
from .profile import ProfileError, build_cutoff, solve_psi

AXES = ("t", "A", "l", "n")


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    n: int = 3
    d: int = 1
    A: float = 6.0
    window: tuple[float, float] = (1.0, 5.0)
    l: float = 2.0 * math.pi
    t0: float = 0.0
    eps: float = 1e-6
    samples: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        # the integer keys first, then the float keys
        for key, kind in sorted(_FLAG_TYPES.items(), key=lambda item: item[1] is float):
            value = getattr(self, key)
            if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if kind is float and not _is_finite_number(value):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        w = self.window
        if not isinstance(w, (tuple, list)) or len(w) != 2 or not all(
            map(_is_finite_number, w)
        ):
            raise ValueError(f"window must be two finite numbers, got {w!r}")
        object.__setattr__(self, "window", tuple(w))
        if not qc._is_squarefree(self.d):
            raise ValueError(f"d = {self.d} is not a squarefree positive integer")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (1e-12 <= self.eps <= 1e-2):
            raise ValueError("eps outside the supported range [1e-12, 1e-2]")
        if not (0 < self.window[0] < self.window[1] < self.A):
            raise ValueError("window must sit strictly inside (0, A)")
        if self.l <= 0:
            raise ValueError("l must be positive")
        self.cusp_params()  # rejects a t0 with lambda(t0) = 0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["window"] = list(self.window)
        return d

    def cusp_params(self) -> CuspParams:
        return CuspParams(l=self.l, t0=self.t0, n=self.n)


# each int or float field of SuiteConfig is a config key with a flag of the
# same name and type, in declaration order
_FLAG_TYPES = {k: t for k, t in get_type_hints(SuiteConfig).items() if t in (int, float)}


@dataclass
class CheckRecord:
    name: str
    passed: bool
    margin: float
    witness: dict


@dataclass
class Report:
    suite: str
    config: dict
    config_hash: str
    checks: list[CheckRecord]
    timings: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "config": self.config,
            "config_hash": self.config_hash,
            "checks": [asdict(c) for c in self.checks],
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_json_dict(), sort_keys=True, indent=2, default=_unwrap_scalar
        )


def _unwrap_scalar(obj):
    # numpy scalars reach witnesses through array reductions
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _config_hash(cfg: SuiteConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Check:
    """One entry of a suite: `routes` names, by function name, the
    computations the check compares.  A check with a single route says in
    `why_one_route` why it has no second one."""

    name: str
    routes: tuple[str, ...]
    why_one_route: str = ""


# ---------------------------------------------------------------------------
# Check functions.  Each yields (margin, witness) for the checks of its
# suite, in the order of the table below, and must be deterministic for a
# fixed config; run_suite derives the pass flag from the margin alone.  The
# margin is tolerance - error, the _least over the check's conditions, so a
# check passes exactly when its margin is +0.0 or more, and a NaN fails.  A
# strict condition v > 0 reads _strict(v), -0.0 at v = 0.  An exact
# condition reads 0.0 when it holds and -1.0 when it fails; a check that
# adds it to a numeric tolerance reads -1.0 when it fails.
# ---------------------------------------------------------------------------


def _least(*margins: float) -> float:
    # np.min keeps a nan, where the builtin min drops one not in first place
    return float(np.min(margins))


def _strict(value: float) -> float:
    # v > 0 holds exactly when the margin is +0.0 or more, once 0 reads -0.0
    return float(value) or -0.0


def _profile_checks(cfg: SuiteConfig) -> Iterator[tuple[float, dict]]:
    p = build_cutoff(cfg.A, cfg.window)
    margins = p.positivity_margins()
    names = ("f", "fp", "fpp", "fppp")
    yield _strict(margins.min()), {k: float(v) for k, v in zip(names, margins)}
    j0 = p.jet_at(0.0)
    jA = p.jet_at(cfg.A)
    exact0 = tuple(j0) == (1.0, 0.0, 1.0, 0.0)
    exactA = jA[0] == jA[1] == jA[2] == jA[3]
    relA = abs(float(jA[0]) - math.exp(cfg.A)) / math.exp(cfg.A)
    yield (
        1e-10 - relA if exact0 and exactA else -1.0,
        {"jet0": [float(v) for v in j0], "jetA": [float(v) for v in jA]},
    )
    sol = solve_psi(p, t_min=0.05)
    res = sol.max_residual()
    yield 1e-8 - res, {"residual": res}
    idd = sol.identity_defect(cfg.window[1])
    yield 1e-10 - idd, {"defect": idd}


def _curvature_checks(cfg: SuiteConfig) -> Iterator[tuple[float, dict]]:
    p = build_cutoff(cfg.A, cfg.window)

    mp_exp = cv.MetricPoint.exp_model(0.0, cfg.n)
    bl = cv.hs_blocks(mp_exp)
    dev = float(np.max(np.abs([bl.G - [[-4.0, -2.0], [-2.0, -4.0]], bl.F + 1.0])))
    rng = np.random.default_rng(cfg.seed + 11)
    F = cv.random_frame_vector(rng, cfg.n, (min(cfg.samples, 1000), 2))
    X, Y = F[:, 0], F[:, 1]
    oracle = cv.CurvatureOracle(mp_exp)
    hsc_dev = float(np.max(np.abs(oracle.holomorphic_sectional(X) + 4.0)))
    s = oracle.sectional(X, Y)
    sec_lo, sec_hi = float(s.min()), float(s.max())
    band_lo, band_hi = -4.0 - 1e-8, -1.0 + 1e-8
    yield (
        _least(1e-12 - dev, 1e-8 - hsc_dev, sec_lo - band_lo, band_hi - sec_hi),
        {"block_deviation": dev, "hsc_deviation": hsc_dev, "sectional": [sec_lo, sec_hi]},
    )

    rng = np.random.default_rng(cfg.seed + 13)
    t_nodes = np.linspace(0.05, cfg.A, 40)
    F = cv.random_frame_vector(rng, cfg.n, (40, max(2, min(cfg.samples, 400) // 40), 2))
    Y, Xi = F[:, :, 0], F[:, :, 1]
    mp = cv.MetricPoint.from_profile(p, t_nodes[:, None], cfg.n)
    ref = cv.CurvatureOracle(mp).bisectional(Y, Xi)
    worst = float(np.max(np.abs(cv.bisectional(Y, Xi, mp) - ref) / (1.0 + np.abs(ref))))
    yield 1e-6 - worst, {"max_relative_error": worst}

    cert = cv.hbc_certificate(p, cfg.samples, n=cfg.n, seed=cfg.seed)
    yield (
        -cert.worst_interior_ratio if cert.passed else -1.0,
        {
            "max_value": cert.max_value,
            "worst_interior_ratio": cert.worst_interior_ratio,
            "min_cs_slack": cert.min_cs_slack,
            "failures": cert.failures,
        },
    )

    rng = np.random.default_rng(cfg.seed + 17)
    draws = min(cfg.samples, 300)
    te = rng.uniform(cfg.window[1], cfg.A, draws)
    tc = rng.uniform(0.0, cfg.window[0], draws)
    F = cv.random_frame_vector(rng, cfg.n, (draws, 2))
    Xie, Xic = F[:, 0], F[:, 1]
    # the glued window, drawn last so that the draws above keep their bits:
    # only there is f'' != f, so only there can the oracle route see the
    # closed form confuse f'' with f or f''' with f'
    tg = rng.uniform(cfg.window[0], cfg.window[1], draws)
    Xig = cv.random_frame_vector(rng, cfg.n, (draws,))
    mpe = cv.MetricPoint.from_profile(p, te, cfg.n)
    mpc = cv.MetricPoint.from_profile(p, tc, cfg.n)
    mpg = cv.MetricPoint.from_profile(p, tg, cfg.n)
    nsq = Xie.norm_sq(mpe)
    ric_e, ric_c, ric_g = cv.ricci(Xie, mpe), cv.ricci(Xic, mpc), cv.ricci(Xig, mpg)
    einstein = float(np.max(np.abs(ric_e + (2 * cfg.n + 2) * nsq) / np.maximum(1.0, nsq)))
    cosh_slack = float(np.max(ric_c + 2.0 * Xic.norm_sq(mpc)))
    # the oracle's Ricci trace at the same draws, in blocks of points: an
    # oracle holds nnz values per point, as the point oracle above does
    ref = np.concatenate([
        cv.CurvatureOracle(cv.MetricPoint.from_profile(p, t[rows], cfg.n)).ricci(Xi[rows])
        for t, Xi in ((te, Xie), (tc, Xic), (tg, Xig))
        for rows in profile.blocks(draws, oracle.RL.size)
    ])
    # relative, as Ricci is negative definite: at most 1.4e-12 measured, at
    # n = 2 for t down to 1e-8, where the oracle's terms cancel most
    oracle_dev = float(np.max(np.abs(np.concatenate([ric_e, ric_c, ric_g]) - ref) / np.abs(ref)))
    yield (
        _least(1e-8 - einstein, 1e-10 - cosh_slack, 1e-8 - oracle_dev),
        {"einstein_defect": einstein, "cosh_region_slack": cosh_slack, "oracle_deviation": oracle_dev},
    )


def _bundle_checks(cfg: SuiteConfig) -> Iterator[tuple[float, dict]]:
    cp = cfg.cusp_params()
    rng = np.random.default_rng(cfg.seed + 23)
    drifts = []
    for _ in range(min(cfg.samples, 1000)):
        v = rng.standard_normal(cfg.n - 1) + 1j * rng.standard_normal(cfg.n - 1)
        a = complex(rng.uniform(0.05, 0.9)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        pt = BundlePoint(a, v)
        g = HeisenbergElement(
            float(rng.normal()), rng.standard_normal(cfg.n - 1) + 1j * rng.standard_normal(cfg.n - 1)
        )
        moved = lattice_act(g, pt, cp)
        base = h_norm(pt, cp)
        drifts.append(abs(h_norm(moved, cp) - base) / max(1.0, base))
    worst = float(np.max(drifts))
    yield 1e-12 - worst, {"max_relative_drift": worst}

    curv = bundle_curvature(cp)
    eigs = np.linalg.eigvalsh(0.5 * (curv + curv.T))
    yield _strict(-np.max(eigs)), {"eigenvalues": [float(e) for e in eigs]}

    lam = lambda_const(cfg.t0, cfg.l)
    boundary = orbit_coords(0.0, np.zeros(cfg.n - 1), cfg.t0)
    lam_q = abs(quotient_to_omega(boundary, cfg.l)[0])
    drift = abs(lam - lam_q)
    t_probe = 0.5 * cfg.A
    elem = HeisenbergElement(0.3, np.zeros(cfg.n - 1))
    a_disk, _ = cusp_to_disk(t_probe, elem, cfg.A)
    domain_err = None
    try:
        cusp_to_disk(cfg.A + 1.0, elem, cfg.A)
    except ValueError as e:
        domain_err = str(e)
    yield (
        _least(1e-12 - drift, 1e-12 - abs(abs(a_disk) - t_probe)) if domain_err is not None else -1.0,
        {"lambda": lam, "lambda_quotient_route": lam_q, "domain_error": domain_err},
    )


def _cayley_checks(cfg: SuiteConfig) -> Iterator[tuple[float, dict]]:
    rng = np.random.default_rng(cfg.seed + 31)
    per_form = max(5, min(cfg.samples, 400) // 20)
    errors = []
    all_exact = True
    for m in (2, 3):
        B = qc.HermitianDiagForm(tuple(Fraction(k + 1) for k in range(m)))
        for _ in range(per_form):
            x = {
                (i, j): Fraction(float(rng.uniform(-1, 1))).limit_denominator(40)
                for i in range(m)
                for j in range(i + 1, m)
            }
            y = dict(x)
            y.update(
                {
                    (i, i): Fraction(float(rng.uniform(-1, 1))).limit_denominator(40)
                    for i in range(m)
                }
            )
            M = qc.cayley(qc.constraint_fill(x, y, B, cfg.d)).to_complex()
            Mq = qc.approximate_in_Ul(M, B, cfg.d, cfg.eps)
            all_exact &= qc.in_unitary_group(Mq, B.matrix(cfg.d))
            errors.append(np.max(np.abs(Mq.to_complex() - M)))
    worst_err = float(np.max(errors))
    yield (
        cfg.eps - worst_err if all_exact else -1.0,
        {"max_entry_error": worst_err, "eps": cfg.eps, "runs": len(errors)},
    )

    B = qc.HermitianDiagForm((Fraction(1), Fraction(2), Fraction(3)))
    S = qc.constraint_fill(
        {(0, 1): Fraction(1, 3), (0, 2): Fraction(-1, 5), (1, 2): Fraction(2, 7)},
        {(0, 0): Fraction(1, 2), (1, 1): Fraction(-2, 9), (2, 2): Fraction(1, 4),
         (0, 1): Fraction(3, 8), (0, 2): Fraction(1, 6), (1, 2): Fraction(-1, 2)},
        B,
        cfg.d,
    )
    fill_ok = qc.in_cayley_image(S, B)
    M = qc.cayley(S)
    invol_ok = qc.cayley(M) == S and qc.in_unitary_group(M, B.matrix(cfg.d))
    yield (
        0.0 if fill_ok and invol_ok else -1.0,
        {"constraint_exact": fill_ok, "involution_exact": invol_ok},
    )

    H = qc.polarized_form_matrix(cfg.n, cfg.d)
    vq = [qc.QuadElem(Fraction(1), Fraction(1, 2), cfg.d)] + [
        qc.qzero(cfg.d) for _ in range(cfg.n - 2)
    ]
    Mh = qc.heisenberg_matrix_exact(Fraction(2, 3), vq, cfg.d)
    try:
        vfix = qc.unipotent_fixed_vector(Mh, H)
        sq = qc.form_value(H, vfix, vfix)
        fixed_ok = (
            Mh.apply(vfix) == vfix
            and sq.is_rational()
            and sq.a <= 0
            and qc.in_unitary_group(Mh, H)
        )
    except ValueError:
        fixed_ok = False
    vfix = qc.unipotent_fixed_vector(qc.QuadMatrix.identity(cfg.n + 1, cfg.d), H)
    ident_ok = qc.form_value(H, vfix, vfix).a <= 0
    yield (
        0.0 if fixed_ok and ident_ok else -1.0,
        {"heisenberg_case": fixed_ok, "identity_case": ident_ok},
    )

    orders, trace_orders = {}, {}
    ok = True
    cases = [("one", qc.qone(cfg.d), 1), ("minus_one", -qc.qone(cfg.d), 2)]
    if cfg.d == 3:
        cases.append(
            ("sixth_root", qc.QuadElem(Fraction(1, 2), Fraction(1, 2), 3), 6)
        )
    if cfg.d == 1:
        cases.append(("fourth_root", qc.qomega(1), 4))
    for name, alpha, want in cases:
        orders[name] = qc.root_of_unity_power(qc.QuadMatrix([[alpha]]), [qc.qone(cfg.d)])
        trace_orders[name] = qc.order_from_trace(alpha)
        ok &= orders[name] == trace_orders[name] == want
    yield 0.0 if ok else -1.0, {"orders": orders, "trace_orders": trace_orders}


def _psh_checks(cfg: SuiteConfig) -> Iterator[tuple[float, dict]]:
    pr = psh.RegMaxParams(eta=0.5)
    rng = np.random.default_rng(cfg.seed + 41)
    defects = []
    for _ in range(min(cfg.samples, 1000)):
        x, y = rng.uniform(-3, 3, 2)
        M = psh.reg_max(float(x), float(y), pr)
        z = float(y + x) / 2
        defects += [
            abs(M - psh.reg_max(float(y), float(x), pr)),
            max(x, y) - M,
            abs(psh.reg_max(z, z + 3 * pr.eta, pr) - (z + 3 * pr.eta)),
        ]
    worst = float(np.max(defects))
    diag = psh.reg_max(0.0, 0.0, pr)
    yield (
        1e-9 - worst if 0.0 < diag < 2.0 * pr.eta else -1.0,
        {"worst_defect": worst, "diagonal_excess": diag},
    )

    rng = np.random.default_rng(cfg.seed + 43)
    radii = rng.uniform(0.05, 1.0, min(cfg.samples, 2000))
    phi_samples = [(float(r), 1.0 / float(r)) for r in radii]
    psi_samples = [(float(r), 0.5 / float(r) + 0.2) for r in radii]
    chi = psh.build_chi(phi_samples, psi_samples)
    vals = chi(np.array([v for _, v in psi_samples]))
    margins = vals - np.array([v for _, v in phi_samples])
    yield (
        _strict(margins.min()) if chi(0.0) == 0.0 else -1.0,
        {"min_margin": float(margins.min()), "chi_at_zero": chi(0.0),
         "slopes": list(chi.slopes)},
    )

    cp = cfg.cusp_params()
    rng = np.random.default_rng(cfg.seed + 47)
    eigs = []
    for _ in range(100):
        v = rng.standard_normal(cfg.n - 1) + 1j * rng.standard_normal(cfg.n - 1)
        nv = float(np.linalg.norm(v))
        if nv > 0:
            v *= float(rng.uniform(0, 3.0)) / nv
        z0 = np.concatenate([[0.0 + 0.0j], v])
        rep = psh.complex_hessian(lambda z: psh.phi_cusp_ambient(z, cp), z0)
        eigs.append(rep.min_eigenvalue)
    min_eig = float(np.min(eigs))
    yield _strict(min_eig), {"min_eigenvalue": min_eig}

    eta = 0.5
    pp = psh.RegMaxParams(eta=eta)
    phi2 = lambda t: 10.0 - 3.0 * t
    psi2 = lambda t: 2.0 * t
    band = psh.GlueBand(
        inner=[0.1, 0.3], outer=[2.4, 2.7, 3.0], in_region=lambda t: t < 2.8
    )
    glued = psh.glue_exhaustion(phi2, psi2, band, pp)
    outer_dev = float(np.max([abs(glued(t) - psi2(t)) for t in band.outer]))
    inner_ok = all(glued(t) >= phi2(t) for t in band.inner)
    yield (
        0.0 - outer_dev if inner_ok else -1.0,
        {"outer_deviation": outer_dev, "inner_dominates": inner_ok},
    )


# The one table of checks: per suite, its check function and the checks
# that function yields results for, in report order.
_SUITES = {
    "profile": (_profile_checks, (
        Check("profile.positive_derivatives", ("CutoffProfile.positivity_margins",),
              "samples f, f', f'', f''' on the build_cutoff grid only"),
        Check("profile.endpoint_jets_exact", ("CutoffProfile.jet_at", "math.exp")),
        Check("profile.psi_residual", ("solve_psi", "PsiSolution.max_residual")),
        Check("profile.psi_identity_exp_region", ("solve_psi", "PsiSolution.identity_defect")),
    )),
    "curvature": (_curvature_checks, (
        Check("curvature.space_form_blocks", ("hs_blocks", "CurvatureOracle.sectional")),
        Check("curvature.formula_vs_oracle", ("bisectional", "CurvatureOracle.bisectional")),
        Check("curvature.nonpositivity_certificate", ("hbc_certificate",),
              "samples the one closed form bisectional at random points"),
        Check("curvature.ricci_bounds", ("ricci", "CurvatureOracle.ricci")),
    )),
    "bundle": (_bundle_checks, (
        Check("bundle.h_norm_invariance", ("h_norm", "lattice_act")),
        Check("bundle.curvature_negative_definite", ("bundle_curvature",),
              "reads the hard-coded -(2 pi / l) Id"),
        Check("bundle.disk_coordinates", ("lambda_const", "quotient_to_omega")),
    )),
    "cayley": (_cayley_checks, (
        Check("cayley.exact_unitarity", ("approximate_in_Ul", "in_unitary_group")),
        Check("cayley.involution_and_fill", ("constraint_fill", "in_cayley_image")),
        Check("cayley.fixed_vectors", ("unipotent_fixed_vector", "QuadMatrix.apply")),
        Check("cayley.root_of_unity_orders", ("root_of_unity_power", "order_from_trace")),
    )),
    "psh": (_psh_checks, (
        Check("psh.reg_max_properties", ("reg_max", "max")),
        Check("psh.chi_domination", ("build_chi",), "runs on synthetic level sets"),
        Check("psh.phi_cusp_hessian", ("complex_hessian",),
              "trusts one finite-difference Hessian"),
        Check("psh.glue_outer_band", ("glue_exhaustion",), "runs on synthetic linear candidates"),
    )),
}
SUITES = (*_SUITES, "all")


def run_suite(cfg: SuiteConfig) -> Report:
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    records: list[CheckRecord] = []
    timings: dict[str, float] = {}
    for name in names:
        check_fn, checks = _SUITES[name]
        start = time.perf_counter()
        results = list(check_fn(cfg))
        timings[name] = time.perf_counter() - start
        if len(results) != len(checks):
            # a program bug, not a usage error: main lets it propagate
            raise RuntimeError(
                f"the {name} suite gave {len(results)} results for {len(checks)} checks"
            )
        # the one pass rule: +0.0 or more passes; -0.0 and a nan fail
        records += [
            CheckRecord(c.name, bool(margin >= 0.0) and math.copysign(1.0, margin) > 0.0, margin, witness)
            for c, (margin, witness) in zip(checks, results)
        ]
    return Report(
        suite=cfg.suite,
        config=cfg.to_dict(),
        config_hash=_config_hash(cfg),
        checks=records,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


SUMMARY = ("min_hbc", "max_hbc", "min_ricci_eigenvalue", "sectional_min", "sectional_max")


def _curvature_summary(mp: cv.MetricPoint, seed: int) -> Iterator[tuple[float, ...]]:
    """Yield the SUMMARY row of mp: one for a single point, one per t of
    (T,) jets.  Every point sees the same 120 frame pairs, drawn from seed.
    The t go through in profile.blocks of width max(120, nnz), since a row
    of the closed forms holds one value per pair and a row of the oracle
    one per structural entry: per block, only that block's slice of mp's
    jets is stacked into (B, 1) jets, and the closed forms and the
    sectional curvature of one oracle build run once over them against the
    (120,) pairs, whose pair products the oracle forms once per block.  All
    of it is elementwise in t, so a block gives each t the bits of one
    batch over all t, and of CurvatureOracle.sectional at that t alone.
    The pairs' pair data, which depend on no t, are formed once: the
    bisectional curvature and its |Y|^2 |Xi|^2 both come from them."""
    pairs = 120
    F = cv.random_frame_vector(np.random.default_rng(seed), mp.n, (pairs, 2))
    Y, Xi = F[:, 0], F[:, 1]
    pair_data = cv._pair_data(Y, Xi)
    ts, *jet = map(np.atleast_1d, (mp.t, mp.f, mp.fp, mp.fpp, mp.fppp))
    nnz = cv._pattern(2 * mp.n).rows.size
    for rows in profile.blocks(ts.size, max(pairs, nnz)):
        block = np.stack([col[rows, None] for col in jet], axis=-1)
        grid = cv.MetricPoint.from_jet(ts[rows, None], block, mp.n)
        hbc = cv._bisectional(pair_data, grid) / cv._norm_product(pair_data, grid)
        coef_h, coef_z = cv.ricci_coefficients(grid)
        ric_lo = np.minimum(-coef_h / grid.f**2, -coef_z / grid.g**2)[:, 0]
        sec = cv.CurvatureOracle(grid).sectional(Y, Xi)
        columns = (hbc.min(axis=1), hbc.max(axis=1), ric_lo, sec.min(axis=1), sec.max(axis=1))
        yield from (tuple(map(float, row)) for row in zip(*columns))


def _profile_for(A: float) -> profile.CutoffProfile:
    """The profile `sweep A` uses at length A: the proportional window
    first, then the widest sensible one, which pushes feasibility down to
    A = 4.5."""
    windows = [(A / 6.0, 5.0 * A / 6.0)]
    if A > 1.0 and (0.5, A - 0.5) != windows[0]:
        windows.append((0.5, A - 0.5))
    for window in windows:
        try:
            return build_cutoff(A, window)
        except ProfileError as exc:
            err = exc
    raise ValueError(f"no admissible profile at A = {A}: {err}")


def run_sweep(axis: str, start: float, stop: float, steps: int, cfg: SuiteConfig, out: Path) -> None:
    """Write one CSV row per value of the axis: the axis column(s), then
    SUMMARY.  Every value is checked and the metric points are built before
    out is opened, so a usage error leaves no file; the rows are written as
    _curvature_summary yields them."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    for flag, value in (("--from", start), ("--to", stop)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value}")
    if stop < start:
        raise ValueError("empty range: --to is below --from")
    values = np.linspace(start, stop, steps)
    keys = zip(map(float, values))
    if axis == "t":
        outside = ~((0.0 < values) & (values <= cfg.A))
        if outside.any():
            raise ValueError(f"t = {values[outside][0]} outside (0, A]")
        mp = cv.MetricPoint.from_profile(build_cutoff(cfg.A, cfg.window), values, cfg.n)
        summary = _curvature_summary(mp, cfg.seed)
    elif axis == "A":
        if np.any(values <= 0):
            raise ValueError("A must be positive")
        jets = np.array([_profile_for(A).jet_at(A / 2.0) for A in values.tolist()])
        summary = _curvature_summary(cv.MetricPoint.from_jet(values / 2.0, jets, cfg.n), cfg.seed)
    elif axis == "l":
        # SuiteConfig's own checks reject l <= 0 and lambda(t0) = 0; lambda
        # grows with l and the values ascend, so the first l decides for all,
        # and lambda is computed as the rows are written
        replace(cfg, l=float(values[0]))
        keys = ((l, lambda_const(cfg.t0, l)) for l in map(float, values))
        mp = cv.MetricPoint.from_profile(build_cutoff(cfg.A, cfg.window), cfg.A / 2.0, cfg.n)
        # the summary does not depend on l
        summary = itertools.repeat(next(_curvature_summary(mp, cfg.seed)))
    elif axis == "n":
        ns = [int(round(v)) for v in values.tolist()]
        if min(ns) < 2:
            raise ValueError("n must be at least 2")
        p = build_cutoff(cfg.A, cfg.window)
        keys = zip(ns)
        points = [cv.MetricPoint.from_profile(p, cfg.A / 2.0, n) for n in ns]
        summary = itertools.chain.from_iterable(_curvature_summary(mp, cfg.seed) for mp in points)
    else:
        raise ValueError(f"unknown axis {axis!r}")

    header = ("l", "lambda") if axis == "l" else (axis,)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + SUMMARY)
        for key, row in zip(keys, summary):
            writer.writerow(key + row)


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspforge", description="verification suites for cusp geometry"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        for key, kind in _FLAG_TYPES.items():
            p.add_argument(f"--{key}", type=kind, default=None)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=None)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    add_common(pv)

    ps = sub.add_parser("sweep", help="tabulate summaries along an axis")
    ps.add_argument("axis", choices=AXES)
    ps.add_argument("--from", dest="sweep_from", type=float, required=True)
    ps.add_argument("--to", dest="sweep_to", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    add_common(ps)
    return parser


def _merge_config(args: argparse.Namespace, suite: str) -> SuiteConfig:
    values = {"suite": suite}
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        loaded.pop("suite", None)
        unknown = sorted(set(loaded) - {f.name for f in fields(SuiteConfig)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        values.update(loaded)
    for key in _FLAG_TYPES:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return SuiteConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = _merge_config(args, args.suite)
            report = run_suite(cfg)
            for check in report.checks:
                status = "pass" if check.passed else "FAIL"
                print(f"[{status}] {check.name} (margin {check.margin:.3e})")
            print(f"suite {report.suite}: {'pass' if report.passed else 'FAIL'}")
            if args.out is not None:
                Path(args.out).write_text(report.to_json())
                print(f"report written to {args.out}")
            return 0 if report.passed else 1
        cfg = _merge_config(args, "all")
        out = args.out if args.out is not None else Path(f"sweep_{args.axis}.csv")
        run_sweep(args.axis, args.sweep_from, args.sweep_to, args.steps, cfg, out)
        print(f"sweep written to {out}")
        return 0
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
