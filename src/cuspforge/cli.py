"""Batch verification harness.

`cuspforge verify <suite>` runs one of the check suites (profile,
curvature, bundle, cayley, psh, or all) and emits a JSON report;
`cuspforge sweep <axis>` tabulates curvature and eigenvalue summaries
along a parameter axis as CSV for external plotting.  Reports are
deterministic for a fixed seed: everything except the timings field is
byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, asdict
from fractions import Fraction
from pathlib import Path

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
from .profile import ProfileError, build_cutoff, solve_psi

SUITES = ("profile", "curvature", "bundle", "cayley", "psh", "all")
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
        for key in ("n", "d", "samples", "seed"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in ("A", "l", "t0", "eps"):
            value = getattr(self, key)
            if not _is_finite_number(value):
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
        try:
            lam = lambda_const(self.t0, self.l)
        except OverflowError:  # e^(-2 t0) overflows, so lambda(t0) is 0
            lam = 0.0
        if not lam > 0.0:  # lambda(t0) <= 1 for l > 0
            raise ValueError(f"t0 = {self.t0} and l = {self.l} give lambda(t0) = {lam}, not > 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["window"] = list(self.window)
        return d

    def cusp_params(self) -> CuspParams:
        return CuspParams(l=self.l, t0=self.t0, n=self.n)


@dataclass
class CheckRecord:
    name: str
    passed: bool
    margin: float
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "margin": self.margin,
            "witness": self.witness,
        }


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
            "checks": [c.to_dict() for c in self.checks],
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


# ---------------------------------------------------------------------------
# Individual suites.  Each returns a list of CheckRecord and must be
# deterministic for a fixed config.
# ---------------------------------------------------------------------------


def _suite_profile(cfg: SuiteConfig) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    p = build_cutoff(cfg.A, cfg.window)
    margins = p.positivity_margins()
    names = ("f", "fp", "fpp", "fppp")
    checks.append(
        CheckRecord(
            "profile.positive_derivatives",
            bool(np.all(margins > 0)),
            float(margins.min()),
            {k: float(v) for k, v in zip(names, margins)},
        )
    )
    j0 = p.jet_at(0.0)
    jA = p.jet_at(cfg.A)
    exact0 = tuple(j0) == (1.0, 0.0, 1.0, 0.0)
    exactA = jA[0] == jA[1] == jA[2] == jA[3]
    relA = abs(float(jA[0]) - math.exp(cfg.A)) / math.exp(cfg.A)
    checks.append(
        CheckRecord(
            "profile.endpoint_jets_exact",
            bool(exact0 and exactA) and relA < 1e-10,
            -relA,
            {"jet0": [float(v) for v in j0], "jetA": [float(v) for v in jA]},
        )
    )
    sol = solve_psi(p, t_min=0.05)
    res = sol.max_residual()
    checks.append(
        CheckRecord("profile.psi_residual", res <= 1e-8, 1e-8 - res, {"residual": res})
    )
    idd = sol.identity_defect(cfg.window[1])
    checks.append(
        CheckRecord(
            "profile.psi_identity_exp_region", idd <= 1e-10, 1e-10 - idd, {"defect": idd}
        )
    )
    return checks


def _suite_curvature(cfg: SuiteConfig) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    p = build_cutoff(cfg.A, cfg.window)

    mp_exp = cv.MetricPoint.exp_model(0.0, cfg.n)
    bl = cv.hs_blocks(mp_exp)
    dev = max(
        float(np.max(np.abs(bl.G - np.array([[-4.0, -2.0], [-2.0, -4.0]])))),
        float(np.max(np.abs(bl.F + np.ones((2, 2))))),
    )
    rng = np.random.default_rng(cfg.seed + 11)
    F = cv.random_frame_vector(rng, cfg.n, (min(cfg.samples, 1000), 2))
    X, Y = F[:, 0], F[:, 1]
    oracle = cv.oracle_for(mp_exp)
    hsc_dev = float(np.max(np.abs(oracle.holomorphic_sectional(X) + 4.0)))
    s = oracle.sectional(X, Y)
    sec_lo, sec_hi = float(s.min()), float(s.max())
    in_band = -4.0 - 1e-8 <= sec_lo and sec_hi <= -1.0 + 1e-8
    checks.append(
        CheckRecord(
            "curvature.space_form_blocks",
            dev <= 1e-12 and hsc_dev <= 1e-8 and in_band,
            -max(dev, hsc_dev),
            {"block_deviation": dev, "hsc_deviation": hsc_dev,
             "sectional": [sec_lo, sec_hi]},
        )
    )

    rng = np.random.default_rng(cfg.seed + 13)
    t_nodes = np.linspace(0.05, cfg.A, 40)
    F = cv.random_frame_vector(rng, cfg.n, (40, max(2, min(cfg.samples, 400) // 40), 2))
    errs = []
    for t, jet, pairs in zip(t_nodes, p.jet_at(t_nodes), F):
        mp = cv.MetricPoint.from_jet(t, jet, cfg.n)
        Y, Xi = pairs[:, 0], pairs[:, 1]
        ref = cv.oracle_for(mp).bisectional(Y, Xi)
        errs.append(np.abs(cv.bisectional(Y, Xi, mp) - ref) / (1.0 + np.abs(ref)))
    worst = float(np.max(errs))
    checks.append(
        CheckRecord(
            "curvature.formula_vs_oracle", worst <= 1e-6, 1e-6 - worst,
            {"max_relative_error": worst},
        )
    )

    cert = cv.hbc_certificate(p, cfg.samples, n=cfg.n, seed=cfg.seed)
    checks.append(
        CheckRecord(
            "curvature.nonpositivity_certificate",
            cert.passed,
            -cert.worst_interior_ratio,
            {
                "max_value": cert.max_value,
                "worst_interior_ratio": cert.worst_interior_ratio,
                "min_cs_slack": cert.min_cs_slack,
                "failures": cert.failures,
            },
        )
    )

    rng = np.random.default_rng(cfg.seed + 17)
    draws = min(cfg.samples, 300)
    te = rng.uniform(cfg.window[1], cfg.A, draws)
    tc = rng.uniform(0.0, cfg.window[0], draws)
    F = cv.random_frame_vector(rng, cfg.n, (draws, 2))
    Xie, Xic = F[:, 0], F[:, 1]
    mpe = cv.MetricPoint.from_jet(te, p.jet_at(te), cfg.n)
    mpc = cv.MetricPoint.from_jet(tc, p.jet_at(tc), cfg.n)
    nsq = Xie.norm_sq(mpe)
    einstein = float(
        np.max(np.abs(cv.ricci(Xie, mpe) + (2 * cfg.n + 2) * nsq) / np.maximum(1.0, nsq))
    )
    cosh_slack = float(np.max(cv.ricci(Xic, mpc) + 2.0 * Xic.norm_sq(mpc)))
    checks.append(
        CheckRecord(
            "curvature.ricci_bounds",
            einstein <= 1e-8 and cosh_slack <= 1e-10,
            -max(einstein - 1e-8, cosh_slack - 1e-10),
            {"einstein_defect": einstein, "cosh_region_slack": cosh_slack},
        )
    )
    return checks


def _suite_bundle(cfg: SuiteConfig) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
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
    checks.append(
        CheckRecord(
            "bundle.h_norm_invariance", worst <= 1e-12, 1e-12 - worst,
            {"max_relative_drift": worst},
        )
    )

    curv = bundle_curvature(cp)
    eigs = np.linalg.eigvalsh(0.5 * (curv + curv.T))
    checks.append(
        CheckRecord(
            "bundle.curvature_negative_definite",
            bool(np.all(eigs < 0.0)),
            float(-np.max(eigs)),
            {"eigenvalues": [float(e) for e in eigs]},
        )
    )

    lam = lambda_const(cfg.t0, cfg.l)
    # independent route: quotient radius of the orbit point at height t0
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
    checks.append(
        CheckRecord(
            "bundle.disk_coordinates",
            drift <= 1e-12 and abs(abs(a_disk) - t_probe) <= 1e-12 and domain_err is not None,
            1e-12 - drift,
            {"lambda": lam, "lambda_quotient_route": lam_q, "domain_error": domain_err},
        )
    )
    return checks


def _suite_cayley(cfg: SuiteConfig) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    rng = np.random.default_rng(cfg.seed + 31)
    runs = max(10, min(cfg.samples, 400) // 10)
    worst_err = 0.0
    all_exact = True
    for m in (2, 3):
        B = qc.HermitianDiagForm(tuple(Fraction(k + 1) for k in range(m)))
        for _ in range(runs // 2):
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
            worst_err = max(worst_err, float(np.max(np.abs(Mq.to_complex() - M))))
    checks.append(
        CheckRecord(
            "cayley.exact_unitarity",
            all_exact and worst_err <= cfg.eps,
            cfg.eps - worst_err,
            {"max_entry_error": worst_err, "eps": cfg.eps, "runs": runs},
        )
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
    checks.append(
        CheckRecord(
            "cayley.involution_and_fill",
            fill_ok and invol_ok,
            0.0 if (fill_ok and invol_ok) else -1.0,
            {"constraint_exact": fill_ok, "involution_exact": invol_ok},
        )
    )

    H = qc.polarized_form_matrix(cfg.n, cfg.d)
    vq = [qc.QuadElem(Fraction(1), Fraction(1, 2), cfg.d)] + [
        qc.qzero(cfg.d) for _ in range(cfg.n - 2)
    ]
    Mh = qc.heisenberg_matrix_exact(Fraction(2, 3), vq, cfg.d)
    fixed_ok = True
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
    ident_ok = True
    vfix = qc.unipotent_fixed_vector(qc.QuadMatrix.identity(cfg.n + 1, cfg.d), H)
    ident_ok = qc.form_value(H, vfix, vfix).a <= 0
    checks.append(
        CheckRecord(
            "cayley.fixed_vectors",
            fixed_ok and ident_ok,
            0.0 if (fixed_ok and ident_ok) else -1.0,
            {"heisenberg_case": fixed_ok, "identity_case": ident_ok},
        )
    )

    orders = {}
    ok = True
    cases = [("one", qc.qone(cfg.d), 1), ("minus_one", -qc.qone(cfg.d), 2)]
    if cfg.d == 3:
        cases.append(
            ("sixth_root", qc.QuadElem(Fraction(1, 2), Fraction(1, 2), 3), 6)
        )
    if cfg.d == 1:
        cases.append(("fourth_root", qc.qomega(1), 4))
    for name, alpha, want in cases:
        got = qc.root_of_unity_power(qc.QuadMatrix([[alpha]]), [qc.qone(cfg.d)])
        orders[name] = got
        ok &= got == want
    checks.append(
        CheckRecord(
            "cayley.root_of_unity_orders", ok, 0.0 if ok else -1.0, {"orders": orders}
        )
    )
    return checks


def _suite_psh(cfg: SuiteConfig) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
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
    diag_ok = 0.0 < diag < 2.0 * pr.eta
    checks.append(
        CheckRecord(
            "psh.reg_max_properties",
            worst <= 1e-9 and diag_ok,
            1e-9 - worst,
            {"worst_defect": worst, "diagonal_excess": diag},
        )
    )

    rng = np.random.default_rng(cfg.seed + 43)
    radii = rng.uniform(0.05, 1.0, min(cfg.samples, 2000))
    phi_samples = [(float(r), 1.0 / float(r)) for r in radii]
    psi_samples = [(float(r), 0.5 / float(r) + 0.2) for r in radii]
    chi = psh.build_chi(phi_samples, psi_samples)
    vals = chi(np.array([v for _, v in psi_samples]))
    margins = vals - np.array([v for _, v in phi_samples])
    chi_ok = bool(np.all(margins > 0)) and chi(0.0) == 0.0
    checks.append(
        CheckRecord(
            "psh.chi_domination",
            chi_ok,
            float(margins.min()),
            {"min_margin": float(margins.min()), "chi_at_zero": chi(0.0),
             "slopes": list(chi.slopes)},
        )
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
    checks.append(
        CheckRecord(
            "psh.phi_cusp_hessian", min_eig > 0.0, min_eig, {"min_eigenvalue": min_eig}
        )
    )

    eta = 0.5
    pp = psh.RegMaxParams(eta=eta)
    phi2 = lambda t: 10.0 - 3.0 * t
    psi2 = lambda t: 2.0 * t
    band = psh.GlueBand(
        inner=[0.1, 0.3], outer=[2.4, 2.7, 3.0], in_region=lambda t: t < 2.8
    )
    glued = psh.glue_exhaustion(phi2, psi2, band, pp)
    outer_dev = max(abs(glued(t) - psi2(t)) for t in band.outer)
    inner_ok = all(glued(t) >= phi2(t) for t in band.inner)
    checks.append(
        CheckRecord(
            "psh.glue_outer_band",
            outer_dev == 0.0 and inner_ok,
            -outer_dev,
            {"outer_deviation": outer_dev, "inner_dominates": inner_ok},
        )
    )
    return checks


_SUITE_RUNNERS = {
    "profile": _suite_profile,
    "curvature": _suite_curvature,
    "bundle": _suite_bundle,
    "cayley": _suite_cayley,
    "psh": _suite_psh,
}


def run_suite(cfg: SuiteConfig) -> Report:
    names = (
        ["profile", "curvature", "bundle", "cayley", "psh"]
        if cfg.suite == "all"
        else [cfg.suite]
    )
    checks: list[CheckRecord] = []
    timings: dict[str, float] = {}
    for name in names:
        start = time.perf_counter()
        checks.extend(_SUITE_RUNNERS[name](cfg))
        timings[name] = time.perf_counter() - start
    return Report(
        suite=cfg.suite,
        config=cfg.to_dict(),
        config_hash=_config_hash(cfg),
        checks=checks,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _curvature_summary(mp: cv.MetricPoint, seed: int, draws: int = 120) -> dict:
    F = cv.random_frame_vector(np.random.default_rng(seed), mp.n, (draws, 2))
    Y, Xi = F[:, 0], F[:, 1]
    hbc = cv.bisectional(Y, Xi, mp) / (Y.norm_sq(mp) * Xi.norm_sq(mp))
    sec = cv.oracle_for(mp).sectional(Y, Xi)
    coef_h, coef_z = cv.ricci_coefficients(mp)
    ric_lo = min(-coef_h / mp.f**2, -coef_z / mp.g**2)
    return {
        "min_hbc": float(hbc.min()),
        "max_hbc": float(hbc.max()),
        "min_ricci_eigenvalue": ric_lo,
        "sectional_min": float(sec.min()),
        "sectional_max": float(sec.max()),
    }


def run_sweep(axis: str, start: float, stop: float, steps: int, cfg: SuiteConfig, out: Path) -> None:
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if stop < start:
        raise ValueError("empty range: --to is below --from")
    values = [start] if steps == 1 else list(np.linspace(start, stop, steps))
    rows: list[dict] = []
    if axis == "t":
        p = build_cutoff(cfg.A, cfg.window)
        for t in values:
            if not (0.0 < t <= cfg.A):
                raise ValueError(f"t = {t} outside (0, A]")
            mp = cv.MetricPoint.from_profile(p, float(t), cfg.n)
            rows.append({"t": float(t), **_curvature_summary(mp, cfg.seed)})
    elif axis == "A":
        for A in values:
            if A <= 0:
                raise ValueError("A must be positive")
            A = float(A)
            # proportional window first; fall back to the widest sensible one,
            # which pushes feasibility down to A = 4.5
            candidates = [(A / 6.0, 5.0 * A / 6.0)]
            if A > 1.0 and (0.5, A - 0.5) != candidates[0]:
                candidates.append((0.5, A - 0.5))
            p = None
            for window in candidates:
                try:
                    p = build_cutoff(A, window)
                    break
                except ProfileError as exc:
                    err = exc
            if p is None:
                raise ValueError(f"no admissible profile at A = {A}: {err}")
            mp = cv.MetricPoint.from_profile(p, A / 2.0, cfg.n)
            rows.append({"A": A, **_curvature_summary(mp, cfg.seed)})
    elif axis == "l":
        p = build_cutoff(cfg.A, cfg.window)
        mp = cv.MetricPoint.from_profile(p, cfg.A / 2.0, cfg.n)
        base = _curvature_summary(mp, cfg.seed)
        for l in values:
            if l <= 0:
                raise ValueError("l must be positive")
            lam = lambda_const(cfg.t0, float(l))
            rows.append({"l": float(l), "lambda": lam, **base})
    elif axis == "n":
        p = build_cutoff(cfg.A, cfg.window)
        for nval in values:
            n = int(round(nval))
            if n < 2:
                raise ValueError("n must be at least 2")
            mp = cv.MetricPoint.from_profile(p, cfg.A / 2.0, n)
            rows.append({"n": n, **_curvature_summary(mp, cfg.seed)})
    else:
        raise ValueError(f"unknown axis {axis!r}")

    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspforge", description="verification suites for cusp geometry"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--A", type=float, default=None)
        p.add_argument("--l", type=float, default=None)
        p.add_argument("--t0", type=float, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
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
    for key in ("n", "d", "A", "l", "t0", "eps", "samples", "seed"):
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
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
