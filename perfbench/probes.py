"""Microtimings of the layer list at stated sizes.

Each probe is the minimum over `REPEAT` timeit repeats, divided by the
calls per repeat, in microseconds.  Inputs are fixed, not seeded: a probe
measures one layer at one size, so that its number moves only with that
layer.
"""

from __future__ import annotations

import math
import timeit
from fractions import Fraction

import numpy as np

from cuspforge import _smoothstep, psh
from cuspforge import curvature as cv
from cuspforge import qfield_cayley as qc
from cuspforge.cusp_bundle import CuspParams
from cuspforge.profile import build_cutoff
from workloads import float_skew

REPEAT = 3
BATCH_POINTS = 10_000


def _best_us(fn, number: int) -> float:
    return 1e6 * min(timeit.repeat(fn, number=number, repeat=REPEAT)) / number


def run() -> dict[str, float]:
    p = build_cutoff(6.0, (1.0, 5.0))
    ts = np.linspace(0.05, 6.0, BATCH_POINTS)
    xs = np.linspace(0.0, 1.0, BATCH_POINTS)
    mp3 = cv.MetricPoint.from_profile(p, 3.0, 3)
    mp8 = cv.MetricPoint.from_profile(p, 3.0, 8)
    rng = np.random.default_rng(0)
    Y, Xi = cv.random_frame_vector(rng, 3), cv.random_frame_vector(rng, 3)
    JY, JXi = Y.J(), Xi.J()
    oracle = cv.CurvatureOracle(mp3)

    B = qc.HermitianDiagForm((Fraction(1), Fraction(2), Fraction(3)))
    S = qc.constraint_fill(
        {(0, 1): Fraction(1, 3), (0, 2): Fraction(-1, 5), (1, 2): Fraction(2, 7)},
        {(0, 0): Fraction(1, 2), (1, 1): Fraction(-2, 9), (2, 2): Fraction(1, 4),
         (0, 1): Fraction(3, 8), (0, 2): Fraction(1, 6), (1, 2): Fraction(-1, 2)},
        B,
        1,
    )
    # a generic input: its rationalization needs large denominators
    M = qc.cayley(float_skew(np.random.default_rng(1), B.diag, 1))

    pr = psh.RegMaxParams(eta=0.5)
    cp = CuspParams(l=2.0 * math.pi, t0=0.0, n=3)
    z0 = np.array([0.2 + 0.1j, 0.5, -0.3j])

    return {
        "probe.jet_at_scalar_us": _best_us(lambda: p.jet_at(2.5), 500),
        "probe.jet_at_batch_us_per_point": _best_us(lambda: p.jet_at(ts), 2) / BATCH_POINTS,
        "probe.step_us_per_point": _best_us(lambda: _smoothstep.step(xs), 2) / BATCH_POINTS,
        "probe.oracle_build_n3_us": _best_us(lambda: cv.CurvatureOracle(mp3), 200),
        "probe.oracle_build_n8_us": _best_us(lambda: cv.CurvatureOracle(mp8), 10),
        "probe.oracle_eval_n3_us": _best_us(lambda: oracle.evaluate(Y, JY, Xi, JXi), 1000),
        "probe.bisectional_n3_us": _best_us(lambda: cv.bisectional(Y, Xi, mp3), 5000),
        "probe.cayley_m3_us": _best_us(lambda: qc.cayley(S), 20),
        "probe.approximate_in_Ul_m3_us": _best_us(lambda: qc.approximate_in_Ul(M, B, 1, 1e-9), 5),
        "probe.reg_max_us": _best_us(lambda: psh.reg_max(0.3, 0.5, pr), 2000),
        "probe.complex_hessian_n3_us": _best_us(
            lambda: psh.complex_hessian(lambda z: psh.phi_cusp_ambient(z, cp), z0), 20
        ),
    }
