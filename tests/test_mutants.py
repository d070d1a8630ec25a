"""The mutant table: one-line mutants of the closed forms, each with the
check that must fail under it, or the item that is to kill it.

Each entry replaces one name where its caller reads it (cli imports
bundle_curvature by name, so that mutant patches cli's copy) and runs
run_suite on one suite at the default config.  The table is a ratchet: an
entry marked killed whose check passes fails its test, and so does an
entry marked "survives" under which any check fails; the change that
kills a survivor updates its entry.
"""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cuspforge import _smoothstep as sm
from cuspforge import cli, cusp_bundle, psh
from cuspforge import curvature as cv
from cuspforge import qfield_cayley as qc
from cuspforge.cli import SuiteConfig, run_suite
from cuspforge.cusp_bundle import BundlePoint
from cuspforge.heisenberg_siegel import hermitian_product


def _m1(hs_blocks):
    # G's off-diagonal -2 f''/f becomes -2 f'''/f'; the two agree where
    # f = exp and where f = cosh
    def mutant(mp):
        blocks = hs_blocks(mp)
        G = blocks.G.copy()
        G[0, 1] = G[1, 0] = -2.0 * mp.fppp / mp.fp
        return cv.CurvatureBlocks(G=G, F=blocks.F)

    return mutant


def _m2(phi_cusp_ambient):
    # |v|^2 becomes |v|^2 / 2, for v = z[1:] of the joint vector z = (a, v)
    def mutant(z, cp):
        v = np.asarray(z, dtype=complex).reshape(-1)[1:]
        return phi_cusp_ambient(z, cp) - 0.5 * float(np.vdot(v, v).real)

    return mutant


def _m3(bundle_curvature):
    # -2 pi / l becomes -pi / l
    return lambda cp: 0.5 * bundle_curvature(cp)


def _swapped_coef_z(ricci_coefficients):
    # (2n+1) f^2 f' f''' + f f'^2 f'' in place of (2n+1) f f'^2 f'' + f^2 f' f'''
    def mutant(mp):
        coef_h, _ = ricci_coefficients(mp)
        f, fp, fpp, fppp = mp.f, mp.fp, mp.fpp, mp.fppp
        return coef_h, (2 * mp.n + 1) * f * f * fp * fppp + f * fp * fp * fpp

    return mutant


def _flipped_imaginary_sum(pair_data):
    # the mixed term reads -y for y in <u_Y, u_Xi> = a alpha (x + i y)
    def mutant(Y, Xi):
        a_sq, alpha_sq, bc_sq, bg_sq, cross, dde = pair_data(Y, Xi)
        im = cv._hdot(Y.u, 1j * Xi.u)  # Re(conj(i w) v) = Im(conj(w) v)
        cross = cross - 4.0 * (Y.gamma * Xi.beta - Y.beta * Xi.gamma) * im
        return a_sq, alpha_sq, bc_sq, bg_sq, cross, dde

    return mutant


def _tripled_w_sq(bisectional):
    # the horizontal term h f^4 a^2 alpha^2 (1 + d^2 + e^2) is
    # 2 g^2 a^2 alpha^2 (2 (d^2 + e^2) + |W|^2) for Xtilde = d X + e JX + W;
    # its |W|^2 share read with 3 g^2.  W = 0 at n = 2, where the two agree
    def mutant(pair_data, mp):
        a_sq, alpha_sq, _, _, _, dde = pair_data
        return bisectional(pair_data, mp) - mp.g * mp.g * (a_sq * alpha_sq - dde)

    return mutant


def _dropped_inner_product(bisectional):
    # the horizontal term without its |<u_Y, u_Xi>|^2 part: h f^4 a^2 alpha^2
    return lambda pair_data, mp: bisectional(pair_data[:5] + (0.0,), mp)


def _z_over_f(coefficients):
    # z = 3 f''/f + f'''/f' read with f'''/f; the two agree where f' = f,
    # on all of [w1, A]
    def mutant(mp):
        h, m, _ = coefficients(mp)
        return h, m, 3.0 * m + mp.fppp / mp.f

    return mutant


def _h_times_m(ricci_coefficients):
    # the trace's 2 m read as h m; the two agree where f = f' = f''
    def mutant(mp):
        h, m, z = cv._curvature_coefficients(mp)
        return mp.f * mp.f * (mp.n * h + h * m), mp.g * mp.g * (z + (mp.n - 1) * h * m)

    return mutant


def _halved_rp_sq(step_jet):
    # S''' = (q2 + q1^2) S' with q2's -2 r'^2 / r^3 read as -r'^2 / r^3, for
    # r = x (1 - x); the two agree at x = 1/2.  Flipping the sign of q1^2
    # instead makes f''' negative in the window, which build_cutoff rejects
    def mutant(x):
        jet = step_jet(x)
        x = np.asarray(x, dtype=float)
        r, rp = x * (1.0 - x), 1.0 - 2.0 * x
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            jet[..., 2] += np.where(jet[..., 0] > 0.0, rp * rp / r**3 * jet[..., 0], 0.0)
        return jet

    return mutant


def _first_kernel_vector(unipotent_fixed_vector):
    # skips the search for a nonpositive H-square: the first vector of
    # ker(M - I), which is e_0 whenever M fixes that axis
    return lambda M, H: qc._rref_kernel(M - qc.QuadMatrix.identity(M.m, M.d))[0]


def _unscaled_gap(reg_max):
    # delta = lo - hi with the 1 / eta dropped: M = hi + eta (M_1 - hi) for
    # M_1 the maximum at eta = 1; the two agree at eta = 1
    def mutant(x, y, p):
        hi = np.maximum(x, y)
        return hi + p.eta * (reg_max(x, y, psh.RegMaxParams(eta=1.0)) - hi)

    return mutant


def _one_draw_kernel(reg_max):
    # E(delta + U)^+ over the kernel of one draw U, where the difference
    # U - V of two independent draws belongs: still symmetric, above max,
    # equal to max past the band, and above the diagonal by less than 2 eta
    def mutant(x, y, p):
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        hinges = np.maximum(((lo - hi) / p.eta)[..., None] + np.arange(-16, 17) / 17.0, 0.0)
        return hi + p.eta * (hinges * psh._KERNEL_W).sum(axis=-1)

    return mutant


def _conjugated_levi_form(raw_hessian):
    # Im H_jk read with the opposite sign off the diagonal: the transpose
    # of the Levi form, whose eigenvalues are the same
    return lambda fn, z0, h: raw_hessian(fn, z0, h).conj()


def _doubled_weight(h_norm):
    # the weight exp(2 pi |v|^2 / l) in place of exp(pi |v|^2 / l), row by
    # row: |v|^2 along the last axis of one point or of a batch
    return lambda p, cp: h_norm(p, cp) * np.exp(math.pi * np.vecdot(p.v, p.v).real / cp.l)


def _flipped_pairing(lattice_act):
    # + <v, w> in place of - <v, w> in the exponent of the action, row by row
    def mutant(g, p, cp):
        moved = lattice_act(g, p, cp)
        shift = np.exp((4.0 * math.pi / cp.l) * hermitian_product(p.v, g.v))
        return BundlePoint(shift * moved.a, moved.v)

    return mutant


def _dropped_central_phase(lattice_act):
    # the action without the -i s term in its exponent, row by row; the
    # bundle checks read only |a|, which the phase leaves as it is
    def mutant(g, p, cp):
        moved = lattice_act(g, p, cp)
        return BundlePoint(np.exp((2.0j * math.pi / cp.l) * g.s) * moved.a, moved.v)

    return mutant


def _doubled_lambda_period(lambda_const):
    # lambda(t0) at the period 2 l: a wrong lambda inside CuspParams, which
    # h_norm divides by; the invariance check is blind to a constant factor
    return lambda t0, l: lambda_const(t0, 2.0 * l)


def _doubled_disk_angle(cusp_to_disk):
    # (t e^(2 i s), v) in place of (t e^(i s), v); the disk check reads only |a|
    def mutant(t, g, A):
        a, v = cusp_to_disk(t, g, A)
        return a * a / t, v

    return mutant


def _order_four_as_two(order_from_trace):
    # the trace route reads the order of a fourth root of unity as 2
    def mutant(alpha):
        order = order_from_trace(alpha)
        return 2 if order == 4 else order

    return mutant


class Mutant(NamedTuple):
    name: str
    suite: str
    owner: object
    attr: str
    mutate: Callable
    verdict: str  # the check that must fail, or "survives: item N"


MUTANTS = [
    Mutant("M1", "curvature", cv, "hs_blocks", _m1, "curvature.block_operator"),
    Mutant("M2", "psh", psh, "phi_cusp_ambient", _m2, "survives: item 5"),
    Mutant("M3", "bundle", cli, "bundle_curvature", _m3, "survives: items 5 and 20"),
    Mutant("swapped_coef_z", "curvature", cv, "ricci_coefficients", _swapped_coef_z,
           "curvature.ricci_bounds"),
    Mutant("fixed_vector_shortcut", "cayley", qc, "unipotent_fixed_vector",
           _first_kernel_vector, "cayley.fixed_vectors"),
    Mutant("flipped_imaginary_sum", "curvature", cv, "_pair_data", _flipped_imaginary_sum,
           "curvature.formula_vs_oracle"),
    Mutant("tripled_w_sq", "curvature", cv, "_bisectional", _tripled_w_sq,
           "curvature.formula_vs_oracle"),
    Mutant("dropped_inner_product", "curvature", cv, "_bisectional", _dropped_inner_product,
           "curvature.formula_vs_oracle"),
    Mutant("z_over_f", "curvature", cv, "_curvature_coefficients", _z_over_f,
           "curvature.block_operator"),
    Mutant("h_times_m", "curvature", cv, "ricci_coefficients", _h_times_m,
           "curvature.ricci_bounds"),
    Mutant("halved_rp_sq", "profile", sm, "step_jet", _halved_rp_sq, "survives: item 1"),
    Mutant("unscaled_gap", "psh", psh, "reg_max", _unscaled_gap, "psh.reg_max_properties"),
    Mutant("one_draw_kernel", "psh", psh, "reg_max", _one_draw_kernel, "survives: item 16"),
    Mutant("conjugated_levi_form", "psh", psh, "_raw_hessian", _conjugated_levi_form,
           "survives: item 5"),
    Mutant("doubled_weight", "bundle", cli, "h_norm", _doubled_weight, "bundle.h_norm_invariance"),
    Mutant("flipped_pairing", "bundle", cli, "lattice_act", _flipped_pairing,
           "bundle.h_norm_invariance"),
    Mutant("dropped_central_phase", "bundle", cli, "lattice_act", _dropped_central_phase,
           "survives: item 16"),
    Mutant("doubled_lambda_period", "bundle", cusp_bundle, "lambda_const", _doubled_lambda_period,
           "bundle.disk_coordinates"),
    Mutant("doubled_disk_angle", "bundle", cli, "cusp_to_disk", _doubled_disk_angle,
           "survives: item 22"),
    Mutant("order_four_as_two", "cayley", qc, "order_from_trace", _order_four_as_two,
           "cayley.root_of_unity_orders"),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_verdict(monkeypatch, mutant):
    monkeypatch.setattr(mutant.owner, mutant.attr, mutant.mutate(getattr(mutant.owner, mutant.attr)))
    report = run_suite(SuiteConfig(suite=mutant.suite))
    report.to_json()  # failing witnesses serialize too
    failed = [c.name for c in report.checks if not c.passed]
    if mutant.verdict.startswith("survives"):
        assert not failed, f"{mutant.name} is killed by {failed}: update its entry"
    else:
        assert mutant.verdict in failed, f"{mutant.name} survives {mutant.verdict}"
