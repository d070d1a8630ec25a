"""Tests for the command-line verification driver."""

import builtins
import csv
import dataclasses
import importlib
import json
import math
import pkgutil
import re
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspforge
from cuspforge import cli
from cuspforge.cli import (
    AXES,
    SUITES,
    Report,
    SuiteConfig,
    _FLAG_TYPES,
    _build_parser,
    _config_hash,
    _merge_config,
    main,
    run_suite,
    run_sweep,
)
from cuspforge import curvature as cv
from cuspforge import profile
from cuspforge import psh
from cuspforge import qfield_cayley as qc
from cuspforge.cusp_bundle import CuspParams
from cuspforge.profile import GRID_POINTS, CutoffProfile, build_cutoff


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.suite == "all"
        assert cfg.n == 3 and cfg.d == 1
        assert cfg.l == pytest.approx(2.0 * math.pi)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            SuiteConfig(suite="nope")

    def test_eps_range(self):
        SuiteConfig(eps=1e-12)
        SuiteConfig(eps=1e-2)
        for bad in (1e-13, 1e-1, 0.0):
            with pytest.raises(ValueError, match="eps"):
                SuiteConfig(eps=bad)

    def test_window_inside_domain(self):
        with pytest.raises(ValueError, match="window"):
            SuiteConfig(window=(0.0, 5.0))
        with pytest.raises(ValueError, match="window"):
            SuiteConfig(window=(1.0, 6.5))

    def test_other_validations(self):
        with pytest.raises(ValueError):
            SuiteConfig(n=1)
        with pytest.raises(ValueError):
            SuiteConfig(samples=0)
        with pytest.raises(ValueError):
            SuiteConfig(l=-1.0)

    def test_cusp_is_one_cached_params(self):
        from cuspforge.heisenberg_siegel import lambda_const

        cfg = SuiteConfig(l=3.0, t0=0.5, n=4)
        assert cfg.cusp is cfg.cusp
        assert cfg.cusp == CuspParams(l=3.0, t0=0.5, n=4)
        assert cfg.cusp.lam == lambda_const(0.5, 3.0)
        # a property, not a field: the dict and the hash do not see it
        assert "cusp" not in {f.name for f in dataclasses.fields(SuiteConfig)}
        assert "cusp" not in cfg.to_dict()

    def test_psi_and_nodes_are_cached_properties(self):
        cfg = SuiteConfig(n=2)
        assert cfg.psi is cfg.psi and cfg.nodes is cfg.nodes
        mp, oracle = cfg.nodes
        assert mp.f.shape == (40, 1) and oracle.mp is mp
        field_names = {f.name for f in dataclasses.fields(SuiteConfig)}
        assert not {"psi", "nodes"} & (field_names | set(cfg.to_dict()))


class TestConfigHash:
    def test_stable(self):
        assert _config_hash(SuiteConfig()) == _config_hash(SuiteConfig())

    def test_sensitive_to_values(self):
        assert _config_hash(SuiteConfig(seed=1)) != _config_hash(SuiteConfig(seed=2))

    def test_length(self):
        assert len(_config_hash(SuiteConfig())) == 16


class TestMergeConfig:
    def parse(self, argv):
        return _build_parser().parse_args(argv)

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 11, "samples": 77, "suite": "psh"}))
        args = self.parse(
            ["verify", "bundle", "--config", str(cfg_file), "--seed", "42"]
        )
        cfg = _merge_config(args, args.suite)
        # positional suite wins over the file; file fills samples; flag wins seed
        assert cfg.suite == "bundle"
        assert cfg.samples == 77
        assert cfg.seed == 42

    def test_defaults_without_file(self):
        args = self.parse(["verify", "psh"])
        cfg = _merge_config(args, args.suite)
        assert cfg == SuiteConfig(suite="psh")

    def test_window_list_coerced(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"window": [1.5, 4.5]}))
        args = self.parse(["verify", "bundle", "--config", str(cfg_file)])
        assert _merge_config(args, args.suite).window == (1.5, 4.5)

    def test_non_object_config_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("[1, 2]")
        args = self.parse(["verify", "bundle", "--config", str(cfg_file)])
        with pytest.raises(ValueError, match="flat JSON object"):
            _merge_config(args, args.suite)


class TestConfigUsageErrors:
    # a dict is written as JSON, a string as it stands
    CASES = [
        ({"bogus": 1}, []),
        ({"window": 5}, []),
        ({"samples": "10"}, []),
        ({"n": 3.0}, []),
        ({"d": True}, []),
        ({"seed": "0"}, []),
        ({"samples": False}, []),
        ({"window": [1.0]}, []),
        ({"window": [1.0, "5"]}, []),
        ({"window": [1.0, float("nan")]}, []),
        ({"A": float("inf")}, []),
        ({"t0": float("nan")}, []),
        ({"eps": "1e-6"}, []),
        (None, ["--l", "inf"]),
        (None, ["--A", "nan"]),
        (None, ["--d", "4"]),
        (None, ["--d", "0"]),
        (None, ["--seed", "-1"]),
        (None, ["--t0", "-5"]),
        (None, ["--t0", "-400"]),
        (None, ["--l", "0.05"]),
        (None, ["--l", "1e-3"]),
        ("{not json", []),
        (None, ["--l", "0"]),
        (None, ["--l", "-1"]),
        (None, ["--n", "1"]),
    ]

    @pytest.mark.parametrize("config,flags", CASES)
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, config, flags):
        argv = ["verify", "bundle", *flags]
        if config is not None:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(config if isinstance(config, str) else json.dumps(config))
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err
        if flags:
            assert re.search(rf"\b{flags[0][2:]}\b", lines[0]), lines[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "profile", "--A", "700"],
            ["verify", "curvature", "--A", "90"],
            ["verify", "psh", "--t0", "-5"],
            ["sweep", "A", "--from", "800", "--to", "800", "--steps", "1"],
            ["sweep", "A", "--from", "180", "--to", "180", "--steps", "1"],
            ["sweep", "t", "--from", "0.5", "--to", "1", "--steps", "2", "--A", "1e6"],
            # g^2 = (f f')^2 below the least normal float, where rows read NaN
            ["sweep", "t", "--from", "1e-300", "--to", "1", "--steps", "2"],
        ],
    )
    def test_out_of_range_runs_exit_two(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,key,step",
        [
            (["verify", "bundle", "--l", "0.05"], "l = 0.05", "exp(pi |v|^2 / l)"),
            (["verify", "profile", "--A", "700"], "A = 700", "exp(2 psi)"),
            (["verify", "curvature", "--A", "90"], "t = 90", "(f f')^4"),
            # |v|^2 reaches about 2,000 at n = 1024, past 709.8 l / pi at l = 2 pi
            (["verify", "bundle", "--n", "1024"], "l = 6.28319", "exp(pi |v|^2 / l)"),
            # h_norm stays finite at l = 0.05 and |v| < 3, its square does not
            (["verify", "psh", "--l", "0.05"], "l = 0.05", "h_norm^2"),
        ],
    )
    def test_overflow_names_key_and_step(self, tmp_path, capsys, argv, key, step):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert key in lines[0] and step in lines[0]

    def test_valid_configs_keep_dict_and_hash(self):
        assert _config_hash(SuiteConfig()) == "9963e3fa46b225f6"
        cfg = SuiteConfig(suite="bundle", A=8, window=[2, 6.5], d=7, samples=50, seed=3)
        assert cfg.window == (2, 6.5)
        assert cfg.to_dict() == {
            "suite": "bundle", "n": 3, "d": 7, "A": 8, "window": [2, 6.5],
            "l": 2.0 * math.pi, "t0": 0.0, "eps": 1e-6, "samples": 50, "seed": 3,
        }
        assert _config_hash(cfg) == "09f59b8101d2cf09"


CONFIG_KEYS = st.sampled_from([*_FLAG_TYPES, "window"])
CONFIG_SCALARS = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
CONFIG_VALUES = st.one_of(CONFIG_SCALARS, st.lists(CONFIG_SCALARS, max_size=3))


def _rejection(key, value):
    """The ValueError SuiteConfig raises for {key: value}, or None when it
    builds; suites never run here, since nothing bounds n or samples yet."""
    try:
        SuiteConfig(**{key: value})
    except ValueError as exc:
        return exc
    return None


class TestConfigSchema:
    @settings(max_examples=300, deadline=None)
    @given(CONFIG_KEYS, CONFIG_VALUES)
    def test_bad_value_names_its_key(self, key, value):
        exc = _rejection(key, value)
        assert exc is None or re.search(rf"\b{key}\b", str(exc)), (key, value, exc)

    @settings(max_examples=40, deadline=None)
    @given(CONFIG_KEYS, CONFIG_VALUES)
    def test_bad_config_file_value_exits_two(self, key, value):
        if _rejection(key, value) is None:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps({key: value}))
            assert main(["verify", "bundle", "--config", str(path)]) == 2


# Each patch breaks one condition of one check while the check's other
# conditions hold, and must raise no RuntimeWarning.  The first five would
# fail with a nonnegative margin where a pass flag is computed apart from
# the margin; the last two would pass where the builtin max reduces the
# errors, as it drops a nan that is not in first place.


def nan_f_block(monkeypatch):
    hs_blocks = cv.hs_blocks
    monkeypatch.setattr(
        cv, "hs_blocks", lambda mp: dataclasses.replace(hs_blocks(mp), F=np.full((2, 2), math.nan))
    )


def disk_map_without_domain_error(monkeypatch):
    cusp_to_disk = cli.cusp_to_disk
    monkeypatch.setattr(cli, "cusp_to_disk", lambda t, g, A: cusp_to_disk(min(t, A / 2.0), g, A))


def no_unitary_approximant(monkeypatch):
    # only the check's own route sees it: approximate_in_Ul keeps the real one
    fake_qc = types.SimpleNamespace(**{**vars(qc), "in_unitary_group": lambda M, H: False})
    monkeypatch.setattr(cli, "qc", fake_qc)


def reg_max_far_above_the_diagonal(monkeypatch):
    reg_max = psh.reg_max
    monkeypatch.setattr(
        psh, "reg_max", lambda x, y, p: np.where((x == 0.0) & (y == 0.0), 5.0, reg_max(x, y, p))[()]
    )


def nan_glued_at_an_outer_point(monkeypatch):
    glue_exhaustion = psh.glue_exhaustion

    def glue(*args):
        glued = glue_exhaustion(*args)
        return lambda t: math.nan if t == 2.7 else glued(t)

    monkeypatch.setattr(psh, "glue_exhaustion", glue)


def zero_positivity_margin(monkeypatch):
    monkeypatch.setattr(CutoffProfile, "positivity_margins", lambda p: np.array([0.0, 1.0, 1.0, 1.0]))


def nan_ricci_below_the_exp_region(monkeypatch):
    ricci = cv.ricci
    window = SuiteConfig().window
    monkeypatch.setattr(cv, "ricci", lambda Xi, mp: np.where(mp.t < window[1], math.nan, ricci(Xi, mp)))


FAILING_PATHS = [
    ("bundle.disk_coordinates", disk_map_without_domain_error),
    ("cayley.exact_unitarity", no_unitary_approximant),
    ("psh.reg_max_properties", reg_max_far_above_the_diagonal),
    ("profile.positive_derivatives", zero_positivity_margin),
    ("curvature.ricci_bounds", nan_ricci_below_the_exp_region),
    ("curvature.space_form_blocks", nan_f_block),
    ("psh.glue_outer_band", nan_glued_at_an_outer_point),
]


class TestRunSuite:
    def test_bundle_suite_passes(self):
        report = run_suite(SuiteConfig(suite="bundle", samples=100))
        assert report.passed
        assert report.suite == "bundle"
        names = [c.name for c in report.checks]
        assert "bundle.h_norm_invariance" in names
        assert report.timings

    def test_bundle_pairs_act_in_one_batch(self, monkeypatch):
        # the 1,000 invariance pairs fill one block at the default config:
        # one action and two norms, where one call per pair made 1,000 and 2,000
        calls = {"lattice_act": 0, "h_norm": 0}
        for name in calls:
            def counting(*args, name=name, fn=getattr(cli, name)):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(cli, name, counting)
        assert run_suite(SuiteConfig(suite="bundle")).passed
        assert calls == {"lattice_act": 1, "h_norm": 2}

    def test_verify_all_acts_on_no_lone_point(self, monkeypatch):
        # phi_cusp_ambient's 100 Hessians x 74 Levi-line points are the one
        # source of one-point norms, and the bundle check acts only on arrays;
        # an array form of phi_cusp_ambient takes the 7,400 to 0
        lone = {"lattice_act": 0, "h_norm": 0}
        for module, name in ((cli, "lattice_act"), (cli, "h_norm"), (psh, "h_norm")):
            def counting(*args, name=name, fn=getattr(module, name)):
                lone[name] += all(x.v.ndim == 1 for x in args[:-1])
                return fn(*args)

            monkeypatch.setattr(module, name, counting)
        assert run_suite(SuiteConfig(suite="all")).passed
        assert lone == {"lattice_act": 0, "h_norm": 7400}

    def test_bundle_report_does_not_depend_on_the_block_size(self, monkeypatch):
        def report():
            data = json.loads(run_suite(SuiteConfig(suite="bundle")).to_json())
            data.pop("timings")
            return data

        whole = report()
        rows = []
        act = cli.lattice_act
        monkeypatch.setattr(cli, "lattice_act", lambda g, p, cp: rows.append(p.a.size) or act(g, p, cp))
        # 8 float64 normals a pair at n = 3: 250 pairs a block
        monkeypatch.setattr(profile, "BLOCK_ELEMENTS", 2000)
        assert report() == whole
        assert rows == [250] * 4

    def test_nan_norm_fails_the_bundle_check(self, monkeypatch):
        monkeypatch.setattr(cli, "h_norm", lambda p, cp: math.nan)
        report = run_suite(SuiteConfig(suite="bundle", samples=10))
        check = report.checks[0]
        assert check.name == "bundle.h_norm_invariance"
        assert not check.passed and math.isnan(check.margin)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("route", ["root_of_unity_power", "order_from_trace"])
    def test_root_of_unity_orders_fail_on_a_broken_route(self, monkeypatch, d, route):
        # d = 1 adds the fourth root i, d = 3 the sixth root (1 + sqrt(-3))/2
        def orders_check():
            report = run_suite(SuiteConfig(suite="cayley", d=d, samples=10))
            return next(c for c in report.checks if c.name == "cayley.root_of_unity_orders")

        check = orders_check()
        assert check.passed and check.witness["orders"] == check.witness["trace_orders"]
        broken = getattr(qc, route)
        monkeypatch.setattr(qc, route, lambda *args: broken(*args) + 1)
        assert not orders_check().passed

    def test_psh_suite_passes(self):
        report = run_suite(SuiteConfig(suite="psh", samples=100))
        assert report.passed

    @pytest.mark.parametrize("seed", [0, 3])
    def test_a_check_passes_exactly_when_its_margin_is_not_negative(self, seed):
        # the margin is tolerance - error, so -0.0 counts as negative: it is
        # what -error reads for an error of 0
        for check in run_suite(SuiteConfig(seed=seed)).checks:
            nonnegative = check.margin >= 0.0 and math.copysign(1.0, check.margin) > 0.0
            assert check.passed == nonnegative, (check.name, check.margin)

    @pytest.mark.parametrize("name,patch", FAILING_PATHS, ids=[name for name, _ in FAILING_PATHS])
    def test_a_failing_check_reads_a_negative_margin(self, monkeypatch, name, patch):
        patch(monkeypatch)
        report = run_suite(SuiteConfig(suite=name.partition(".")[0], samples=50))
        check = next(c for c in report.checks if c.name == name)
        assert not check.passed
        assert math.isnan(check.margin) or math.copysign(1.0, check.margin) < 0.0, check.margin

    @pytest.mark.parametrize("case", ["passing", "failing", "at_threshold", "nan"])
    def test_certificate_verdict_is_the_one_pass_rule(self, monkeypatch, case):
        # rep.passed counts failed samples, and run_suite reads the margin
        cfg = SuiteConfig(suite="curvature", samples=200)

        def certificate():
            return cv.hbc_certificate(build_cutoff(cfg.A, cfg.window), cfg.samples, cfg.n, cfg.seed)

        if case == "failing":
            monkeypatch.setattr(cv, "STRICT_RATIO", 10.0)
        elif case == "at_threshold":
            # the worst ratio meets the strict bound with equality
            monkeypatch.setattr(cv, "STRICT_RATIO", -certificate().worst_interior_ratio)
        elif case == "nan":
            exact = cv._bisectional
            monkeypatch.setattr(cv, "_bisectional", lambda pd, mp: exact(pd, mp) * np.nan)
        rep = certificate()
        name = "curvature.nonpositivity_certificate"
        check = next(c for c in run_suite(cfg).checks if c.name == name)
        assert check.passed == rep.passed == (case == "passing")
        if case == "nan":
            assert math.isnan(check.margin) and math.isnan(rep.margin)
        else:
            assert check.margin == rep.margin
        if case == "at_threshold":
            assert check.margin == 0.0 and math.copysign(1.0, check.margin) < 0.0

    def test_broken_ricci_coefficients_fail_the_ricci_check(self, monkeypatch):
        # 4 f f' in place of 4 f'^2 keeps the Einstein identity at f = exp and
        # makes Ricci more negative in the cosh region, so only the oracle's
        # Ricci trace catches it
        def broken(mp):
            coef_h, coef_z = ricci_coefficients(mp)
            return coef_h + 4.0 * mp.fp * (mp.f - mp.fp), coef_z

        def ricci_check():
            report = run_suite(SuiteConfig(suite="curvature", samples=200))
            return next(c for c in report.checks if c.name == "curvature.ricci_bounds")

        ricci_coefficients = cv.ricci_coefficients
        assert ricci_check().passed
        monkeypatch.setattr(cv, "ricci_coefficients", broken)
        check = ricci_check()
        assert check.witness["einstein_defect"] <= 1e-8
        assert check.witness["cosh_region_slack"] <= 1e-10
        assert check.witness["oracle_deviation"] > 1e-8
        assert not check.passed and check.margin < 0.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_swapped_coef_z_terms_fail_the_ricci_check(self, monkeypatch, seed, n):
        # (2n+1) f^2 f' f''' + f f'^2 f'' in place of (2n+1) f f'^2 f'' +
        # f^2 f' f''' agrees with the right coefficient where f = exp and
        # where f = cosh, so only the draws in the glued window catch it
        def swapped(mp):
            coef_h, _ = ricci_coefficients(mp)
            f, fp, fpp, fppp = mp.f, mp.fp, mp.fpp, mp.fppp
            return coef_h, (2 * mp.n + 1) * f * f * fp * fppp + f * fp * fp * fpp

        def ricci_check():
            report = run_suite(SuiteConfig(suite="curvature", samples=200, seed=seed, n=n))
            return next(c for c in report.checks if c.name == "curvature.ricci_bounds")

        ricci_coefficients = cv.ricci_coefficients
        assert ricci_check().passed
        monkeypatch.setattr(cv, "ricci_coefficients", swapped)
        check = ricci_check()
        assert check.witness["einstein_defect"] <= 1e-8
        assert check.witness["cosh_region_slack"] <= 1e-10
        assert check.witness["oracle_deviation"] > 1e-8
        assert not check.passed and check.margin < 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_block_operator_check_agrees_at_every_n(self, n):
        # hs_blocks against the oracle on the normalized wedges: 1.1e-14 at most,
        # a hundredth of the tolerance
        report = run_suite(SuiteConfig(suite="curvature", samples=200, n=n))
        check = next(c for c in report.checks if c.name == "curvature.block_operator")
        assert check.passed and check.margin > 0.9e-12
        assert set(check.witness) == {"G_relative_error", "F_relative_error"}

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 7])
    def test_fixed_vector_check_needs_the_search(self, monkeypatch, d, n):
        # the check's translations fix no coordinate axis, so the first
        # vector of ker(M - I) has positive H-square for one of them at every
        # n: returning it fails
        def first_kernel_vector(M, H):
            return qc._rref_kernel(M - qc.QuadMatrix.identity(M.m, M.d))[0]

        def fixed_check():
            report = run_suite(SuiteConfig(suite="cayley", samples=20, n=n, d=d))
            return next(c for c in report.checks if c.name == "cayley.fixed_vectors")

        assert fixed_check().passed
        monkeypatch.setattr(qc, "unipotent_fixed_vector", first_kernel_vector)
        check = fixed_check()
        assert check.witness == {"heisenberg_case": False, "identity_case": True}
        assert not check.passed and check.margin < 0.0

    def test_deterministic_for_fixed_seed(self):
        def stripped(r: Report) -> dict:
            d = json.loads(r.to_json())
            d.pop("timings")
            return d

        a = run_suite(SuiteConfig(suite="bundle", seed=3, samples=60))
        b = run_suite(SuiteConfig(suite="bundle", seed=3, samples=60))
        assert stripped(a) == stripped(b)

    def test_report_json_shape(self):
        report = run_suite(SuiteConfig(suite="bundle", samples=30))
        data = json.loads(report.to_json())
        assert set(data) == {
            "suite", "passed", "config", "config_hash", "checks", "timings"
        }
        assert isinstance(data["passed"], bool)
        for check in data["checks"]:
            assert set(check) == {"name", "passed", "margin", "witness"}


ALL_CHECKS = list(cli._CHECKS)
CUSPFORGE_MODULES = [
    importlib.import_module(f"cuspforge.{info.name}")
    for info in pkgutil.iter_modules(cuspforge.__path__)
]


@pytest.fixture(scope="module")
def default_report() -> Report:
    return run_suite(SuiteConfig())


class TestCheckTable:
    def test_check_names_are_unique(self):
        names = [c.name for c in ALL_CHECKS]
        assert len(set(names)) == len(names) == 20

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.name)
    def test_two_routes_or_a_reason_for_one(self, check):
        assert all(isinstance(r, str) and r for r in check.routes)
        if len(check.routes) == 1:
            assert check.why_one_route
        else:
            assert len(check.routes) == 2 and not check.why_one_route

    @pytest.mark.parametrize(
        "route", sorted({r for c in ALL_CHECKS for r in c.routes})
    )
    def test_route_names_an_existing_function(self, route):
        # a cuspforge function or Class.method, or a builtin or math function
        head, _, attr = route.partition(".")
        if head == "math":
            target = getattr(math, attr, None)
        else:
            owners = [getattr(mod, head) for mod in CUSPFORGE_MODULES if hasattr(mod, head)]
            owners = [o for o in owners if getattr(o, "__module__", "").startswith("cuspforge.")]
            if not owners and not attr:
                owners = [getattr(builtins, head, None)]
            target = owners[0] if owners else None
            if attr:
                target = getattr(target, attr, None) if isinstance(target, type) else None
        assert callable(target), route

    def test_report_names_follow_the_table(self):
        # a suite runs the checks its name prefixes, timed one by one
        for suite in SUITES:
            report = run_suite(SuiteConfig(suite=suite, samples=30))
            names = [c.name for c in ALL_CHECKS if suite == "all" or c.name.startswith(suite + ".")]
            assert [c.name for c in report.checks] == list(report.timings) == names

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.name)
    def test_check_alone_matches_its_record_in_verify_all(self, default_report, check):
        # each check draws from its own seed offset and shares objects only
        # through the config, so run alone on a fresh config it keeps its bits
        record = next(r for r in default_report.checks if r.name == check.name)
        margin, witness = check.run(SuiteConfig())
        assert np.float64(margin).tobytes() == np.float64(record.margin).tobytes()
        assert json.dumps(witness, sort_keys=True) == json.dumps(record.witness, sort_keys=True)


class TestMainVerify:
    def test_exit_zero_and_pass_lines(self, capsys):
        rc = main(["verify", "bundle", "--samples", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[pass]" in out
        assert "suite bundle: pass" in out

    def test_report_written(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        rc = main(["verify", "bundle", "--samples", "50", "--out", str(out_file)])
        assert rc == 0
        data = json.loads(out_file.read_text())
        assert data["suite"] == "bundle"
        assert data["passed"] is True

    def test_one_cutoff_build_per_run(self, monkeypatch, capsys):
        # the profile and curvature suites share the config's one build, and
        # each main call builds its own
        calls = []

        def counting(A, window):
            calls.append((A, window))
            return build_cutoff(A, window)

        monkeypatch.setattr(cli, "build_cutoff", counting)
        assert main(["verify", "all", "--samples", "50"]) == 0
        assert calls == [(6.0, (1.0, 5.0))]
        assert main(["verify", "all", "--samples", "50"]) == 0
        assert len(calls) == 2

    def test_one_psi_solve_and_five_oracle_builds_per_run(self, monkeypatch, capsys):
        # both psi checks read the config's one solve; formula_vs_oracle and
        # block_operator share the node oracle, and the space-form point and
        # ricci_bounds' three blocks build the other four
        calls = {"solve_psi": 0, "oracle": 0}

        def counting_solve(*args, **kwargs):
            calls["solve_psi"] += 1
            return profile.solve_psi(*args, **kwargs)

        build = cv.CurvatureOracle.__init__

        def counting_build(self, mp):
            calls["oracle"] += 1
            build(self, mp)

        monkeypatch.setattr(cli, "solve_psi", counting_solve)
        monkeypatch.setattr(cv.CurvatureOracle, "__init__", counting_build)
        assert main(["verify", "all"]) == 0
        assert calls == {"solve_psi": 1, "oracle": 5}

    def test_one_cusp_per_run(self, monkeypatch, capsys):
        # the config validates its cusp, and the bundle and psh suites read
        # that one
        calls = []

        def counting(**kwargs):
            calls.append(kwargs)
            return CuspParams(**kwargs)

        monkeypatch.setattr(cli, "CuspParams", counting)
        assert main(["verify", "all", "--samples", "50"]) == 0
        assert calls == [{"l": 2.0 * math.pi, "t0": 0.0, "n": 3}]

    @pytest.mark.parametrize("suite", ["profile", "curvature", "all"])
    def test_infeasible_window_exits_two(self, tmp_path, capsys, suite):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"window": [5.8, 5.9]}))
        assert main(["verify", suite, "--config", str(cfg_file)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and "widen the window" in lines[0]

    def test_cayley_runs_witness_counts_the_approximations(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return approximate(*args)

        approximate = cli.qc.approximate_in_Ul
        monkeypatch.setattr(cli.qc, "approximate_in_Ul", counting)
        out_file = tmp_path / "report.json"
        argv = ["verify", "cayley", "--samples", "110", "--out", str(out_file)]
        assert main(argv) == 0
        check = next(
            c for c in json.loads(out_file.read_text())["checks"]
            if c["name"] == "cayley.exact_unitarity"
        )
        assert check["witness"]["runs"] == len(calls) == 10

    def test_cayley_entry_error_is_measured(self, tmp_path):
        # the inputs have small non-dyadic denominators, which the dyadic
        # grid does not reproduce, so the eps half of the check is exercised
        out_file = tmp_path / "report.json"
        assert main(["verify", "cayley", "--out", str(out_file)]) == 0
        check = next(
            c for c in json.loads(out_file.read_text())["checks"]
            if c["name"] == "cayley.exact_unitarity"
        )
        eps = check["witness"]["eps"]
        assert eps == SuiteConfig().eps
        assert 0.0 < check["witness"]["max_entry_error"] <= eps
        assert check["margin"] == eps - check["witness"]["max_entry_error"]

    @pytest.mark.parametrize("A", ["10", "20", "100"])
    def test_profile_suite_passes_at_large_A(self, capsys, A):
        # the psi grid step stays at or below 3e-4, so the five-point
        # residual next to t_min keeps its 1e-8 bound as A grows
        assert main(["verify", "profile", "--A", A]) == 0
        assert "[pass] profile.psi_residual" in capsys.readouterr().out

    def test_psi_overflow_builds_no_grid(self, tmp_path, capsys, monkeypatch):
        jet_at = CutoffProfile.jet_at

        def no_psi_grid(self, t):
            # build_cutoff tabulates GRID_POINTS nodes; only the psi solve takes more
            if np.size(t) > GRID_POINTS:
                raise AssertionError("psi grid tabulated before the overflow check")
            return jet_at(self, t)

        monkeypatch.setattr(CutoffProfile, "jet_at", no_psi_grid)
        argv = ["verify", "profile", "--A", "700", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        assert "A = 700" in lines[0] and "exp(2 psi)" in lines[0]

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nothere"])
        assert exc.value.code == 2

    def test_bad_flag_value_returns_two(self, capsys):
        rc = main(["verify", "bundle", "--eps", "5.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_returns_two(self, capsys, tmp_path):
        rc = main(["verify", "bundle", "--config", str(tmp_path / "absent.json")])
        assert rc == 2


def per_point_summary(mp: cv.MetricPoint, seed: int) -> dict:
    """The sweep summary of one metric point, with its own frame draw, its
    own closed-form calls and oracle.sectional, as a reference for the batch
    in which run_sweep summarises every t."""
    F = cv.random_frame_vector(np.random.default_rng(seed), mp.n, (120, 2))
    Y, Xi = F[:, 0], F[:, 1]
    hbc = cv.bisectional(Y, Xi, mp) / (Y.norm_sq(mp) * Xi.norm_sq(mp))
    sec = cv.CurvatureOracle(mp).sectional(Y, Xi)
    coef_h, coef_z = cv.ricci_coefficients(mp)
    return {
        "min_hbc": float(hbc.min()),
        "max_hbc": float(hbc.max()),
        "min_ricci_eigenvalue": float(min(-coef_h / mp.f**2, -coef_z / mp.g**2)),
        "sectional_min": float(sec.min()),
        "sectional_max": float(sec.max()),
    }


def reference_csv(path: Path, rows: list[dict]) -> bytes:
    """The bytes csv.DictWriter writes for rows, the layout of a sweep."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path.read_bytes()


def drain(rows) -> None:
    for _ in rows:
        pass


class TestSweep:
    # None keeps BLOCK_ELEMENTS; at n = 8, where an oracle holds 288 values
    # per t, 1,000 elements make blocks of 3 t, and 2,100 blocks of 7 t, the
    # last of the 60 holding 4
    @pytest.mark.parametrize(
        "lo,hi,steps,n,seed,elements",
        [
            *(
                pytest.param(*case, None, id="-".join(map(str, case)))
                for case in [(0.05, 5.5, 60, 8, 1), (0.01, 6.0, 25, 2, 4), (0.5, 5.5, 3, 9, 0), (3.0, 3.0, 1, 3, 0)]
            ),
            pytest.param(0.05, 5.5, 60, 8, 1, 1000, id="0.05-5.5-60-8-1-block1000"),
            pytest.param(0.05, 5.5, 60, 8, 1, 2100, id="0.05-5.5-60-8-1-block2100"),
        ],
    )
    def test_t_axis_matches_per_point_reference(
        self, tmp_path, lo, hi, steps, n, seed, elements, monkeypatch
    ):
        if elements is not None:
            monkeypatch.setattr(profile, "BLOCK_ELEMENTS", elements)
        cfg = SuiteConfig(n=n, seed=seed)
        out = tmp_path / "sweep.csv"
        run_sweep("t", lo, hi, steps, cfg, out)
        p = build_cutoff(cfg.A, cfg.window)
        rows = [
            {"t": float(t), **per_point_summary(cv.MetricPoint.from_profile(p, float(t), n), seed)}
            for t in np.linspace(lo, hi, steps)
        ]
        assert out.read_bytes() == reference_csv(tmp_path / "ref.csv", rows)

    # 4.6 to 9 crosses the A = 5.5 below which sweep A falls back to the
    # wide window; the l and n summaries are those of the point t = A/2
    @pytest.mark.parametrize(
        "axis,lo,hi,steps", [("A", 4.6, 9.0, 7), ("n", 2.0, 5.0, 4), ("l", 1.0, 12.0, 4)]
    )
    def test_axis_matches_per_point_reference(self, tmp_path, axis, lo, hi, steps):
        from cuspforge.heisenberg_siegel import lambda_const

        cfg = SuiteConfig(seed=2)
        out = tmp_path / "sweep.csv"
        run_sweep(axis, lo, hi, steps, cfg, out)
        p = build_cutoff(cfg.A, cfg.window)
        rows = []
        for v in np.linspace(lo, hi, steps).tolist():
            if axis == "A":
                key, mp = {"A": v}, cv.MetricPoint.from_profile(cli._profile_for(v), v / 2.0, cfg.n)
            elif axis == "n":
                key = {"n": int(round(v))}
                mp = cv.MetricPoint.from_profile(p, cfg.A / 2.0, key["n"])
            else:
                key = {"l": v, "lambda": lambda_const(cfg.t0, v)}
                mp = cv.MetricPoint.from_profile(p, cfg.A / 2.0, cfg.n)
            rows.append({**key, **per_point_summary(mp, cfg.seed)})
        assert out.read_bytes() == reference_csv(tmp_path / "ref.csv", rows)

    def test_temporaries_do_not_grow_with_steps(self, default_profile, traced_peak):
        # 8.0 MiB measured at 5,000 steps, where one batch over all t peaks
        # at 105 MiB; the jets of all t take 0.2 MiB
        ts = np.linspace(0.5, 5.5, 5000)
        jets = default_profile.jet_at(ts)
        # the first call at n = 8 derives and caches the oracle's pattern
        drain(cv.sweep_summary(cv.MetricPoint.from_jet(ts[:2], jets[:2], 8), 0))
        mp = cv.MetricPoint.from_jet(ts, jets, 8)
        assert traced_peak(lambda: drain(cv.sweep_summary(mp, 0))) <= 16 * 2**20

    def test_rows_do_not_accumulate(self, tmp_path, traced_peak):
        # growth of the tracemalloc peak per step at n = 2 from 1,000 to
        # 5,000 steps: 42-51 B measured, the axis values and their jets; 114 B
        # with the jets of every t stacked once more and the keys held as a
        # list, 421 B with one dict per row held until the file was written
        run_sweep("t", 0.5, 5.5, 2, SuiteConfig(n=2), tmp_path / "warm.csv")
        out = tmp_path / "sweep.csv"
        small, large = [
            traced_peak(lambda: run_sweep("t", 0.5, 5.5, steps, SuiteConfig(n=2), out))
            for steps in (1000, 5000)
        ]
        assert (large - small) / 4000 <= 80

    def test_pair_products_are_formed_once(self, default_profile, monkeypatch):
        # once per oracle block, never per t: every wedge of frame pairs reads
        # the pair gathers of _pairs once, and at n = 8 2,100 elements make
        # 9 blocks of the 60 t; the first call at n = 8 derives and caches
        # the oracle's pattern
        monkeypatch.setattr(profile, "BLOCK_ELEMENTS", 2100)
        ts = np.linspace(0.5, 5.5, 60)
        jets = default_profile.jet_at(ts)
        drain(cv.sweep_summary(cv.MetricPoint.from_jet(ts[:2], jets[:2], 8), 0))
        calls = []
        pairs = cv._pairs
        monkeypatch.setattr(cv, "_pairs", lambda m: calls.append(m) or pairs(m))
        drain(cv.sweep_summary(cv.MetricPoint.from_jet(ts, jets, 8), 0))
        assert calls == [16] * 9

    def test_oracle_blocks_hold_at_most_block_elements(self, default_profile, monkeypatch):
        # at n = 8 an oracle holds 288 values per t, more than the 120 pairs
        # of the closed forms, so the oracle sets the block
        ts = np.linspace(0.5, 5.5, 1000)
        sizes = []

        class Recording(cv.CurvatureOracle):
            def __init__(self, mp):
                super().__init__(mp)
                sizes.append(self.RL.size)

        monkeypatch.setattr(cv, "CurvatureOracle", Recording)
        drain(cv.sweep_summary(cv.MetricPoint.from_jet(ts, default_profile.jet_at(ts), 8), 0))
        assert sum(sizes) == 1000 * 288 and max(sizes) <= profile.BLOCK_ELEMENTS

    def test_l_axis_rows_do_not_accumulate(self, tmp_path, traced_peak):
        # growth of the tracemalloc peak per step from 1,000 to 5,000 steps:
        # 7.9 B measured, the axis values; 274 B with a config and a key per
        # value held as lists
        run_sweep("l", 1.0, 12.0, 2, SuiteConfig(), tmp_path / "warm.csv")
        out = tmp_path / "sweep.csv"
        small, large = [
            traced_peak(lambda: run_sweep("l", 1.0, 12.0, steps, SuiteConfig(), out))
            for steps in (1000, 5000)
        ]
        assert (large - small) / 4000 <= 32

    def test_t_outside_domain_exits_two_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("sweep work started before the range check")

        monkeypatch.setattr(cli, "build_cutoff", no_work)
        monkeypatch.setattr(CutoffProfile, "jet_at", no_work)
        monkeypatch.setattr(cv, "CurvatureOracle", no_work)
        for lo, hi in (("0.5", "7"), ("0", "2"), ("-1", "3")):
            out = tmp_path / "s.csv"
            argv = ["sweep", "t", "--from", lo, "--to", hi, "--steps", "3", "--out", str(out)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert captured.out == "" and len(lines) == 1
            assert lines[0].startswith("error: t = ") and "outside (0, A]" in lines[0]
            assert not out.exists()

    def test_t_axis_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_sweep("t", 0.5, 5.5, 4, SuiteConfig(samples=50), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert list(rows[0].keys()) == [
            "t",
            "min_hbc",
            "max_hbc",
            "min_ricci_eigenvalue",
            "sectional_min",
            "sectional_max",
        ]
        for row in rows:
            assert float(row["max_hbc"]) <= 1e-12
            assert float(row["min_ricci_eigenvalue"]) < 0.0

    def test_l_axis_has_lambda_column(self, tmp_path):
        from cuspforge.heisenberg_siegel import lambda_const

        out = tmp_path / "sweep_l.csv"
        run_sweep("l", 2.0, 8.0, 3, SuiteConfig(samples=50), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "lambda" in rows[0]
        for row in rows:
            expect = lambda_const(0.0, float(row["l"]))
            assert float(row["lambda"]) == pytest.approx(expect, rel=1e-12)

    def test_l_axis_applies_the_lambda_rule(self, tmp_path, capsys):
        # lambda(0) underflows to 0 for l below about 0.0084
        out = tmp_path / "sweep_l.csv"
        argv = ["sweep", "l", "--from", "0.001", "--to", "0.002", "--steps", "2"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "t0 = 0.0" in lines[0] and "l = 0.001" in lines[0]
        assert not out.exists()

    def test_l_axis_validates_one_config_for_any_steps(self, tmp_path, monkeypatch):
        # lambda grows with l and the swept values ascend, so the first l
        # decides for all; a config per value took 0.24 of 0.43 s at 20,000
        # steps.  The run's one config is main's, and its cusp and the first
        # l's are the two cusps validated
        validated, cusps = [], []
        post_init = SuiteConfig.__post_init__
        monkeypatch.setattr(SuiteConfig, "__post_init__", lambda cfg: validated.append(cfg.l) or post_init(cfg))
        monkeypatch.setattr(cli, "CuspParams", lambda **kw: cusps.append(kw["l"]) or CuspParams(**kw))
        for steps in ("2", "50"):
            validated.clear()
            cusps.clear()
            argv = ["sweep", "l", "--from", "1", "--to", "12", "--steps", steps]
            assert main([*argv, "--out", str(tmp_path / "sweep_l.csv")]) == 0
            assert validated == [2.0 * math.pi] and cusps == [2.0 * math.pi, 1.0]

    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "one.csv"
        run_sweep("t", 3.0, 3.0, 1, SuiteConfig(samples=50), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["t"]) == 3.0

    def test_a_axis_wide_window_fallback(self, tmp_path):
        # the proportional window (A/6, 5A/6) only builds for A >= 5.5, so
        # points below that exercise the wide fallback (0.5, A - 0.5)
        out = tmp_path / "sweep_A.csv"
        run_sweep("A", 4.6, 6.0, 3, SuiteConfig(samples=50), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [float(r["A"]) for r in rows] == pytest.approx([4.6, 5.3, 6.0])
        for row in rows:
            assert float(row["max_hbc"]) <= 1e-12

    @pytest.mark.parametrize(
        "axis,lo,hi,message",
        [("A", "3", "6", "no admissible profile at A = 3.0"), ("n", "1", "3", "dimension n must be at least 2")],
        ids=["A", "n"],
    )
    def test_a_and_n_usage_errors_leave_no_file(self, tmp_path, capsys, axis, lo, hi, message):
        out = tmp_path / "s.csv"
        argv = ["sweep", axis, "--from", lo, "--to", hi, "--steps", "4", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith(f"error: {message}")
        assert not out.exists()

    def test_a_axis_infeasible_value_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no admissible profile"):
            run_sweep("A", 3.0, 6.0, 4, SuiteConfig(samples=50), tmp_path / "x.csv")

    def test_empty_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty range"):
            run_sweep("t", 5.0, 1.0, 3, SuiteConfig(), tmp_path / "x.csv")

    def test_t_outside_domain_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            run_sweep("t", 0.0, 2.0, 3, SuiteConfig(), tmp_path / "x.csv")

    def test_main_sweep_usage_errors(self, tmp_path, capsys):
        rc = main(
            ["sweep", "t", "--from", "5", "--to", "1", "--steps", "3",
             "--out", str(tmp_path / "s.csv")]
        )
        assert rc == 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "t", "--to", "1", "--steps", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("axis", ["t", "A", "n", "l"])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--from", "--to"])
    def test_non_finite_bound_names_its_flag(self, tmp_path, capsys, axis, bad, flag):
        bounds = {"--from": "2", "--to": "2", flag: bad}
        out = tmp_path / "s.csv"
        argv = ["sweep", axis, *(x for kv in bounds.items() for x in kv), "--steps", "2"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and flag in lines[0]
        assert not out.exists()

    def test_main_sweep_writes_file(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(
            ["sweep", "n", "--from", "2", "--to", "4", "--steps", "3",
             "--samples", "50", "--out", str(out)]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["n"] for row in rows] == ["2", "3", "4"]
