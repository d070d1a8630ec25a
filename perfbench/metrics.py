"""Metric names, units and the end-to-end metric each layer metric should move.

BENCHMARK.json lists the same names; `per_layer` and `end_to_end` here are
the source the tests compare it with.  A "moves" entry reads
"<end-to-end metric> on <workloads>".
"""

from __future__ import annotations

NAME_PATTERN = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"

WORKLOADS = ("verify_all", "curvature_scan", "exact_density", "psh_bundle")

END_TO_END = (
    # name, unit, better, bound
    ("wall_ref", "ref", "lower", 0.2),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

_ALL = ", ".join(WORKLOADS)
_VERIFY = "wall_ref on verify_all"
_SCAN = "wall_ref on curvature_scan"
_SCAN_RSS = "wall_ref and peak_rss_mb on curvature_scan"
_EXACT = "wall_ref on exact_density"
_PSH = "wall_ref on psh_bundle"
_SETUP = f"setup_s on {_ALL}"

# traced layer -> what it should move; each gets <layer>.calls and <layer>.self_s
LAYER_MOVES = {
    "profile.solve_psi": _VERIFY,
    "profile.build_cutoff": _SETUP,
    "profile.jet_at": "wall_ref on verify_all, curvature_scan",
    "profile.g_jet_at": _VERIFY,
    "smoothstep.step": _VERIFY,
    "curvature.from_profile": _SCAN,
    "curvature.bisectional": _SCAN,
    "curvature.ricci": _SCAN,
    "curvature.hbc_certificate": _SCAN,
    "curvature.oracle_build": _SCAN_RSS,
    "curvature.oracle_eval": _SCAN_RSS,
    "qfield_cayley.approximate_in_Ul": _EXACT,
    "qfield_cayley.cayley": _EXACT,
    "qfield_cayley.inverse": _EXACT,
    "qfield_cayley.in_unitary_group": _EXACT,
    "qfield_cayley.unipotent_fixed_vector": _EXACT,
    "psh.complex_hessian": _PSH,
    "psh.reg_max": _PSH,
    "psh.build_chi": _PSH,
    "psh.phi_cusp_ambient": _PSH,
    "cusp_bundle.h_norm": _PSH,
    "cusp_bundle.lattice_act": _PSH,
    "heisenberg_siegel": _PSH,
    "cli.run_suite": "wall_ref on verify_all, curvature_scan",
    "cli.run_sweep": _SCAN,
}

# name -> (unit, better, moves); counts and self times are per iteration
EXTRA = {
    "profile.jet_at.points_per_call": ("points", "higher", "wall_ref on verify_all, curvature_scan"),
    "smoothstep.step.points": ("points", "lower", _VERIFY),
    "smoothstep.first_call_s": ("s", "lower", _SETUP),
    "setup.import_s": ("s", "lower", _SETUP),
    "curvature.oracle_for.hits": ("count", "higher", _SCAN_RSS),
    "curvature.oracle_for.misses": ("count", "lower", _SCAN_RSS),
    "curvature.oracle_for.hit_ratio": ("ratio", "higher", _SCAN_RSS),
    "qfield_cayley.attempts_per_approx": ("ratio", "lower", _EXACT),
    "trace_overhead_ratio": ("ratio", "lower", "none: traced over untraced iteration wall time"),
    "trace.untraced_s": ("s", "lower", "none: traced iteration wall time outside every layer span"),
    "fail_ratio": ("ratio", "lower", f"correct on {_ALL}"),
    # timeit minimum over repeats at the stated size
    "probe.jet_at_scalar_us": ("us", "lower", "wall_ref on verify_all, curvature_scan"),
    "probe.jet_at_batch_us_per_point": ("us/point", "lower", _VERIFY),
    "probe.step_us_per_point": ("us/point", "lower", _VERIFY),
    "probe.oracle_build_n3_us": ("us", "lower", _SCAN_RSS),
    "probe.oracle_build_n8_us": ("us", "lower", _SCAN_RSS),
    "probe.oracle_eval_n3_us": ("us", "lower", _SCAN),
    "probe.bisectional_n3_us": ("us", "lower", _SCAN),
    "probe.cayley_m3_us": ("us", "lower", _EXACT),
    "probe.approximate_in_Ul_m3_us": ("us", "lower", _EXACT),
    "probe.reg_max_us": ("us", "lower", _PSH),
    "probe.complex_hessian_n3_us": ("us", "lower", _PSH),
}


def per_layer() -> dict[str, tuple[str, str, str]]:
    """Every per-layer metric: name -> (unit, better, moves)."""
    out = {}
    for layer, moves in LAYER_MOVES.items():
        out[f"{layer}.calls"] = ("count", "lower", moves)
        out[f"{layer}.self_s"] = ("s", "lower", moves)
    out.update(EXTRA)
    return out


def layer_values(stats: dict, iterations: int) -> dict[str, float]:
    """Per-iteration layer metrics from tracer.LayerStats totals."""
    out = {}
    for layer in LAYER_MOVES:
        s = stats[layer]
        out[f"{layer}.calls"] = s.calls / iterations
        out[f"{layer}.self_s"] = s.self_s / iterations
    jet = stats["profile.jet_at"]
    out["profile.jet_at.points_per_call"] = (
        jet.counts["points"] / jet.calls if jet.calls else 0.0
    )
    out["smoothstep.step.points"] = stats["smoothstep.step"].counts["points"] / iterations
    approx = stats["qfield_cayley.approximate_in_Ul"]
    exact = stats["qfield_cayley.cayley"].counts["exact_in_approx"]
    out["qfield_cayley.attempts_per_approx"] = exact / approx.calls if approx.calls else 0.0
    return out
