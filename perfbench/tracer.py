"""Per-layer tracing of cuspforge from outside the package.

A layer is a cuspforge module; its traced functions are the public entry
points listed in `layer_targets`.  `install` swaps each of them, wherever a
cuspforge module or class holds it, for a wrapper that records calls, self
time and a few counts; the returned callable puts the originals back.
Nothing under `src/` is edited.

Self time is a span's duration minus the durations of the spans opened
directly inside it, so the self times of all spans add up to the summed
duration of the outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable

import numpy as np


class LayerStats:
    """Totals of one layer: calls, self seconds, named counts."""

    __slots__ = ("calls", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts: Counter = Counter()


class Tracer:
    """Records nested spans as per-layer totals, without keeping the spans.

    `clock` is injectable so that tests can drive the arithmetic with a
    fake time source.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.root_s = 0.0  # summed duration of outermost spans
        self.first_s: dict[str, float] = {}  # duration of each layer's first call
        self.open: Counter = Counter()  # spans currently open, per layer
        self._child_s: list[float] = []  # child time of each open span

    def layer(self, name: str) -> LayerStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Return fn recorded as a span of layer `name`.

        `count(tracer, args, kwargs)` returns extra counts for the call; it
        runs while the span is still open.
        """
        stats = self.layer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            self.open[name] += 1
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                child = self._child_s.pop()
                stats.calls += 1
                stats.self_s += duration - child
                if count is not None:
                    stats.counts.update(count(self, args, kwargs))
                self.open[name] -= 1
                self.first_s.setdefault(name, duration)
                if self._child_s:
                    self._child_s[-1] += duration
                else:
                    self.root_s += duration

        return traced

    def self_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())


def layer_targets():
    """(layer, owner, attribute, count) for every traced entry point.

    owner is a module or a class.  Every public function defined in
    heisenberg_siegel is traced under one aggregated layer.
    """
    from cuspforge import (
        _smoothstep,
        cli,
        curvature,
        cusp_bundle,
        heisenberg_siegel,
        profile,
        psh,
        qfield_cayley,
    )

    def _points(tracer, args, kwargs):
        # the evaluation points are the last positional argument
        return {"points": int(np.size(args[-1]))}

    def _exact_cayley_in_approx(tracer, args, kwargs):
        exact = isinstance(args[0], qfield_cayley.QuadMatrix)
        inside = tracer.open["qfield_cayley.approximate_in_Ul"] > 0
        return {"exact_in_approx": int(exact and inside)}

    targets = [
        ("profile.solve_psi", profile, "solve_psi", None),
        ("profile.build_cutoff", profile, "build_cutoff", None),
        ("profile.jet_at", profile.CutoffProfile, "jet_at", _points),
        ("profile.g_jet_at", profile.CutoffProfile, "g_jet_at", None),
        ("smoothstep.step", _smoothstep, "step", _points),
        ("curvature.from_profile", curvature.MetricPoint, "from_profile", None),
        ("curvature.bisectional", curvature, "bisectional", None),
        ("curvature.ricci", curvature, "ricci", None),
        ("curvature.hbc_certificate", curvature, "hbc_certificate", None),
        ("curvature.oracle_build", curvature.CurvatureOracle, "__init__", None),
        ("curvature.oracle_eval", curvature.CurvatureOracle, "evaluate", None),
        ("qfield_cayley.approximate_in_Ul", qfield_cayley, "approximate_in_Ul", None),
        ("qfield_cayley.cayley", qfield_cayley, "cayley", _exact_cayley_in_approx),
        ("qfield_cayley.inverse", qfield_cayley.QuadMatrix, "inverse", None),
        ("qfield_cayley.in_unitary_group", qfield_cayley, "in_unitary_group", None),
        (
            "qfield_cayley.unipotent_fixed_vector",
            qfield_cayley,
            "unipotent_fixed_vector",
            None,
        ),
        ("psh.complex_hessian", psh, "complex_hessian", None),
        ("psh.reg_max", psh, "reg_max", None),
        ("psh.build_chi", psh, "build_chi", None),
        ("psh.phi_cusp_ambient", psh, "phi_cusp_ambient", None),
        ("cusp_bundle.h_norm", cusp_bundle, "h_norm", None),
        ("cusp_bundle.lattice_act", cusp_bundle, "lattice_act", None),
        ("cli.run_suite", cli, "run_suite", None),
        ("cli.run_sweep", cli, "run_sweep", None),
    ]
    for attr, fn in vars(heisenberg_siegel).items():
        if (
            inspect.isfunction(fn)
            and not attr.startswith("_")
            and fn.__module__ == heisenberg_siegel.__name__
        ):
            targets.append(("heisenberg_siegel", heisenberg_siegel, attr, None))
    return targets


def layer_names() -> list[str]:
    return list(dict.fromkeys(t[0] for t in layer_targets()))


def install(tracer: Tracer) -> Callable[[], None]:
    """Route every traced entry point through `tracer`; return the undo."""
    modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == "cuspforge" or name.startswith("cuspforge."))
    ]
    saved: list[tuple[object, str, object]] = []
    for name, owner, attr, count in layer_targets():
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, count))
            else:
                new = tracer.wrap(name, raw, count)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        fn = getattr(owner, attr)
        new = tracer.wrap(name, fn, count)
        # functions bound by `from x import f` elsewhere are swapped too
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    saved.append((module, key, fn))
                    setattr(module, key, new)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
