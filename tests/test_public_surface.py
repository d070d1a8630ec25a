"""Reachability of the package's code, and the privacy of its modules.

Every function of src/cuspforge counts: public or private, dunder, nested,
property or cached property.  Each must run when the program runs, or be
named in RESERVED with the reason it stays.  The program runs in one fresh
interpreter under a sys.settrace global hook that records each code object
it enters and returns None, so no line events are traced.  That
interpreter runs ARGV through cli.main, each with its exit code checked,
and one set of operations of each workload of perfbench/workloads.py, each
checked ok.  A fresh interpreter is needed for two reasons: an lru_cache
that earlier tests warmed would never enter its body, and some functions
run only at import (_smoothstep.bump, through psh's _KERNEL_W).

A reason in RESERVED is one of three kinds, each with what it cites:
- ("item", n): the ROADMAP item that claims the function;
- ("error", test): an error path that the named test in tests/ reaches;
- ("gate", test): the acceptance gate test (tests/test_acceptance.py) that
  reaches it.  The gate is listed, not traced: it is pinned and takes
  seconds.

No module of src/cuspforge reaches another's private names: it loads no
_-prefixed attribute of a package module and imports none by name.  The
private module _smoothstep itself may be imported.

Run as a script, `python tests/test_public_surface.py OUT_DIR` traces the
program and writes the functions it entered to OUT_DIR/entered.json.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cuspforge"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {p.stem for p in SOURCES}
GATE = ROOT / "tests" / "test_acceptance.py"

# (argv, exit code); each verify and sweep also gets --out in a scratch directory
ARGV = [
    # every suite; at --samples 20 psh.chi_domination builds a two-slope chi
    (["verify", "all", "--samples", "20"], 0),
    (["verify", "all", "--n", "2", "--samples", "20", "--d", "3"], 0),
    *((["sweep", axis, "--from", lo, "--to", hi, "--steps", "2"], 0)
      for axis, lo, hi in (("t", "0.5", "5.5"), ("A", "5", "9"), ("l", "1", "12"), ("n", "2", "5"))),
    # overflow and underflow guards
    (["verify", "curvature", "--A", "90"], 2),
    (["verify", "bundle", "--l", "0.05"], 2),
    (["verify", "psh", "--l", "0.05"], 2),
    (["sweep", "t", "--from", "1e-300", "--to", "1", "--steps", "2"], 2),
]

RESERVED = {
    "heisenberg_siegel.to_matrix": ("item", 8,
        "the float route for the generators of the exact Heisenberg lattice "
        "against heisenberg_matrix_exact"),
    "qfield_cayley.QuadElem.is_integral": ("item", 8,
        "tests membership of the lattice generators in the ring of integers"),
    "heisenberg_siegel.compose": ("item", 16,
        "to be checked against lattice_act, whose action is a homomorphism, in "
        "bundle.h_norm_invariance; a new check moves report bytes"),
    "curvature.bianchi_check": ("item", 16,
        "to become a Kahler-identity check on the oracle; a new check moves report bytes"),
    "profile.CutoffProfile.g_jet_at": ("item", 14,
        "the benchmark traces it by name (perfbench/tracer.py, BENCHMARK.json); it "
        "can go once the benchmark stops tracing it"),
    "qfield_cayley.QuadMatrix.inverse": ("item", 14,
        "the benchmark traces it by name (perfbench/tracer.py, BENCHMARK.json); it "
        "can go once the benchmark stops tracing it"),
    **dict.fromkeys(
        ("qfield_cayley.QuadElem.__add__", "qfield_cayley.QuadElem.__rsub__",
         "qfield_cayley.QuadElem.__rtruediv__", "qfield_cayley.QuadElem.to_complex"),
        ("item", 24, "the exact oracle over Q decides whether QuadElem keeps its arithmetic"),
    ),
    "psh.GlueError.__init__": ("error", "test_violated_margin_raises_with_witnesses",
        "glue_exhaustion raises it with the band points that fail"),
    "qfield_cayley.ApproximationError.__init__": ("error", "test_subnormal_eps_is_unreachable",
        "approximate_in_Ul raises it when no grid reaches eps"),
    "curvature.MetricPoint.__hash__": ("gate", "test_c01_hyperbolic_limit",
        "keys oracle_for's cache (item 14)"),
    "curvature.oracle_for": ("gate", "test_c01_hyperbolic_limit",
        "the gate's cached oracle, which can go with its cache (item 14)"),
    "curvature.MetricPoint.cosh_model": ("gate", "test_c04_ricci_bounds",
        "the gate's cosh-model points (item 9)"),
    "curvature.CertificateReport.passed": ("gate", "test_c03_nonpositivity_certificate",
        "the gate's certificate verdict"),
    "curvature.CertificateReport.summary": ("gate", "test_c03_nonpositivity_certificate",
        "the gate's certificate line"),
    **dict.fromkeys(
        ("curvature.poly_P", "curvature.discriminant_inequality",
         "curvature.CurvatureOracle.__call__", "curvature.FrameVector.__add__",
         "curvature.FrameVector.__sub__", "curvature.FrameVector.__rmul__"),
        ("gate", "test_c05_quartic_polynomial_identity",
         "the gate's quartic identity and its frame arithmetic (item 13)"),
    ),
}


def definitions() -> dict:
    """Qualified name -> (file name, first line, name) of every function
    defined in SOURCES, the key a traced code object is matched by: a
    decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            qual = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[qual] = (path.name, first, child.name)
            visit(child, qual)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path.stem)
    return found


def trace_program(out_dir: Path) -> list:
    """[file name, first line, name] of each code object of src/cuspforge
    entered while ARGV and one set of each workload's operations run; raises
    AssertionError on a wrong exit code or a failed operation."""
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)

    sys.settrace(hook)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    assert Path(workloads.cli.__file__).resolve().parent == PACKAGE, workloads.cli.__file__
    wrong = []
    for k, (argv, code) in enumerate(ARGV):
        got, err = workloads._cli([*argv, "--out", str(out_dir / f"argv{k}.out")])
        if got != code:
            wrong.append(f"{' '.join(argv)}: exit {got}, not {code}; {err}")
    for name, make in workloads.WORKLOADS.items():
        failed = sum(not workloads.run_op(op).ok for op in make(0, out_dir))
        if failed:
            wrong.append(f"workload {name}: {failed} operations failed")
    sys.settrace(None)
    assert not wrong, "\n".join(wrong)
    return [
        [Path(c.co_filename).name, c.co_firstlineno, c.co_name]
        for c in entered
        if Path(c.co_filename).resolve().parent == PACKAGE
    ]


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> set:
    """Qualified names of the functions a fresh traced interpreter never entered."""
    out_dir = tmp_path_factory.mktemp("trace")
    run = subprocess.run([sys.executable, __file__, str(out_dir)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    entered = {tuple(key) for key in json.loads((out_dir / "entered.json").read_text())}
    return {qual for qual, key in definitions().items() if key not in entered}


def test_every_function_runs_or_is_reserved(unreached):
    missing = unreached - set(RESERVED)
    assert not missing, (
        f"functions no CLI path or workload runs: {sorted(missing)}; make each a "
        f"route in a check, delete it with its tests, or reserve it with a reason"
    )


def test_reserved_names_are_defined_and_unused(unreached):
    stale = set(RESERVED) - set(definitions())
    promoted = set(RESERVED) - unreached - stale
    assert not stale, f"reserved names no longer defined: {sorted(stale)}"
    assert not promoted, f"reserved names the program now runs, take them out of RESERVED: {sorted(promoted)}"
    tests = {path: path.read_text() for path in (ROOT / "tests").glob("test_*.py")}
    for qual, (kind, cite, why) in RESERVED.items():
        assert kind in ("item", "error", "gate") and why.strip(), qual
        cited = [text for path, text in tests.items() if kind == "error" or path == GATE]
        assert kind == "item" or any(f"def {cite}(" in text for text in cited), (
            f"{qual}: no test {cite} in {'tests/' if kind == 'error' else GATE.name}"
        )


def _aliases(tree: ast.AST) -> dict:
    """Local name -> module stem for every import of a package module; a
    plain `import cuspforge.cli` maps the dotted name "cuspforge.cli"."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "cuspforge"):
            for a in node.names:
                if a.name in MODULES:
                    out[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, stem = a.name.partition(".")
                if head == "cuspforge" and stem in MODULES:
                    out[a.asname or a.name] = stem
    return out


def _dotted(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def private_reaches() -> list:
    """(module, reached name) per load of an _-prefixed attribute of a
    package module, and per import of an _-prefixed name from one, in
    SOURCES; `from . import _smoothstep` imports a module, not a name."""
    out = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        aliases = _aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = aliases.get(_dotted(node.value))
                if owner and node.attr[0] == "_":
                    out.append((path.stem, f"{owner}.{node.attr}"))
            elif isinstance(node, ast.ImportFrom):
                source = node.module if node.level else node.module.removeprefix("cuspforge.")
                if source in MODULES:
                    out += [(path.stem, f"{source}.{a.name}") for a in node.names if a.name[0] == "_"]
    return out


def test_no_module_reaches_another_modules_private_names():
    reaches = private_reaches()
    assert not reaches, (
        f"(module, private name of another module) pairs: {reaches}; make the name "
        f"public or keep its use inside its module"
    )


if __name__ == "__main__":
    out_dir = Path(sys.argv[1])
    (out_dir / "entered.json").write_text(json.dumps(trace_program(out_dir)))
