"""The public surface of the package.

Every public function and class of src/cuspforge, and every public method,
classmethod and property of those classes, must be reached by the program
itself (a reported check or the CLI), by the benchmark, or by the acceptance
gate.  A name that only other tests reach either becomes a route in a check
or goes with its tests, unless RESERVED names it with the reason it stays.

A use is a loaded Name or Attribute outside the definition itself: a Name
or a module attribute such as cv.ricci reaches the module-level definition,
any other attribute such as orc.ricci reaches the methods of that name.
An attribute of another library, such as np.linalg.det, reaches nothing.

No module of src/cuspforge reaches another's private names: it loads no
_-prefixed attribute of a package module and imports none by name.  The
private module _smoothstep itself may be imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cuspforge").glob("*.py"))
USERS = [
    *SOURCES,
    *sorted(p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py"),
    ROOT / "tests" / "test_acceptance.py",
]
MODULES = {p.stem for p in SOURCES}

RESERVED = {
    "heisenberg_siegel.to_matrix": (
        "the float route for the generators of the exact Heisenberg lattice "
        "against heisenberg_matrix_exact (ROADMAP item 8)"
    ),
    "qfield_cayley.QuadElem.is_integral": (
        "tests membership of the lattice generators in the ring of integers "
        "(ROADMAP item 8)"
    ),
    "heisenberg_siegel.compose": (
        "to be checked against lattice_act, whose action is a homomorphism, in "
        "bundle.h_norm_invariance (ROADMAP item 16); a new check moves report bytes"
    ),
    "curvature.bianchi_check": (
        "to become a Kahler-identity check on the oracle (ROADMAP item 16); a new "
        "check moves report bytes"
    ),
    "profile.CutoffProfile.g_jet_at": (
        "the benchmark traces it by name (perfbench/tracer.py, BENCHMARK.json); it "
        "can go once the benchmark stops tracing it (ROADMAP item 14)"
    ),
    "qfield_cayley.QuadMatrix.inverse": (
        "the benchmark traces it by name (perfbench/tracer.py, BENCHMARK.json); it "
        "can go once the benchmark stops tracing it (ROADMAP item 14)"
    ),
}


def definitions() -> dict:
    """Qualified name -> (module, owning class or None, name) for each public
    definition, with the module given by its file stem."""
    found = {}
    for path in SOURCES:
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found[f"{module}.{node.name}"] = (module, None, node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        found[f"{module}.{node.name}.{item.name}"] = (module, node.name, item.name)
    return found


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


def _foreign(tree: ast.AST) -> set:
    """Local names bound by imports of modules outside the package, such as
    np for numpy and Fraction for fractions.Fraction."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.partition(".")[0] for a in node.names
                    if a.name.partition(".")[0] != "cuspforge"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module.partition(".")[0] != "cuspforge"
        ):
            out |= {a.asname or a.name for a in node.names}
    return out


def _dotted(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def uses() -> list:
    """(key, enclosing) per loaded Name or Attribute in USERS: key is
    ("name", name), ("module", module, name) or ("method", name), and
    enclosing the qualified definitions the use sits in."""
    out = []
    for path in USERS:
        tree = ast.parse(path.read_text())
        aliases, foreign = _aliases(tree), _foreign(tree)
        module = path.stem if path in SOURCES else None

        def visit(node, scope, enclosing):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and module:
                scope = f"{scope}.{node.name}"
                enclosing = enclosing | {scope}
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((("name", node.id), enclosing))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = _dotted(node.value)
                if owner in aliases:
                    out.append((("module", aliases[owner], node.attr), enclosing))
                elif owner is None or owner.partition(".")[0] not in foreign:
                    out.append((("method", node.attr), enclosing))
            for child in ast.iter_child_nodes(node):
                visit(child, scope, enclosing)

        visit(tree, module, frozenset())
    return out


def used_names() -> set:
    """The qualified public definitions reached by some use outside themselves."""
    keys = {}
    for key, enclosing in uses():
        keys.setdefault(key, []).append(enclosing)
    used = set()
    for qual, (module, cls, name) in definitions().items():
        if cls is None:
            candidates = keys.get(("name", name), []) + keys.get(("module", module, name), [])
        else:
            candidates = keys.get(("method", name), [])
        if any(qual not in enclosing for enclosing in candidates):
            used.add(qual)
    return used


def test_every_public_name_is_used_or_reserved():
    unreached = set(definitions()) - used_names() - set(RESERVED)
    assert not unreached, (
        f"public names reached by no check, CLI path, benchmark file or gate test: "
        f"{sorted(unreached)}; make each a route in a check, delete it with its "
        f"tests, or reserve it with a reason"
    )


def test_reserved_names_are_defined_and_unused():
    reserved = set(RESERVED)
    stale, promoted = reserved - set(definitions()), reserved & used_names()
    assert not stale, f"reserved names no longer defined: {sorted(stale)}"
    assert not promoted, f"reserved names now in use, take them out of RESERVED: {sorted(promoted)}"
    assert all(reason.strip() for reason in RESERVED.values())


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
