"""Every public name of the package is reached by the package or a demo,
and the package states its invariants as raised errors.

A public top-level function or class in ``src/stepsq`` must be referenced
(as a name or an attribute) somewhere in ``src/stepsq`` or ``demos/``; a
public method or annotated field of such a class must be reached as an
attribute (``obj.name``), so a local variable of the same name does not
count, nor does a field that is only ever set.  An attribute of an imported
module, such as ``np.exp``, does not count either.
A name that only tests reach is either given a pipeline, a caller or a demo,
or deleted; the few kept on purpose are listed in ``ALLOWED`` with the
reason.  The package has no ``assert`` statement, since ``python -O`` strips
them.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stepsq"
DEMOS = ROOT / "demos"

ALLOWED = {
    "inversion.character_of_translate":
        "the centre-slice character path, kept for a characters pipeline "
        "beside orbit_integral",
    "inversion.TestFunction.conjugate_by":
        "conjugation invariance of the character, kept for a characters "
        "pipeline",
    "rootsys.simple_coordinates":
        "BENCHMARK.json traces it by name (per-layer metrics "
        "rootsys.simple_coordinates.calls and .self_s)",
    "schrodinger.CoefficientField":
        "the coefficient field whose decay acceptance test_09 checks",
    "schrodinger.CoefficientField.at":
        "the field at a group element, checked against bound()",
    "schrodinger.CoefficientField.at_pq":
        "the field on the non-central coordinates, which acceptance test_09 "
        "samples",
    "schrodinger.CoefficientField.bound":
        "the Cauchy-Schwarz bound on the field",
    "schrodinger.schwartz_decay_report":
        "the rapid-decay check of acceptance test_09",
    "schrodinger.DecayReport.sups":
        "the weighted sups per box, which test_schrodinger bounds",
    "schrodinger.DecayReport.sup_stable":
        "half of the decay verdict, which acceptance test_09 reads",
    "schrodinger.DecayReport.l1_cauchy_gap":
        "the other half of the decay verdict, which acceptance test_09 reads",
}


def _sources():
    assert SRC.is_dir() and DEMOS.is_dir()
    files = sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _referenced(trees):
    """(names, attributes): every name and attribute used, and the
    attributes alone, except attributes on a chain rooted at a module bound
    by ``import x [as y]``: ``np.add.at`` or ``np.exp`` reaches no method of
    the package."""
    names, attributes = set(), set()
    for tree in trees.values():
        modules = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in modules):
                    attributes.add(node.attr)
    return names | attributes, attributes


def _reached(qual, name, referenced):
    """A method counts only as an attribute, any other name either way."""
    names, attributes = referenced
    return name in (attributes if qual.count(".") == 2 else names)


def _public_api(trees):
    """(qualified name, bare name) of each public top-level function or
    class of the package and each public method or annotated field of such
    a class."""
    out = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    name = sub.name
                elif (isinstance(sub, ast.AnnAssign)
                      and isinstance(sub.target, ast.Name)):
                    name = sub.target.id
                else:
                    continue
                if not name.startswith("_"):
                    out.append((f"{path.stem}.{node.name}.{name}", name))
    return out


def test_every_public_name_is_reached():
    trees = _sources()
    referenced = _referenced(trees)
    unreached = sorted(qual for qual, name in _public_api(trees)
                       if not _reached(qual, name, referenced)
                       and qual not in ALLOWED)
    assert unreached == [], ("public names that no module or demo reaches: "
                             f"{unreached}; use them or delete them")


def test_the_allowlist_holds_only_unreached_names():
    trees = _sources()
    referenced = _referenced(trees)
    api = dict(_public_api(trees))
    stale = sorted(qual for qual in ALLOWED
                   if qual not in api or _reached(qual, api[qual], referenced))
    assert stale == [], f"allowlist entries that are gone or now reached: {stale}"


def test_the_package_has_no_assert_statement():
    found = sorted(f"{path.name}:{node.lineno}"
                   for path, tree in _sources().items() if path.parent == SRC
                   for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert found == [], f"assert statements that python -O strips: {found}"
