"""Every public name of the package is reached by the package or a demo,
and the package states its invariants as raised errors.

A public top-level function or class in ``src/stepsq`` must be referenced
(as a name or an attribute) somewhere in ``src/stepsq`` or ``demos/``; a
public method or annotated field of such a class must be reached as an
attribute (``obj.name``), so a local variable of the same name does not
count, nor does a field that is only ever set.  An attribute of an imported
module, such as ``np.exp``, does not count either, nor one of the lazily
loaded numpy that ``from ._numpy import np`` binds.
A name that only tests reach is either given a pipeline, a caller or a demo,
or deleted; the few kept on purpose are listed in ``ALLOWED`` with the
reason.

The same holds for parameters: every parameter with a default of a public
function or public method must be passed by some call in ``src/stepsq`` or
``demos/`` to a callee of that bare name, by keyword or positionally at its
index (``self`` and ``cls`` not counted); a call with ``*args`` or
``**kwargs`` counts as passing every position or every keyword.  A default
that no such call overrides is a knob only a test can turn: it becomes a
constant or goes, unless ``ALLOWED_PARAMETERS`` names it with the reason.
The package has no ``assert`` statement, since ``python -O`` strips them.
"""

import ast
import math
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
}

ALLOWED_PARAMETERS = {}


def _sources():
    assert SRC.is_dir() and DEMOS.is_dir()
    files = sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _modules(tree):
    """Names that tree binds to a module: by ``import x [as y]``, or to the
    lazily loaded numpy by ``from ._numpy import np``."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module == "_numpy")
            for alias in node.names}


def _referenced(trees):
    """(names, attributes): every name and attribute used, and the
    attributes alone, except attributes on a chain rooted at a module name
    (``_modules``): ``np.add.at`` or ``np.exp`` reaches no method of the
    package."""
    names, attributes = set(), set()
    for tree in trees.values():
        modules = _modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and not _on_module(node, modules)):
                attributes.add(node.attr)
    return names | attributes, attributes


def _on_module(attribute, modules):
    """Whether an attribute chain starts at a name bound to a module."""
    root = attribute.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id in modules


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


def _defaulted_parameters(trees):
    """(qualified name, callee name, parameter, positional index or None)
    of each parameter with a default of a public top-level function or a
    public method of a public class; the index does not count self or cls,
    and is None for a keyword-only parameter."""
    out = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                functions = [(path.stem, node, 0)]
            else:
                functions = [
                    (f"{path.stem}.{node.name}", sub,
                     0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in sub.decorator_list) else 1)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_")]
            for owner, func, bound in functions:
                args = func.args
                positional = (args.posonlyargs + args.args)[bound:]
                first = len(positional) - len(args.defaults)
                params = [(arg, index) for index, arg in
                          enumerate(positional[first:], start=first)]
                params += [(arg, None) for arg, default
                           in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None]
                out += [(f"{owner}.{func.name}({arg.arg})", func.name,
                         arg.arg, index) for arg, index in params]
    return out


def _calls(trees):
    """callee name -> (keywords passed, positions passed): over every call
    by bare name or attribute, except attributes rooted at a module
    (``_modules``); ``**kwargs`` passes the keyword "**" and ``*args``
    every position."""
    passed = {}
    for tree in trees.values():
        modules = _modules(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif (isinstance(func, ast.Attribute)
                  and not _on_module(func, modules)):
                name = func.attr
            else:
                continue
            keywords, positions = passed.get(name, (set(), 0))
            keywords |= {k.arg or "**" for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            passed[name] = (keywords, max(positions, math.inf if starred
                                          else len(node.args)))
    return passed


def _is_passed(callee, param, index, calls):
    keywords, positions = calls.get(callee, (set(), 0))
    return (param in keywords or "**" in keywords
            or (index is not None and index < positions))


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


def test_every_defaulted_parameter_is_passed():
    trees = _sources()
    calls = _calls(trees)
    unpassed = sorted(qual for qual, callee, param, index
                      in _defaulted_parameters(trees)
                      if not _is_passed(callee, param, index, calls)
                      and qual not in ALLOWED_PARAMETERS)
    assert unpassed == [], ("parameters with a default that no call in a "
                            f"module or demo passes: {unpassed}; make them "
                            "constants or delete them")


def test_the_parameter_allowlist_holds_only_unpassed_parameters():
    trees = _sources()
    calls = _calls(trees)
    params = {qual: (callee, param, index)
              for qual, callee, param, index in _defaulted_parameters(trees)}
    stale = sorted(qual for qual in ALLOWED_PARAMETERS
                   if qual not in params or _is_passed(*params[qual], calls))
    assert stale == [], ("parameter allowlist entries that are gone or now "
                         f"passed: {stale}")


def test_the_package_has_no_assert_statement():
    found = sorted(f"{path.name}:{node.lineno}"
                   for path, tree in _sources().items() if path.parent == SRC
                   for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert found == [], f"assert statements that python -O strips: {found}"


def test_attributes_of_the_lazy_numpy_reach_no_method():
    tree = ast.parse("from ._numpy import np\n"
                     "import numpy.linalg\n"
                     "np.einsum(x)\nnumpy.linalg.norm(x)\nh.exp(x)\n")
    _, attributes = _referenced({SRC / "probe.py": tree})
    assert "exp" in attributes
    assert not {"einsum", "linalg", "norm"} & attributes


def test_the_parameter_rule_counts_positions_after_self():
    tree = ast.parse("class K:\n"
                     "    def m(self, a, b=1, *, c=2): pass\n"
                     "    @staticmethod\n"
                     "    def s(a, b=1): pass\n"
                     "def f(a, b=1, c=2): pass\n"
                     "k.m(0, 1)\nK.s(0)\nf(0, c=3)\n")
    trees = {SRC / "probe.py": tree}
    calls = _calls(trees)
    unpassed = [qual for qual, callee, param, index
                in _defaulted_parameters(trees)
                if not _is_passed(callee, param, index, calls)]
    assert unpassed == ["probe.K.m(c)", "probe.K.s(b)", "probe.f(b)"]
