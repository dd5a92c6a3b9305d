"""Every public function and class of the package has a caller inside the package.

A public top-level name that only tests reach is an entry point the pipeline
never takes. The scan uses ``ast`` alone: a reference is a load of the bare
name in its own module (outside its own definition, and not shadowed by a
local of an enclosing function), ``module.name`` through an imported module,
or an import of the name. Decorated functions (the click commands) count as
used. Likewise every dataclass or NamedTuple field is read somewhere in the
package, so a result carries nothing that no stage looks at.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import newswarn

from conftest import TINY

PACKAGE = Path(newswarn.__file__).parent

# Package names that only tests call, each with its reason. Test oracles live in
# tests/conftest.py.
ORACLES = {
    ("tsstats", "adf_test"):
        "the one-series case of _adf_stack, which the benchmark's tracer counts by name",
}


def _function_locals(fn) -> set[str]:
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
    return names


class _References(ast.NodeVisitor):
    """Unshadowed name loads, ``alias.attr`` pairs and ``from .m import x`` names."""

    def __init__(self):
        self.loads: set[tuple[str, str]] = set()  # (name, enclosing top-level def)
        self.attributes: set[tuple[str, str]] = set()
        self.imports: set[tuple[str, str]] = set()  # (module, name)
        self.module_aliases: dict[str, str] = {}
        self._shadowed: list[set[str]] = []
        self._top = ""

    def visit_FunctionDef(self, node):
        top = self._top
        self._top = self._top or node.name
        self._shadowed.append(_function_locals(node))
        self.generic_visit(node)
        self._shadowed.pop()
        self._top = top

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        top = self._top
        self._top = self._top or node.name
        self.generic_visit(node)
        self._top = top

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self._shadowed):
            self.loads.add((node.id, self._top))

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name):
            self.attributes.add((node.value.id, node.attr))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if node.level == 1 and node.module:
                self.imports.add((node.module, alias.name))
            elif node.level == 1:
                self.module_aliases[alias.asname or alias.name] = alias.name


def _public_definitions(tree):
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef) and node.decorator_list:
            continue
        yield node.name


def unreferenced_names() -> list[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = {}
    for module, tree in trees.items():
        refs[module] = _References()
        refs[module].visit(tree)
    unused = []
    for module, tree in trees.items():
        for name in _public_definitions(tree):
            own = any(n == name and top != name for n, top in refs[module].loads)
            imported = any((module, name) in r.imports for r in refs.values())
            through_module = any(
                r.module_aliases.get(alias) == module
                for r in refs.values() for alias, attr in r.attributes if attr == name)
            if not (own or imported or through_module):
                unused.append((module, name))
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    unused = unreferenced_names()
    assert [key for key in unused if key not in ORACLES] == [], \
        f"public names with no caller in {PACKAGE.name}: {unused}"
    assert set(ORACLES) <= set(unused), "an allowlisted oracle has a caller or is gone"


# Record fields that only tests read, and why each is kept.
READ_BY_TESTS = {
    ("AdfResult", "statistic"): "the ADF oracle comparison checks the t-ratio",
    ("AdfResult", "lag"): "the ADF oracle comparison checks the AIC lag order",
    ("AdfResult", "critical_value"): "the ADF oracle comparison checks the MacKinnon value",
    ("AdfResult", "level"): "the ADF oracle comparison checks the level a decision used",
    ("PredictionRow", "fold"): "CV tests check each prediction follows its fold's training",
    ("EmbeddingTable", "dim"): "the embedding tests check the dimension the header declares",
    ("Corpus", "skipped_lines"): "the corpus tests count malformed lines, for a run log",
}
# Config keys are read by name (getattr, asdict and the INI writer).
READ_BY_NAME = {"PipelineConfig"}


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is decorated as a dataclass or subclasses NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases))


def unread_fields() -> list[tuple[str, str]]:
    """(class, field) of each record field that no package code loads as an attribute.

    A load inside the record's own methods counts: a cache or a property read
    there is a use. Names are matched alone, whatever object they are read from.
    A load that is called (``x.name(...)``) reads only a field annotated
    ``Callable``: else it is a method of another object with the field's name.
    """
    fields, loads, calls = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fields += [(cls.name, stmt.target.id, ast.unparse(stmt.annotation))
                   for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_record(cls)
                   for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                (calls if id(node) in called else loads).add(node.attr)
    return [(cls, name) for cls, name, annotation in fields
            if cls not in READ_BY_NAME and name not in loads
            and not (name in calls and annotation.startswith("Callable"))]


def test_every_record_field_is_read_in_the_package():
    unread = unread_fields()
    assert [key for key in unread if key not in READ_BY_TESTS] == [], \
        f"record fields no package code reads: {unread}"
    assert set(READ_BY_TESTS) <= set(unread), "an allowlisted field is read or is gone"


def test_the_pipeline_does_not_import_scipy_linalg():
    # scipy.linalg costs about 6.5 MiB of peak RSS; numpy's QR and lstsq serve every fit
    code = ("import sys, newswarn.cli, newswarn.pipeline, newswarn.report; "
            "print('scipy.linalg' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_a_cold_run_in_either_screening_mode_loads_no_scipy(tmp_path):
    # importing scipy.special costs about 26 MiB of peak RSS; the F tail is computed in
    # tsstats, and a lazy import inside a stage would show only after a run
    code = f"""
import sys, newswarn.cli
from newswarn.config import load_config
from newswarn.pipeline import run_pipeline
from newswarn.synth import SyntheticSpec, generate_synthetic
cfg = load_config(generate_synthetic(SyntheticSpec(**{TINY!r}), 3, sys.argv[1])["config"])
for mode in ("pooled", "per-district"):
    cfg.screening_mode, cfg.output = mode, sys.argv[1] + "/run_" + mode
    run_pipeline(cfg)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run_per-district" / "screening.csv").is_file()


# Defaults that no call in the package, the tests or the benchmark sets, and why each is kept.
UNSET_DEFAULTS: dict[str, str] = {}
SCANNED = (PACKAGE, PACKAGE.parents[1] / "tests", PACKAGE.parents[1] / "perfbench")


def _signatures(tree):
    """(call name, label format, positional parameters, defaulted parameters) of each definition.

    A record's call name is its class and its parameters are its fields; a
    method's positional parameters leave out ``self``. Decorated functions
    (the click commands) are left out, as are ``PipelineConfig`` and fields
    named with a leading underscore.
    """
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name not in READ_BY_NAME:
                if _is_record(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    out.append((child.name, child.name + ".{}", [s.target.id for s in fields],
                                [s.target.id for s in fields if s.value is not None
                                 and not s.target.id.startswith("_")]))
                visit(child)
            elif isinstance(child, ast.FunctionDef):
                if any(not (isinstance(d, ast.Name) and d.id == "cache")
                       for d in child.decorator_list):
                    continue
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if isinstance(node, ast.ClassDef):
                    positional = positional[1:]
                    name, label = ((node.name, node.name) if child.name == "__init__"
                                   else (child.name, f"{node.name}.{child.name}"))
                else:
                    name = label = child.name
                out.append((name, label + "({})", positional, defaulted))
                visit(child)

    visit(tree)
    return out


def _keys(node, dicts) -> set[str]:
    """Keys of a dict display, a ``dict(...)`` call, or a name bound to either."""
    if isinstance(node, ast.Name):
        return dicts.get(node.id, set())
    if isinstance(node, ast.Dict):
        return set().union(*[_keys(v, dicts) if k is None else {getattr(k, "value", None)}
                             for k, v in zip(node.keys, node.values)])
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
        return set().union(*[_keys(a, dicts) for a in node.args],
                           *[{k.arg} if k.arg else _keys(k.value, dicts)
                             for k in node.keywords])
    return set()


def _calls(tree):
    """(callee name, positional count, keyword names, forwarding function) of each call.

    ``**name`` passes the keys of the dict displays bound to that name in the
    file. Inside ``def f(..., **kw)``, a call ``g(..., **kw)`` forwards to g the
    keywords that f's callers pass, so its forwarding function is f.
    """
    dicts: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            dicts.setdefault(node.targets[0].id, set()).update(_keys(node.value, {}))
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                positional = next((i for i, a in enumerate(child.args)
                                   if isinstance(a, ast.Starred)), len(child.args))
                keywords, via = set(), None
                for k in child.keywords:
                    if k.arg is not None:
                        keywords.add(k.arg)
                    elif (fn is not None and fn.args.kwarg is not None
                          and isinstance(k.value, ast.Name) and k.value.id == fn.args.kwarg.arg):
                        via = fn.name
                    else:
                        keywords |= _keys(k.value, dicts)
                out.append((name, positional, keywords, via))
            visit(child, child if isinstance(child, ast.FunctionDef) else fn)

    visit(tree, None)
    return out


def unset_defaults() -> list[str]:
    """Each defaulted parameter or record field that no call passes a value."""
    signatures = [sig for path in sorted(PACKAGE.glob("*.py"))
                  for sig in _signatures(ast.parse(path.read_text(encoding="utf-8")))]
    calls = [call for root in SCANNED for path in sorted(root.glob("*.py"))
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")))]
    passed: dict[str, set[tuple[int, frozenset]]] = {}
    for name, positional, keywords, _ in calls:
        passed.setdefault(name, set()).add((positional, frozenset(keywords)))
    forwards = {(via, name) for name, _, _, via in calls if via is not None}
    while True:
        size = sum(map(len, passed.values()))
        for via, name in forwards:
            passed.setdefault(name, set()).update((0, k) for _, k in passed.get(via, ()))
        if sum(map(len, passed.values())) == size:
            break
    # dataclasses.replace sets fields by name, whatever record it copies
    replaced = set().union(*[k for _, k in passed.get("replace", ())])
    unset = []
    for name, label, positional, defaulted in signatures:
        for p in defaulted:
            i = positional.index(p) if p in positional else len(positional)
            if not any(n > i or p in k for n, k in passed.get(name, ())) and not (
                    label.endswith(".{}") and p in replaced):
                unset.append(label.format(p))
    return unset


def test_every_default_is_set_somewhere():
    # A default that every caller leaves alone is a constant: it belongs where it is read.
    unset = unset_defaults()
    assert [key for key in unset if key not in UNSET_DEFAULTS] == [], \
        f"defaults no call in {', '.join(p.name for p in SCANNED)} sets: {unset}"
    assert set(UNSET_DEFAULTS) <= set(unset), "an allowlisted default is set or is gone"
