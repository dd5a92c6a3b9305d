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

PACKAGE = Path(newswarn.__file__).parent

# Test oracles kept in the package beside the code they check.
ORACLES = {
    ("panel", "lasso_kkt_residual"):
        "criterion 4 and TestLasso measure lasso_cd's optimality with it",
    ("tsstats", "difference_until_stationary"):
        "criterion 2's per-series differencing procedure for Granger power and size",
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
    ("AdfResult", "lag"): "the ADF oracle comparison checks the AIC lag order",
    ("AdfResult", "level"): "the ADF oracle comparison checks the level a decision used",
    ("GrangerResult", "x_diff_order"): "screening tests check the order a feature was tested at",
    ("PredictionRow", "fold"): "CV tests check each prediction follows its fold's training",
    ("EmbeddingTable", "dim"): "the embedding tests check the dimension the header declares",
    ("TransportPlan", "flows"): "the WMD tests check the plan's uniform marginals",
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
    """
    fields, loads = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fields += [(cls.name, stmt.target.id) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and _is_record(cls)
                   for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        loads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [(cls, name) for cls, name in fields
            if cls not in READ_BY_NAME and name not in loads]


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
