"""Static checks of the package source.

No floating point anywhere: every quantity is an integer or an exact
fraction of integers, so the source may not divide with `/`, write a float
literal, or name `float`, `Fraction` or `Decimal`.

The strip oracle and the closed formula are two routes to the butterfly
polynomial, so `strip` imports nothing from `butterfly`.  Likewise the
geometric route (`diagrams`, `seifert`) loads none of the arithmetic it
checks, directly or through another module: its package-internal import
closure is `laurent`, `presentations` and `rationals`, which hold the
presentations and their fractions but no Conway polynomial, since those are
computed in `moth`.

`oracles` sits behind a boundary from both sides: no module of the
arithmetic path loads it, and it loads neither `butterfly` nor `moth`,
whose results it checks.

A record keeps only what something reads: every `__slots__` name is read
as an attribute somewhere in the package outside its class's `__init__`.
"""
import ast
from pathlib import Path

import equibridge

BANNED_NAMES = {"float", "Fraction", "Decimal"}


def float_uses(source: str) -> list[str]:
    """One line per use of floating point in `source`, with its line number."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{line}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{line}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            found.append(f"{line}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            found.append(f"{line}: attribute {node.attr}")
        elif isinstance(node, ast.alias) and BANNED_NAMES & {
                node.name.rsplit(".", 1)[-1], node.asname}:
            found.append(f"{line}: import of {node.name}")
    return found


def test_package_source_has_no_floating_point():
    files = sorted(Path(equibridge.__file__).parent.rglob("*.py"))
    assert len(files) >= 10 and "oracles.py" in {path.name for path in files}
    found = [f"{path.name}:{use}" for path in files
             for use in float_uses(path.read_text())]
    assert found == []


def test_float_uses_catches_each_kind():
    assert float_uses("x = 1 // 2\ny = '3/4'\nx //= 2\n") == []
    for source in ("x = 1 / 2", "x = 4\nx /= 2", "x = 0.5", "x = float(1)",
                   "import decimal\nx = decimal.Decimal(1)",
                   "from fractions import Fraction", "from x import y as Fraction"):
        assert float_uses(source), source


def imported_modules(source: str, package: str) -> set[str]:
    """Absolute names of the modules that `source`, a module of `package`,
    imports, including those it imports names from."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_strip_imports_nothing_from_butterfly():
    source = (Path(equibridge.__file__).parent / "strip.py").read_text()
    imported = imported_modules(source, "equibridge")
    assert "equibridge.presentations" in imported
    assert "equibridge.butterfly" not in imported


def import_closure(names: list[str], package: str = "equibridge") -> set[str]:
    """The modules of `package` that the named ones load, themselves
    included: every module they import, directly or through each other."""
    root = Path(equibridge.__file__).parent
    seen: set[str] = set()
    todo = list(names)
    while todo:
        path = root / f"{todo.pop()}.py"
        if path.stem in seen or not path.is_file():
            continue  # a name imported from a module, not a module
        seen.add(path.stem)
        todo += [module.removeprefix(f"{package}.") for module in
                 imported_modules(path.read_text(), package)
                 if module.startswith(f"{package}.")]
    return {f"{package}.{name}" for name in seen}


def test_geometry_imports_none_of_the_arithmetic_it_checks():
    closure = import_closure(["diagrams", "seifert"])
    assert closure == {f"equibridge.{name}" for name in
                       ("diagrams", "seifert", "laurent", "presentations", "rationals")}
    arithmetic = {f"equibridge.{name}" for name in
                  ("moth", "butterfly", "strip", "oracles")}
    assert closure & arithmetic == set()


def test_the_arithmetic_path_loads_no_oracle():
    closure = import_closure(["strip", "butterfly", "moth", "presentations",
                              "rationals", "laurent"])
    assert "equibridge.moth" in closure
    assert "equibridge.oracles" not in closure


def test_oracles_import_nothing_they_check():
    closure = import_closure(["oracles"])
    assert "equibridge.strip" in closure
    assert closure & {"equibridge.butterfly", "equibridge.moth"} == set()


def test_imported_modules_resolves_each_form():
    for source in ("from .butterfly import butterfly_polynomial",
                   "from . import butterfly", "import equibridge.butterfly",
                   "from equibridge.butterfly import axis_linking",
                   "from equibridge import butterfly as b"):
        assert "equibridge.butterfly" in imported_modules(source, "equibridge"), source
    assert "equibridge.butterfly" not in imported_modules(
        "from .laurent import lp\nimport butterfly", "equibridge")


def unread_slots(sources: dict[str, str]) -> list[str]:
    """`module.Class.name` for each `__slots__` name of a class in
    `sources`, module name to source, that no attribute read outside the
    class's `__init__` names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    found = []
    for module, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            slots = [name.value for stmt in cls.body if isinstance(stmt, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "__slots__"
                             for t in stmt.targets)
                     for name in ast.walk(stmt.value) if isinstance(name, ast.Constant)]
            in_init = {id(node) for stmt in cls.body
                       if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                       for node in ast.walk(stmt)}
            read = {node.attr for node in reads if id(node) not in in_init}
            found += [f"{module}.{cls.name}.{name}" for name in slots if name not in read]
    return found


def test_every_slot_is_read():
    root = Path(equibridge.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(root.glob("*.py"))}
    assert "diagrams" in sources and "seifert" in sources
    assert unread_slots(sources) == []


def test_unread_slots_sees_only_reads_outside_init():
    record = ("class R:\n    __slots__ = ('x', 'y')\n"
              "    def __init__(self, x, y):\n        self.x, self.y = x, y\n"
              "        print(self.y)\n")
    assert unread_slots({"m": record}) == ["m.R.x", "m.R.y"]
    assert unread_slots({"m": record + "def f(r):\n    r.y = r.x\n"}) == ["m.R.y"]
    assert unread_slots({"m": record, "n": "def g(r):\n    return r.x + r.y\n"}) == []
