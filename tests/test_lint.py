"""Static checks of the package source.

No floating point anywhere: every quantity is an integer or an exact
fraction of integers, so the source may not divide with `/`, write a float
literal, or name `float`, `Fraction` or `Decimal`.  The expanded strip,
`tests/strip_oracle.py`, is held to the same rule.

The strip oracle and the closed formula are two routes to the butterfly
polynomial, so `strip` imports nothing from `butterfly`, and the expanded
strip that the tests check `strip` against, `tests/strip_oracle.py`,
imports nothing from `butterfly`, `moth` or `oracles`.  Likewise the
geometric route (`diagrams`, `seifert`) loads none of the arithmetic it
checks, directly or through another module: its package-internal import
closure is `laurent`, `presentations` and `rationals`, which hold the
presentations and their fractions but no Conway polynomial, since those are
computed in `moth`.

`oracles` sits behind a boundary from both sides: no module of the
arithmetic path loads it, and it loads only `laurent`, so neither
`butterfly` nor `moth`, whose results it checks.

Only `cli` renders: no other package module imports the renderers
`lp_to_str` and `zp_to_str`, except `laurent`, which defines them.  The
certificates are values, and the report is written in one place.

Outside text has one integer grammar, `rationals._int_field`: no other
function calls the builtin `int`, and no option is parsed with `type=int`.

Exit codes are decided in one place, `cli.main`: no other function of `cli`
writes an `error:` line or returns 2; the commands raise instead.  `verify`
returns its own result, 1 or 3.

A record keeps only what something reads: every `__slots__` name, and
every attribute a `Frozen` record stores with `vars(self).update`, is read
as an attribute somewhere in the package outside its class's `__init__`.

Each verdict rests on two routes that share no code: the functions that
the axis-linking witness and the infinite-order certificate reach overlap
only in the presentation, its fractions, the error types and the record
helpers.
"""
import ast
from pathlib import Path

import equibridge

STRIP_ORACLE = Path(__file__).resolve().parent / "strip_oracle.py"
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
    files = sorted(Path(equibridge.__file__).parent.rglob("*.py")) + [STRIP_ORACLE]
    assert len(files) >= 11 and "oracles.py" in {path.name for path in files}
    found = [f"{path.name}:{use}" for path in files
             for use in float_uses(path.read_text())]
    assert found == []


def test_float_uses_catches_each_kind():
    assert float_uses("x = 1 // 2\ny = '3/4'\nx //= 2\n") == []
    for source in ("x = 1 / 2", "x = 4\nx /= 2", "x = 0.5", "x = float(1)",
                   "import decimal\nx = decimal.Decimal(1)",
                   "from fractions import Fraction", "from x import y as Fraction"):
        assert float_uses(source), source


def int_parses(source: str) -> list[str]:
    """One line per call of the builtin `int` outside a function named
    `_int_field`, and per `add_argument(..., type=int)`, in `source`."""
    found = []

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "int"
                    and function != "_int_field"):
                found.append(f"{node.lineno}: int() in {function}")
            if isinstance(func, ast.Attribute) and func.attr == "add_argument":
                found.extend(f"{node.lineno}: type=int" for kw in node.keywords
                             if kw.arg == "type" and isinstance(kw.value, ast.Name)
                             and kw.value.id == "int")
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(ast.parse(source), None)
    return found


def test_only_int_field_parses_an_integer():
    root = Path(equibridge.__file__).parent
    assert "def _int_field(" in (root / "rationals.py").read_text()
    found = [f"{path.name}:{use}" for path in sorted(root.glob("*.py"))
             for use in int_parses(path.read_text())]
    assert found == []


def test_int_parses_catches_each_kind():
    allowed = ("def _int_field(t):\n    return int(t)\n"
               "x = isinstance(1, int)\np.add_argument('--n', type=str)\n")
    assert int_parses(allowed) == []
    assert int_parses("def f(t):\n    return int(t)\n") == ["2: int() in f"]
    assert int_parses("x = int('1')") == ["1: int() in None"]
    assert int_parses("p.add_argument('--n', type=int, default=1)") == ["1: type=int"]


def exit_decisions(source: str) -> list[str]:
    """One line per `return 2` and per string that starts with `error:`
    in a top-level function of `source` other than `main`, or in a function
    nested in one."""
    found = []
    for function in ast.parse(source).body:
        if not isinstance(function, ast.FunctionDef) or function.name == "main":
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                    and node.value.value == 2):
                found.append((node.lineno, f"return 2 in {function.name}"))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("error:")):
                found.append((node.lineno, f"error line in {function.name}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_only_cli_main_decides_an_exit_code():
    source = (Path(equibridge.__file__).parent / "cli.py").read_text()
    assert "def main(" in source and "def cmd_verify(" in source
    assert exit_decisions(source) == []


def test_exit_decisions_catches_each_kind():
    allowed = ("def main():\n    print('error: x')\n    return 2\n"
               "def cmd_verify():\n    return 3 if x else 1\n"
               "def f():\n    raise DomainError('--n must be at least 1')\n")
    assert exit_decisions(allowed) == []
    assert exit_decisions("def f():\n    print(f'error: {x}')\n    return 2\n") == [
        "2: error line in f", "3: return 2 in f"]
    assert exit_decisions("def f():\n    def g():\n        return 2\n") == [
        "3: return 2 in f"]
    assert exit_decisions("def f():\n    sys.stderr.write('error: x')\n") == [
        "2: error line in f"]


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


RENDERERS = {"equibridge.laurent.lp_to_str", "equibridge.laurent.zp_to_str"}


def test_only_cli_imports_a_renderer():
    files = sorted(Path(equibridge.__file__).parent.glob("*.py"))
    assert {"cli", "moth", "butterfly"} <= {path.stem for path in files}
    importers = {path.stem for path in files
                 if RENDERERS & imported_modules(path.read_text(), "equibridge")}
    assert importers - {"laurent"} == {"cli"}


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
    assert import_closure(["oracles"]) == {"equibridge.oracles", "equibridge.laurent"}


def test_the_expanded_strip_imports_nothing_it_checks():
    imported = imported_modules(STRIP_ORACLE.read_text(), "equibridge")
    closure = import_closure([module.removeprefix("equibridge.") for module in imported])
    assert "equibridge.strip" in closure
    assert closure & {f"equibridge.{name}" for name in
                      ("butterfly", "moth", "oracles")} == set()


def test_imported_modules_resolves_each_form():
    for source in ("from .butterfly import butterfly_polynomial",
                   "from . import butterfly", "import equibridge.butterfly",
                   "from equibridge.butterfly import axis_linking",
                   "from equibridge import butterfly as b"):
        assert "equibridge.butterfly" in imported_modules(source, "equibridge"), source
    assert "equibridge.butterfly" not in imported_modules(
        "from .laurent import lp\nimport butterfly", "equibridge")


def stored_names(cls: ast.ClassDef) -> list[str]:
    """The `__slots__` names of `cls` and the keywords of its
    `vars(self).update(...)` calls, the attributes a `Frozen` record stores."""
    slots = [name.value for stmt in cls.body if isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__"
                     for t in stmt.targets)
             for name in ast.walk(stmt.value) if isinstance(name, ast.Constant)]
    updates = [kw.arg for node in ast.walk(cls) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "update"
               and isinstance(node.func.value, ast.Call)
               and isinstance(node.func.value.func, ast.Name)
               and node.func.value.func.id == "vars"
               for kw in node.keywords]
    return slots + updates


def unread_slots(sources: dict[str, str]) -> list[str]:
    """`module.Class.name` for each stored name (`stored_names`) of a class
    in `sources`, module name to source, that no attribute read outside the
    class's `__init__` names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    found = []
    for module, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            in_init = {id(node) for stmt in cls.body
                       if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                       for node in ast.walk(stmt)}
            read = {node.attr for node in reads if id(node) not in in_init}
            found += [f"{module}.{cls.name}.{name}" for name in stored_names(cls)
                      if name not in read]
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


def test_unread_slots_sees_frozen_record_attributes():
    record = ("class F(Frozen):\n    _fields = ('x',)\n"
              "    def __init__(self, x):\n        y = x % 2\n"
              "        vars(self).update(x=x, y=y)\n        print(self.y)\n")
    assert unread_slots({"m": record}) == ["m.F.x", "m.F.y"]
    assert unread_slots({"m": record, "n": "def g(f):\n    return f.x\n"}) == ["m.F.y"]


def _code(node: ast.AST):
    """The nodes under `node`, annotations left out."""
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield child
                    yield from _code(child)


def call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """`module.function`, `module.Class` and `module.Class.method` of
    `sources`, module name to source, each to what it may call.

    The graph over-approximates, so two routes it shows apart are apart: a
    name reaches the function or class it is bound to, by a definition or
    a package import; `module.f` reaches f of a package module imported
    whole; any other attribute `x.f` reaches every method named f; and a
    class reaches its dunder methods, its package bases and its decorators.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    methods: dict[str, set[str]] = {}
    for module, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                methods.setdefault(fn.name, set()).add(f"{module}.{cls.name}.{fn.name}")
    graph: dict[str, set[str]] = {}
    for module, tree in trees.items():
        bound = {node.name: f"{module}.{node.name}" for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        whole = {}
        # an import inside a function binds its names for the whole module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    else:
                        whole[alias.asname or alias.name] = alias.name

        def calls(nodes) -> set[str]:
            found = set()
            for node in nodes:
                if isinstance(node, ast.Name) and node.id in bound:
                    found.add(bound[node.id])
                elif isinstance(node, ast.Attribute):
                    base = node.value
                    if isinstance(base, ast.Name) and base.id in whole:
                        found.add(f"{whole[base.id]}.{node.attr}")
                    else:
                        found |= methods.get(node.attr, set())
            return found

        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                graph[f"{module}.{node.name}"] = calls(_code(node))
            elif isinstance(node, ast.ClassDef):
                name = f"{module}.{node.name}"
                graph[name] = calls(node.bases + node.decorator_list)
                for fn in (n for n in node.body if isinstance(n, ast.FunctionDef)):
                    graph[f"{name}.{fn.name}"] = calls(_code(fn))
                    if fn.name.startswith("__"):
                        graph[name].add(f"{name}.{fn.name}")
    return graph


def reach(graph: dict[str, set[str]], root: str) -> set[str]:
    """The nodes of `graph` that `root` reaches, itself included."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in graph and name not in seen:
            seen.add(name)
            todo += graph[name]
    return seen


# What both verdicts may share: the presentation and its fractions, the
# error types, and the helpers that give records their value semantics.
SHARED = ("presentations.I1Presentation", "presentations.ParseError",
          "rationals.eval_cf", "rationals.Frac", "laurent.DomainError",
          "laurent.InvariantViolation", "laurent.Frozen", "laurent.typed_equality",
          "laurent._same_type_eq", "laurent._same_type_ne")


def test_the_two_verdicts_share_only_the_presentation():
    root = Path(equibridge.__file__).parent
    graph = call_graph({path.stem: path.read_text() for path in sorted(root.glob("*.py"))})
    witness = reach(graph, "butterfly.equivariant_slice_obstruction")
    order = reach(graph, "moth.order_certificate")
    assert {"butterfly.axis_linking", "butterfly.reduce_if_b_zero"} <= witness
    assert {"moth.conway_in_w", "moth.certified_moth", "rationals.eval_cf"} <= order
    shared = witness & order
    assert "presentations.I1Presentation.n" in shared
    assert [name for name in sorted(shared) if not any(
        name == allowed or name.startswith(f"{allowed}.") for allowed in SHARED)] == []


def test_call_graph_follows_names_attributes_classes_and_modules():
    sources = {
        "a": ("from .b import Rec\nfrom . import c\n"
              "def f(x: Rec) -> Rec:\n    from .b import helper\n"
              "    return helper(x).size + c.g()\n"),
        "b": ("@deco\nclass Rec(Base):\n    def __init__(self):\n        pass\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    def unused(self):\n        return helper(0)\n"
              "class Base:\n    pass\n"
              "def helper(x):\n    return Rec()\n"
              "def deco(cls):\n    return cls\n"),
        "c": "def g():\n    return 0\ndef h():\n    return 0\n",
    }
    assert reach(call_graph(sources), "a.f") == {
        "a.f", "b.helper", "b.Rec", "b.Rec.__init__", "b.Rec.size", "b.Base",
        "b.deco", "c.g"}
