import ast
import importlib
from pathlib import Path

import redwsn


def test_package_imports_and_exports_resolve():
    redwsn = importlib.import_module("redwsn")
    missing = [name for name in redwsn.__all__ if not hasattr(redwsn, name)]
    assert missing == []


def test_no_module_of_the_package_imports_enum():
    """Frame kinds, board roles and fault kinds are strings held by plain
    classes.  On CPython 3.11 loading an Enum member through its class costs
    about 183 ns against 46 ns for a plain class attribute (EnumType defines
    ``__getattr__``), and a declared bound refuses an unknown fault kind by
    name, so no module needs an Enum."""
    package = Path(redwsn.__file__).parent
    importers = [
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(alias.name == "enum" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "enum")
    ]
    assert importers == []


_SCHEDULERS = {"schedule_at"}


def per_event_closures(source: str) -> list[tuple[str, int]]:
    """(what, line) of each ``partial(...)`` call, and of each lambda or
    function defined in the caller that is passed to ``schedule_at``: a
    callable built per event, where a bound method and its arguments would
    do."""
    found = []

    def visit(node, local_defs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_defs = {
                child.name for child in ast.walk(node) if child is not node and isinstance(child, ast.FunctionDef)
            }
        for child in ast.iter_child_nodes(node):
            visit(child, local_defs)
        if not isinstance(node, ast.Call):
            return
        callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if callee == "partial":
            found.append(("partial", node.lineno))
        elif callee in _SCHEDULERS:
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    found.append(("lambda", arg.lineno))
                elif isinstance(arg, ast.Name) and arg.id in local_defs:
                    found.append((f"closure {arg.id}", arg.lineno))

    visit(ast.parse(source), set())
    return found


def test_the_closure_guard_sees_partials_lambdas_and_local_functions():
    source = (
        "from functools import partial\n"
        "class Board:\n"
        "    def __init__(self, rng):\n"
        "        self.draw = lambda: rng.normal()\n"
        "    def arm(self, sim, arm):\n"
        "        sim.schedule_at(5, self.expired, arm)\n"
        "        sim.schedule_at(5, partial(self.expired, arm))\n"
        "        sim.schedule_at(sim.now_us + 1, lambda: self.expired(arm))\n"
        "        def fire():\n"
        "            self.expired(arm)\n"
        "        self.sim.schedule_at(self.sim.now_us + 1, fire)\n"
    )
    assert per_event_closures(source) == [("partial", 7), ("lambda", 8), ("closure fire", 11)]


def test_per_event_code_schedules_bound_methods_with_their_arguments():
    """A partial or closure built per event costs an allocation and an extra
    call frame when it fires; ``Simulator.schedule_at(t, fn, *args)`` takes
    the bound method and its arguments instead."""
    package = Path(redwsn.__file__).parent
    found = {
        name: closures
        for name in ("boards.py", "gateway.py", "mac.py", "channel.py")
        if (closures := per_event_closures((package / name).read_text()))
    }
    assert found == {}


def lone_field_bounds(source: str) -> list[tuple[str, int]]:
    """(class, line) of each comparison in a ``__post_init__`` between one
    ``self.<field>`` and constants only (literals and UPPER_CASE names),
    where nothing else the check's condition reads is a field: a range
    check of one field, which belongs in its declared bound.  Each operand
    of an ``or`` is a check of its own; an enclosing ``if`` is part of the
    condition."""
    found = []

    def fields(expr) -> set[str]:
        return {
            node.attr
            for node in ast.walk(expr)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"
        }

    def constant(expr) -> bool:
        if isinstance(expr, ast.UnaryOp):
            return constant(expr.operand)
        if isinstance(expr, ast.Tuple):
            return all(map(constant, expr.elts))
        return isinstance(expr, ast.Constant) or (isinstance(expr, ast.Name) and expr.id.isupper())

    def visit(statements, cls, outer):
        for stmt in statements:
            if isinstance(stmt, ast.If):
                test = stmt.test
                checks = test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or) else [test]
                for check in checks:
                    if len(outer | fields(check)) != 1:
                        continue
                    for cmp in (node for node in ast.walk(check) if isinstance(node, ast.Compare)):
                        operands = [cmp.left, *cmp.comparators]
                        if all(constant(op) or fields(op) == {getattr(op, "attr", None)} for op in operands):
                            found.append((cls, cmp.lineno))
                visit(stmt.body, cls, outer | fields(test))
                visit(stmt.orelse, cls, outer | fields(test))
            elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                visit(stmt.body, cls, outer)

    for cls in (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                visit(fn.body, cls.name, set())
    return found


def test_the_bound_guard_sees_one_field_range_checks_only():
    source = (
        "class Config:\n"
        "    def __post_init__(self):\n"
        "        check_typed_fields(self)\n"
        "        if self.a < 0:\n"
        "            raise ValueError\n"
        "        if not -4 <= self.b <= MAX_B or self.c <= self.d:\n"
        "            raise ValueError\n"
        "        if self.e == 6 and self.f:\n"
        "            raise ValueError\n"
        "        if self.kind in (Kind.X, Kind.Y):\n"
        "            if self.g not in FIELDS:\n"
        "                raise ValueError\n"
        "        for name in NAMES:\n"
        "            if self.h <= 0 or self.i > 255:\n"
        "                raise ValueError\n"
        "        if self.j < limit:\n"
        "            raise ValueError\n"
    )
    assert lone_field_bounds(source) == [("Config", 4), ("Config", 6), ("Config", 14), ("Config", 14)]


def test_no_config_checks_the_range_of_one_field_by_hand():
    """A single-field bound is declared next to the field's type
    (``Annotated[int, Interval(6, 12)]``), where ``check_typed_fields``
    refuses a value outside it by name; ``__post_init__`` keeps only the
    checks between fields."""
    package = Path(redwsn.__file__).parent
    found = {
        path.name: lines for path in sorted(package.glob("*.py")) if (lines := lone_field_bounds(path.read_text()))
    }
    assert found == {}
