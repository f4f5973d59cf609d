import ast
import importlib
from pathlib import Path

import redwsn


def test_package_imports_and_exports_resolve():
    redwsn = importlib.import_module("redwsn")
    missing = [name for name in redwsn.__all__ if not hasattr(redwsn, name)]
    assert missing == []


_ENUMS = {"FaultKind"}
# Functions that run once per board, gateway or run, not per event.
_SET_UP = {"__init__", "__post_init__"}
_SET_UP_QUALNAMES = {"Channel.add_noise"}


def enum_member_loads(source: str) -> list[tuple[str, int]]:
    """(qualified name, line) of each ``FaultKind.X`` load whose innermost
    enclosing function, or lambda, is not set-up code."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name], not isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Lambda):
                visit(child, [*scope, "<lambda>"], True)
                continue
            if (
                in_function
                and isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Load)
                and isinstance(child.value, ast.Name)
                and child.value.id in _ENUMS
            ):
                qualname = ".".join(scope)
                if scope[-1] not in _SET_UP and qualname not in _SET_UP_QUALNAMES:
                    found.append((qualname, child.lineno))
            visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_the_enum_guard_sees_loads_in_per_event_code_only():
    source = (
        "_HARD = FaultKind.HARD_FAILURE\n"
        "class Board:\n"
        "    KIND = FaultKind.SENSOR_ANOMALY\n"
        "    def __init__(self):\n"
        "        self.kind = FaultKind.SENSOR_READ_FAILURE\n"
        "        self.later = lambda: FaultKind.HARD_FAILURE\n"
        "    def on_receive(self, fault):\n"
        "        return fault.kind is FaultKind.SENSOR_ANOMALY\n"
        "def helper():\n"
        "    def inner():\n"
        "        return FaultKind.GATEWAY_FAILURE\n"
    )
    assert enum_member_loads(source) == [("Board.__init__.<lambda>", 6), ("Board.on_receive", 8), ("helper.inner", 11)]


def test_per_event_code_reads_no_enum_member_through_its_class():
    """On CPython 3.11, loading an Enum member through its class costs about
    183 ns against 46 ns for a plain class attribute: EnumType defines
    ``__getattr__``, which turns off the fast attribute path.  So the frame
    path reads no Enum member: frame kinds and board roles are plain string
    attributes of plain classes, and each board resolves what its faults'
    ``FaultKind`` means at set-up.  ``FaultKind`` stays an Enum, since the
    loader parses it from config.  From 3.12 the load is cheap, but the
    package supports 3.10 and 3.11 too."""
    package = Path(redwsn.__file__).parent
    found = {
        name: loads
        for name in ("boards.py", "gateway.py", "mac.py", "channel.py")
        if (loads := enum_member_loads((package / name).read_text()))
    }
    assert found == {}


_SCHEDULERS = {"schedule_at", "schedule_in"}


def per_event_closures(source: str) -> list[tuple[str, int]]:
    """(what, line) of each ``partial(...)`` call, and of each lambda or
    function defined in the caller that is passed to ``schedule_at`` or
    ``schedule_in``: a callable built per event, where a bound method and
    its arguments would do."""
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
        "        sim.schedule_in(1, lambda: self.expired(arm))\n"
        "        def fire():\n"
        "            self.expired(arm)\n"
        "        self.sim.schedule_in(1, fire)\n"
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
