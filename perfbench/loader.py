"""Import the simulator package, with an in-memory fix for one known
import failure.

On Python >= 3.11 ``dataclasses`` rejects an unhashable dataclass instance
as a field default.  ``redwsn.boards.SecondaryConfig`` is a plain
``@dataclass`` used as the default of the frozen ``ScenarioConfig``, so
``import redwsn`` raises exactly ``ValueError: mutable default <class
'redwsn.boards.SecondaryConfig'> ...``.  Only on that error the loader
re-imports the package with the one-line fix (``@dataclass(frozen=True)``
on ``SecondaryConfig``) applied to the source text of ``redwsn.boards``.
Once the package carries the fix itself, the plain import succeeds and the
shim does nothing.  Any other import error propagates.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from types import ModuleType

PACKAGE = "redwsn"
SHIM_ERROR = "mutable default <class 'redwsn.boards.SecondaryConfig'>"
UNFROZEN = "@dataclass\nclass SecondaryConfig:"
FROZEN = "@dataclass(frozen=True)\nclass SecondaryConfig:"


def _forget_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def load(src_dir: str) -> tuple[ModuleType, bool]:
    """Import the package from ``src_dir``; returns (package, shim_applied)."""
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    try:
        return importlib.import_module(PACKAGE), False
    except ValueError as exc:
        if not str(exc).startswith(SHIM_ERROR):
            raise
    _forget_package()
    try:
        return _import_with_frozen_secondary(), True
    except BaseException:
        _forget_package()
        raise


def _import_with_frozen_secondary() -> ModuleType:
    # Execute the patched boards module first and register it, so that the
    # package's own ``from .boards import ...`` picks it up unchanged.
    pkg_spec = importlib.util.find_spec(PACKAGE)
    package = importlib.util.module_from_spec(pkg_spec)
    sys.modules[PACKAGE] = package
    boards_spec = importlib.util.find_spec(PACKAGE + ".boards")
    source = boards_spec.loader.get_source(boards_spec.name)
    if source.count(UNFROZEN) != 1:
        raise ImportError("cannot locate the SecondaryConfig declaration to freeze")
    boards = importlib.util.module_from_spec(boards_spec)
    sys.modules[boards_spec.name] = boards
    code = compile(source.replace(UNFROZEN, FROZEN), boards_spec.origin, "exec")
    exec(code, boards.__dict__)
    package.boards = boards
    pkg_spec.loader.exec_module(package)
    return package
