import importlib


def test_package_imports_and_exports_resolve():
    redwsn = importlib.import_module("redwsn")
    missing = [name for name in redwsn.__all__ if not hasattr(redwsn, name)]
    assert missing == []
