import ast
from pathlib import Path

import pfgr

SRC = Path(__file__).resolve().parents[1] / "src" / "pfgr"


def test_star_import_exports_every_public_name():
    """Every name in pfgr.__all__ is an attribute of the package, so a name
    dropped from a module but left in the list fails here."""
    namespace = {}
    exec("from pfgr import *", namespace)
    assert [name for name in pfgr.__all__ if not hasattr(pfgr, name)] == []
    assert set(pfgr.__all__) <= set(namespace)


def test_sources_parse_at_the_python_floor():
    """pyproject.toml declares requires-python >= 3.10: every module parses
    with the 3.10 grammar."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
