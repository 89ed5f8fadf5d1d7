"""Checks on the package source itself."""
import ast
import pathlib

import heegner_circles

SRC = pathlib.Path(heegner_circles.__file__).resolve().parents[1]


def test_no_assert_statements():
    # every check in the package raises IdentityError or ValueError, so it
    # still runs under python -O, where an assert statement is compiled away
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
