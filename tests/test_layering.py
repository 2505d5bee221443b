"""The scanner and the CLI use only the public names of other charspec modules.

A private name (one with a leading underscore) belongs to the module that
defines it; importing one into ``rootscan`` or ``cli`` would make a policy
of that module, such as the size of an F batch, a policy of two.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charspec"


@pytest.mark.parametrize("module", ["rootscan", "cli"])
def test_no_private_name_is_imported_from_another_module(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    leaks = [
        f"{'.' * node.level}{node.module or ''}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "charspec")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert leaks == []
