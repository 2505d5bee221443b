"""Each charspec module uses only the public names of the others.

A private name (one with a leading underscore) belongs to the module that
defines it; importing one elsewhere would make a policy of that module,
such as the size of an F batch, a policy of two.  The imports that exist
are listed below; the list may only shrink.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charspec"

ALLOWED = {
    "charfn": {".catalog: _basis_jet", ".catalog: _sqrt_jet"},
}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_private_name_is_imported_from_another_module(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    leaks = {
        f"{'.' * node.level}{node.module or ''}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "charspec")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert leaks == ALLOWED.get(module, set())


def test_the_oracle_reaches_neither_f_nor_m():
    # the oracle cross-checks the scan, so it must not build F or M: it
    # imports nothing from the module that assembles them or the scanner
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.removeprefix("charspec.") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("charspec").lstrip(".")
            internal = node.level > 0 or (node.module or "").split(".")[0] == "charspec"
            if internal:
                imported |= {module.split(".")[0]} if module else {a.name for a in node.names}
    assert "catalog" in imported and not imported & {"charfn", "rootscan"}
