"""Each charspec module uses only the public names of the others, and each
public name is used by the package.

A private name (one with a leading underscore) belongs to the module that
defines it; importing one elsewhere would make a policy of that module,
such as the size of an F batch, a policy of two.  The imports that exist
are listed below; the list may only shrink.  A public name that no source
module uses is one that only tests read, and goes, unless it states an
identity from the paper or is part of the interface; those are listed
below with their reasons.  A private module-level name, a constant or a
def, is read by some source module, or it is a leftover and goes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charspec"

ALLOWED = {
    "charfn": {".catalog: _basis_jet", ".catalog: _sqrt_jet"},
}

KEPT = {
    "point_functional": "the constructor of a point term",
    "integral_functional": "the constructor of an integral term",
    "delta_matrix": "the entry-by-entry Delta(lambda) = Phi L_lambda, acceptance 4's reference",
    "resolvent_value": "the resolvent of the perturbed generator, acceptance 10",
    "serialize_config": "the writer of the CLI's config format",
    "BlockMatrix": "the 2x2 block operator of acceptance 7",
    "schur_complement_1": "the Schur complement P - Q S^-1 R of acceptance 7",
    "schur_complement_2": "the Schur complement S - R P^-1 Q of acceptance 7",
    "block_invert": "the block inverse by Schur complements, acceptance 7",
    "transfer_inverse_qr": "(Id - QR)^-1 = Id + Q (Id - RQ)^-1 R, acceptance 8",
    "winding_count": "the argument principle alone, acceptance 12's independent recount",
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


def test_every_public_name_is_used_by_the_package():
    # a use is a name, an attribute or an import in any module but
    # ``__init__``, whose imports only re-export
    exported, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
            elif path.stem == "__init__":
                continue
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= {alias.name.rpartition(".")[2] for alias in node.names}
    assert exported - used - KEPT.keys() == set()
    assert KEPT.keys() <= exported - used


def test_every_private_module_name_is_read():
    # a read is a loaded name, an attribute or an import in any module;
    # a definition or an assignment alone is none
    defined, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            defined |= {(path.stem, name) for name in names
                        if name.startswith("_") and not name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    assert {f"{module}.{name}" for module, name in defined if name not in read} == set()
