"""The benchmark's tracer must find every binding it patches.

perfbench/tracing.py wraps charspec's entry points by name; a refactor
that moves or renames one would otherwise only fail the next traced
benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_binding():
    tracing = _load_tracing()

    def binding(owner_path, attr):
        owner = tracing._resolve(owner_path)
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    points = [(owner, attr) for _, owner, attr in tracing.PATCH_POINTS]
    originals = {p: binding(*p) for p in points}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for p in points:
            assert binding(*p).__wrapped__ is originals[p], p
    finally:
        tracer.uninstall()
    for p in points:
        assert binding(*p) is originals[p], p
