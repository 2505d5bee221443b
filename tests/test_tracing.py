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


def test_traced_job_times_certification_and_scan():
    # a batched route that bypassed the patched names would leave these
    # spans empty, and the next traced benchmark blind to that layer
    from charspec import ProblemSpec, Rectangle, SecondDerivative, point_functional
    from charspec import cli

    tracing = _load_tracing()
    wentzell = tuple(point_functional(x, 2) - point_functional(x, 1) for x in (0.0, 1.0))
    spec = ProblemSpec(
        kind=SecondDerivative(), psi=wentzell, region=Rectangle(-50.0 - 1.0j, 2.0 + 1.0j)
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        result = cli.run_job(cli.JobConfig(spec=spec))
    finally:
        tracer.uninstall()
    assert result.passed and len(result.records) == 4
    spans = tracer.summary()
    for name in ("cli.certify", "rootscan.find_zeros", "rootscan.newton_refine"):
        span = spans.get(name, {"calls": 0, "total_s": 0.0})
        assert span["calls"] > 0 and span["total_s"] > 0.0, name
