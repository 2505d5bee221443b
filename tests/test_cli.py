import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import charspec
from charspec import (
    BoundaryDelayHeat,
    BoundaryFunctional,
    CharFunction,
    ConvectionDiffusion,
    DelaySystem,
    FirstDerivative,
    ProblemSpec,
    QuadraticPencil,
    Rectangle,
    RootRecord,
    SecondDerivative,
    char_matrix,
    eigen_residual,
    eigenfunction,
    integral_functional,
    is_dirichlet,
    kernel_vectors,
    point_functional,
)
from charspec import cli as cli_module
from charspec import rootscan
from charspec.cli import (
    CSV_HEADER,
    GRID_HEADER,
    JobConfig,
    emit_report,
    main,
    parse_config,
    run_job,
    serialize_config,
)
from charspec.errors import ConfigError

# child interpreters import charspec from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}

PERIODIC_JOB = """
{
  "problem": {
    "kind": "first_derivative",
    "psi": [[{"point": 0.0}, {"point": 1.0, "weight": -1}]],
    "region": {"re": [-1, 1], "im": [-7, 7]},
    "root_tol": 1e-10
  },
  "outputs": {"spectrum": true, "grid": [5, 7]},
  "seed": 0
}
"""


def periodic_config(**kw):
    cfg = parse_config(PERIODIC_JOB)
    if kw:
        import dataclasses

        cfg = dataclasses.replace(cfg, **kw)
    return cfg


# -- config parsing -----------------------------------------------------------


def test_parse_periodic_job():
    cfg = periodic_config()
    assert isinstance(cfg.spec.kind, FirstDerivative)
    assert cfg.spec.region == Rectangle(-1.0 - 7.0j, 1.0 + 7.0j)
    assert cfg.spec.root_tol == 1e-10
    assert cfg.grid == (5, 7)
    assert not cfg.oracle_enabled
    assert cfg.out_format == "csv"
    psi = cfg.spec.psi[0]
    assert [(t.location, t.order, t.weight) for t in psi.points] == [
        (0.0, 0, 1.0 + 0j),
        (1.0, 0, -1.0 + 0j),
    ]


def test_parse_leaves_every_default_to_the_dataclasses():
    # with no options and no tolerances, the config is the spec alone
    cfg = parse_config(
        """{"problem": {"kind": "first_derivative",
            "psi": [[{"point": 0.0}, {"point": 1.0, "weight": -1}]],
            "region": {"re": [-1, 1], "im": [-7, 7]}}}"""
    )
    psi = point_functional(0.0) - point_functional(1.0)
    region = Rectangle(-1.0 - 7.0j, 1.0 + 7.0j)
    assert cfg == JobConfig(spec=ProblemSpec(FirstDerivative(), (psi,), region))


def all_kind_specs(region):
    """One spec of every kind, boundary-space sizes 1 and 2, on ``region``."""
    return (
        ProblemSpec(
            kind=FirstDerivative(),
            psi=(point_functional(0.0) - point_functional(1.0),),
            region=region,
        ),
        ProblemSpec(
            kind=SecondDerivative(),
            psi=(
                point_functional(0.0, 2) - point_functional(0.0, 1),
                integral_functional(weight=2.0 + 1.0j, kernel="exp", rate=0.5)
                + point_functional(1.0, 1),
            ),
            region=region,
        ),
        ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=-1.0), region=region),
        ProblemSpec(
            kind=BoundaryDelayHeat(atoms=((-1.0, 1.0), (-0.5, 0.5j))), region=region
        ),
        ProblemSpec(
            kind=DelaySystem(
                instant=((0.0, 1.0), (-1.0, -0.5)),
                delays=((0.7, ((0.2, 0.0), (0.1, -0.3))),),
            ),
            region=region,
        ),
        ProblemSpec(
            kind=QuadraticPencil(
                const_term=((0.0, 1.0), (1.0, 0.0)),
                linear_term=((0.5, 0.0), (0.0, -0.5)),
            ),
            region=region,
        ),
    )


def test_roundtrip_all_kinds():
    for spec in all_kind_specs(Rectangle(-2.0 - 2.0j, 2.0 + 2.0j)):
        cfg = JobConfig(spec=spec, grid=(3, 3), oracle_enabled=True)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text


def test_parse_ignores_a_seed():
    # perfbench and older configs carry "seed": 0; nothing reads it
    doc = json.loads(PERIODIC_JOB)
    assert doc.pop("seed") == 0
    cfg = parse_config(PERIODIC_JOB)
    assert cfg == parse_config(json.dumps(doc))
    assert "seed" not in json.loads(serialize_config(cfg))


def test_parse_refuses_an_unknown_key():
    # a misspelt key would otherwise be dropped silently: a misspelt weight
    # left at 1 solves f(0) + f(1) = 0, a misspelt c leaves c = 0
    region = {"re": [0, 1], "im": [0, 1]}
    point = [{"point": 0.0}, {"point": 1.0, "wieght": -0.5}]
    both = [{"point": 0.0}, {"point": 1.0, "integral": "const"}]
    integral = [{"point": 0.0}, {"integral": "exp", "weight": 1, "rat": 2}]
    cases = {
        "problem: unknown key 'root_tl'": {"root_tl": 1e-9},
        "problem.region: unknown key 'ree'": {"region": dict(region, ree=[0, 1])},
        "problem.parameters: unknown key 'cc'": {
            "kind": "convection_diffusion", "parameters": {"cc": 3.0}, "psi": []},
        "problem.psi[0][1]: unknown key 'wieght'": {"psi": [point]},
        "problem.psi[0][1]: unknown key 'integral'": {"psi": [both]},
        "problem.psi[0][1]: unknown key 'rat'": {"psi": [integral]},
        "outputs: unknown key 'gird'": {"outputs": {"gird": [5, 7]}},
        "oracle: unknown key 'enable'": {"oracle": {"enable": True}},
    }
    for message, change in cases.items():
        doc = json.loads(PERIODIC_JOB)
        for key in ("outputs", "oracle"):
            if key in change:
                doc[key] = change.pop(key)
        doc["problem"].update(change)
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value) == message


def test_parse_default_atoms():
    # atoms may be omitted; the kind's own default applies
    cfg = parse_config(
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1], "im": [0, 1]}}}'
    )
    assert cfg.spec.kind == BoundaryDelayHeat()


def test_parse_rejects_malformed():
    bad = (
        "also not json {",
        "[1, 2, 3]",
        '{"problem": {"kind": "first_derivative"}}',
        '{"problem": {"kind": "unheard_of", "region": {"re": [0, 1], "im": [0, 1]}}}',
        # psi term without a point or integral key
        """{"problem": {"kind": "first_derivative",
            "psi": [[{"weight": 1}]],
            "region": {"re": [0, 1], "im": [0, 1]}}}""",
        # psi count wrong for the kind
        """{"problem": {"kind": "second_derivative", "psi": [[{"point": 0}]],
            "region": {"re": [0, 1], "im": [0, 1]}}}""",
        # degenerate region
        '{"problem": {"kind": "boundary_delay_heat", "parameters": {"atoms": [[-1, 1]]}, "region": {"re": [1, 1], "im": [0, 1]}}}',
        # grid too small
        """{"problem": {"kind": "boundary_delay_heat", "parameters": {"atoms": [[-1, 1]]},
            "region": {"re": [0, 1], "im": [0, 1]}},
            "outputs": {"grid": [1, 9]}}""",
        # unknown format
        """{"problem": {"kind": "boundary_delay_heat", "parameters": {"atoms": [[-1, 1]]},
            "region": {"re": [0, 1], "im": [0, 1]}}, "format": "xml"}""",
        # non-finite numbers: region corners, psi weights, delays, matrix
        # entries, tolerances (and a tolerance that is no number)
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [-1, Infinity], "im": [0, 1]}}}',
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [NaN, 1], "im": [0, 1]}}}',
        """{"problem": {"kind": "first_derivative",
            "psi": [[{"point": 0}, {"point": 1, "weight": NaN}]],
            "region": {"re": [0, 1], "im": [0, 1]}}}""",
        """{"problem": {"kind": "first_derivative",
            "psi": [[{"point": 0}, {"point": 1, "weight": [-1, -Infinity]}]],
            "region": {"re": [0, 1], "im": [0, 1]}}}""",
        """{"problem": {"kind": "delay_system",
            "parameters": {"instant": [[-1]], "delays": [[NaN, [[-1]]]]},
            "region": {"re": [0, 1], "im": [0, 1]}}}""",
        """{"problem": {"kind": "delay_system",
            "parameters": {"instant": [[-1]], "delays": [[Infinity, [[-1]]]]},
            "region": {"re": [0, 1], "im": [0, 1]}}}""",
        """{"problem": {"kind": "delay_system",
            "parameters": {"instant": [[Infinity]]},
            "region": {"re": [0, 1], "im": [0, 1]}}}""",
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1], "im": [0, 1]}, "root_tol": Infinity}}',
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1], "im": [0, 1]}, "residual_tol": NaN}}',
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1], "im": [0, 1]}, "root_tol": "tiny"}}',
        # integers past the float range
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1%s], "im": [0, 1]}}}'
        % ("0" * 400),
        """{"problem": {"kind": "first_derivative",
            "psi": [[{"point": 0}, {"point": 1%s}]],
            "region": {"re": [0, 1], "im": [0, 1]}}}""" % ("0" * 400),
        """{"problem": {"kind": "delay_system",
            "parameters": {"instant": [[-1]], "delays": [[1%s, [[-1]]]]},
            "region": {"re": [0, 1], "im": [0, 1]}}}""" % ("0" * 400),
    )
    # job options take JSON booleans and integers, never coerced look-alikes
    job = '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1], "im": [0, 1]}}, %s}'
    bad += tuple(
        job % option
        for option in (
            '"outputs": {"spectrum": "false"}',
            '"outputs": {"spectrum": 0}',
            '"oracle": {"enabled": "no"}',
            '"oracle": {"enabled": 1}',
            '"oracle": {"grid": 256.0}',
            '"oracle": {"grid": true}',
            # the oracle's half grid needs at least 64 points
            '"oracle": {"grid": 64}',
            '"outputs": {"grid": [5.7, 6]}',
            '"outputs": {"grid": [5, false]}',
            '"outputs": {"grid": [5, 6, 7]}',
            '"outputs": {"grid": "5x6"}',
            # config sections of the wrong JSON type
            '"outputs": []',
            '"oracle": 3',
        )
    )
    # numbers are JSON numbers and a derivative order a JSON integer, never
    # a string or a boolean standing in for one
    term = """{"problem": {"kind": "first_derivative",
        "psi": [[{"point": 0}, {%s}]], "region": {"re": [0, 1], "im": [0, 1]}}}"""
    bad += tuple(
        term % field
        for field in (
            '"point": 1, "order": 1.5',
            '"point": 1, "order": true',
            '"point": 1, "order": "1"',
            '"point": "0.5"',
            '"point": true',
            '"point": 1, "weight": true',
            '"point": 1, "weight": ["-1", "0"]',
        )
    )
    bad += (
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": ["-1", 1], "im": [0, 1]}}}',
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1], "im": [0, 1]}, "root_tol": "1e-9"}}',
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1], "im": [0, 1]}, "root_tol": true}}',
        '{"problem": 3}',
        '{"problem": {"kind": ["first_derivative"], "region": {"re": [0, 1], "im": [0, 1]}}}',
        '{"problem": {"kind": "convection_diffusion", "parameters": [1], "region": {"re": [0, 1], "im": [0, 1]}}}',
        '{"problem": {"kind": "first_derivative", "psi": 5, "region": {"re": [0, 1], "im": [0, 1]}}}',
        '{"problem": {"kind": "first_derivative", "psi": [5], "region": {"re": [0, 1], "im": [0, 1]}}}',
        # region bounds are [lo, hi] pairs, with no entry dropped
        '{"problem": {"kind": "boundary_delay_heat", "region": {"re": [0, 1, 99], "im": [0, 1]}}}',
    )
    # kind parameters, each read by its field's reader, keep their messages
    params = '{"problem": {"kind": "%s", "parameters": {%s}, "region": {"re": [0, 1], "im": [0, 1]}}}'
    kind_params = {
        ("quadratic_pencil", '"const_term": [[1]]'):
            "bad parameters for kind 'quadratic_pencil': 'linear_term'",
        ("delay_system", '"instant": [[-1]], "delays": [[1]]'):
            "bad parameters for kind 'delay_system': not enough values to unpack (expected 2, got 1)",
        ("boundary_delay_heat", '"atoms": 3'):
            "bad parameters for kind 'boundary_delay_heat': 'int' object is not iterable",
        ("boundary_delay_heat", '"atoms": [[-2, 1]]'):
            "bad parameters for kind 'boundary_delay_heat': delay position -2.0 outside [-1, 0]",
        ("convection_diffusion", '"c": "x"'):
            "problem.parameters.c: expected a finite number or [re, im] pair, got 'x'",
        ("delay_system", '"instant": [[1, 2]]'):
            "bad parameters for kind 'delay_system': "
            "expected a square coefficient matrix, got shape (1, 2)",
        ("delay_system", '"instant": [[-1]], "delays": [[1, [[1, 0], [0, 1]]]]'):
            "bad parameters for kind 'delay_system': "
            "delay coefficient size differs from instant term",
    }
    for (kind, given), message in kind_params.items():
        with pytest.raises(ConfigError) as info:
            parse_config(params % (kind, given))
        assert str(info.value) == message
    psi_messages = []
    for text in bad:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        if "problem.psi" in str(info.value):
            psi_messages.append(str(info.value))
    # a psi term's message names its location once, with no re-wrapped prefix
    assert len(psi_messages) == 13
    for message in psi_messages:
        assert message.count("problem.psi") == 1, message


def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "re,im,multiplicity,abs_F,newton_iters,ode_residual,bc_residual,"
        "oracle_re,oracle_im,oracle_dist"
    )
    assert GRID_HEADER == "re,im,F_re,F_im"


# -- running jobs -------------------------------------------------------------


def test_run_periodic_job():
    result = run_job(periodic_config())
    assert result.passed
    assert len(result.records) == 3
    assert result.report.region_count == 3
    for r in result.records:
        assert r.multiplicity == 1
        assert r.ode_residual <= result.config.spec.residual_tol
        assert r.bc_residual <= result.config.spec.residual_tol
        assert r.oracle is None and r.oracle_dist is None
    locs = sorted((r.location for r in result.records), key=lambda z: z.imag)
    assert abs(locs[0] + 2j * math.pi) < 1e-9
    assert abs(locs[1]) < 1e-9
    assert abs(locs[2] - 2j * math.pi) < 1e-9


def test_run_with_oracle():
    result = run_job(periodic_config(oracle_enabled=True, oracle_grid=256))
    assert result.passed
    for r in result.records:
        assert r.oracle is not None
        assert r.oracle_dist < 1e-2


def test_run_identically_zero():
    spec = ProblemSpec(
        kind=FirstDerivative(),
        psi=(BoundaryFunctional(),),
        region=Rectangle(-1.0 - 7.0j, 1.0 + 7.0j),
    )
    result = run_job(JobConfig(spec=spec))
    assert result.passed
    assert result.records == ()
    assert result.report.identically_zero
    assert any("identically zero" in n for n in result.notes)


def test_run_small_nonzero_f_is_not_identically_zero():
    # lambda^2 + 1e-14 is below 1e-13 all over a region 4e-7 across, yet
    # it is no zero function: its roots are +-1e-7 i
    spec = ProblemSpec(
        kind=QuadraticPencil(const_term=((-1e-14,),), linear_term=((0.0,),)),
        region=Rectangle(-2e-7 - 2e-7j, 2e-7 + 2e-7j),
        root_tol=1e-19,
    )
    result = run_job(JobConfig(spec=spec))
    assert not result.report.identically_zero
    assert result.passed and [r.multiplicity for r in result.records] == [1, 1]
    for r, z in zip(sorted(result.records, key=lambda r: r.location.imag), (-1e-7j, 1e-7j)):
        assert abs(r.location - z) <= 1e-18


def test_run_oracle_skip_note():
    spec = ProblemSpec(
        kind=BoundaryDelayHeat(), region=Rectangle(-3.0 - 3.0j, 3.0 + 3.0j)
    )
    result = run_job(JobConfig(spec=spec, oracle_enabled=True))
    assert result.passed
    assert any("oracle skipped" in n for n in result.notes)
    assert all(r.oracle is None for r in result.records)
    assert len(result.records) == 2  # the conjugate pair nearest the origin


def test_run_pencil_companion_oracle():
    spec = ProblemSpec(
        kind=QuadraticPencil(
            const_term=((0.0, 1.0), (1.0, 0.0)), linear_term=((0.0, 0.0), (0.0, 0.0))
        ),
        region=Rectangle(-2.0 - 2.0j, 2.0 + 2.0j),
    )
    result = run_job(JobConfig(spec=spec, oracle_enabled=True))
    assert result.passed
    assert len(result.records) == 4  # lam^4 = 1
    for r in result.records:
        assert r.oracle_dist < 1e-9


def test_pencil_oracle_bounds_the_match(monkeypatch):
    # a pencil has no coarse grid to measure an order from, so its roots
    # must lie within the floor 1e4 * root_tol of a companion eigenvalue,
    # which the oracle takes in the scan's dilated window
    kind, _ = _fixed_pencil(np.random.default_rng(0), 3)
    spec = ProblemSpec(kind=kind, region=Rectangle(-6.0 - 6.0j, 6.0 + 6.0j))
    cfg = JobConfig(spec=spec, oracle_enabled=True)
    windows = []
    dense = cli_module.dense_eigenvalues

    def shifted(matrix, window=None):
        windows.append(window)
        return [v + shift for v in dense(matrix, window=window)]

    monkeypatch.setattr(cli_module, "dense_eigenvalues", shifted)
    shift = 0.0
    result = run_job(cfg)
    assert windows == [spec.region.dilated(1.05)]
    assert result.passed and len(result.records) == 6
    assert all(r.oracle_dist <= 1e4 * spec.root_tol for r in result.records)
    shift = 0.5
    result = run_job(cfg)
    assert not result.passed
    assert not any(r.passed for r in result.records)
    assert sum("oracle mismatch" in n for n in result.notes) == 6


def test_difference_oracle_fails_a_displaced_root(monkeypatch):
    # each root moved by 1e-3 * max(1, |z|) is far outside the difference
    # oracle's own error estimate, |lam_N - lam_{N/2}| / 3 at grid N, so
    # every record gets an oracle mismatch note
    scan = cli_module.find_zeros

    def displaced(*args, **kw):
        report = scan(*args, **kw)
        moved = tuple(
            dataclasses.replace(r, location=r.location + 1e-3 * max(1.0, abs(r.location)))
            for r in report.roots
        )
        return dataclasses.replace(report, roots=moved)

    monkeypatch.setattr(cli_module, "find_zeros", displaced)
    dirichlet = ProblemSpec(kind=SecondDerivative(),
                            psi=(point_functional(0.0), point_functional(1.0)),
                            region=Rectangle(-50.0 - 1.0j, -1.0 + 1.0j))
    for cfg, n_roots in ((periodic_config(), 3), (JobConfig(spec=dirichlet), 2)):
        result = run_job(dataclasses.replace(cfg, oracle_enabled=True, oracle_grid=256))
        assert len(result.records) == n_roots
        mismatched = [n for n in result.notes if n.startswith("oracle mismatch at ")]
        assert len(mismatched) == len(result.records)
        assert not any(r.passed for r in result.records)


def test_oracle_without_a_nearby_eigenvalue_fails_each_record(monkeypatch):
    # lam^2 = 1 has two roots; an oracle that finds no eigenvalue leaves
    # each record without a match, failed, with a note naming its root
    spec = ProblemSpec(kind=QuadraticPencil(const_term=((1.0,),), linear_term=((0.0,),)),
                       region=Rectangle(-2.0 - 2.0j, 2.0 + 2.0j))
    monkeypatch.setattr(cli_module, "dense_eigenvalues", lambda matrix, window=None: [])
    result = run_job(JobConfig(spec=spec, oracle_enabled=True))
    assert not result.passed and len(result.records) == 2
    for r in result.records:
        assert not r.passed and r.oracle is None and r.oracle_dist is None
    assert result.notes == tuple(
        f"oracle produced no eigenvalue near {r.location}" for r in result.records)


def _fixed_pencil(rng, n):
    """Complex Gaussian pencil drawn like the benchmark's, with its
    companion eigenvalues (const_term first, then linear_term)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    comp = np.block([[np.zeros((n, n)), np.eye(n)], [a, p]])
    kind = QuadraticPencil(const_term=tuple(map(tuple, a)), linear_term=tuple(map(tuple, p)))
    return kind, np.linalg.eigvals(comp)


def test_fixed_pencils_refine_every_root_by_newton():
    # these draws used to send 22 roots to a bisection fallback that took
    # no Newton step, leaving 2 of the 3x3 / 5x5 roots and 9 of the n = 8
    # roots uncertified
    cases = []
    for seed, n in [((0, i), 3) for i in range(9)] + [(0, 5)]:
        kind, eigs = _fixed_pencil(np.random.default_rng(seed), n)
        region = Rectangle(
            complex(eigs.real.min() - 1.5, eigs.imag.min() - 1.5),
            complex(eigs.real.max() + 1.5, eigs.imag.max() + 1.5),
        )
        cases.append((kind, eigs, region))
    kind, eigs = _fixed_pencil(np.random.default_rng(0), 8)
    r = float(np.abs(eigs).max()) + 1.0
    cases.append((kind, eigs, Rectangle(complex(-r, -r), complex(r, r))))
    for kind, eigs, region in cases:
        result = run_job(JobConfig(spec=ProblemSpec(kind=kind, region=region)))
        assert all(rec.newton_iterations >= 1 for rec in result.records)
        assert result.passed
        assert all(rec.passed for rec in result.records)
        found = [rec.location for rec in result.records for _ in range(rec.multiplicity)]
        assert len(found) == len(eigs)
        for z in found:
            assert np.min(np.abs(eigs - z)) < 1e-7 * max(1.0, abs(z))


def test_dilated_scan_notes_the_box_and_outside_roots():
    # the roots +-2 pi i lie 1e-9 outside the top and bottom edges, so the
    # region's count fails and the region is dilated by 1.3%, over both
    top = 2.0 * math.pi - 1e-9
    region = Rectangle(complex(-1.0, -top), complex(1.0, top))
    spec = dataclasses.replace(periodic_config().spec, region=region)
    result = run_job(JobConfig(spec=spec))
    box = result.report.region
    assert box != region and box.contains(region.lo) and box.contains(region.hi)
    outside = [r.location for r in result.records if not region.contains(r.location)]
    assert len(result.records) == 3 and len(outside) == 2
    below, above = sorted(outside, key=lambda z: z.imag)
    for z, want in ((below, -2j * math.pi), (above, 2j * math.pi)):
        assert abs(z - want) < 1e-9
    assert result.passed
    assert result.notes == (
        f"contour dilated: scanned {box.lo}..{box.hi}",
        *(f"root {z} lies outside the requested region" for z in outside),
    )


def test_run_reports_honest_failure():
    # residual tolerance far below what float evaluation can certify
    cfg = periodic_config()
    import dataclasses

    spec = dataclasses.replace(cfg.spec, residual_tol=1e-16)
    result = run_job(dataclasses.replace(cfg, spec=spec))
    assert not result.passed
    assert any(not r.passed for r in result.records)


# -- chunked certification ----------------------------------------------------


def _periodic_spec(height):
    return ProblemSpec(
        kind=FirstDerivative(),
        psi=(point_functional(0.0) - point_functional(1.0),),
        region=Rectangle(-1.0 - height * 1j, 1.0 + height * 1j),
    )


def _certified_specs():
    """One spec per certificate route, each with several roots in a chunk."""
    wentzell = tuple(
        point_functional(x, 2) - point_functional(x, 1) for x in (0.0, 1.0)
    )
    rng = np.random.default_rng(7)
    a, p = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    return {
        "first_derivative": ProblemSpec(
            kind=FirstDerivative(),
            psi=(point_functional(0.0) - point_functional(1.0),),
            region=Rectangle(-1.0 - 14.0j, 1.0 + 14.0j),
        ),
        # 2 pi i k for |k| <= 31: samples of 65 to 1,025 points, one jet per size
        "first_derivative_fast": _periodic_spec(200.0),
        "wentzell": ProblemSpec(
            kind=SecondDerivative(), psi=wentzell, region=Rectangle(-110.0 - 1.0j, 2.0 + 1.0j)
        ),
        "convection_builtin": ProblemSpec(
            kind=ConvectionDiffusion(c=0.5, k=-0.5), region=Rectangle(-20.0 - 10.0j, 5.0 + 10.0j)
        ),
        "convection_psi": ProblemSpec(
            kind=ConvectionDiffusion(c=0.5, k=-0.5),
            psi=(point_functional(0.0) - 0.2 * point_functional(1.0),),
            region=Rectangle(-60.0 - 1.0j, 5.0 + 1.0j),
        ),
        "heat_delay": ProblemSpec(
            kind=BoundaryDelayHeat(atoms=((-1.0, 1.0),)),
            region=Rectangle(-30.0 - 20.0j, 5.0 + 20.0j),
        ),
        "integral": ProblemSpec(
            kind=FirstDerivative(),
            psi=(point_functional(0.0) - integral_functional(2.0, "exp", 0.5),),
            region=Rectangle(-3.0 - 20.0j, 3.0 + 20.0j),
        ),
        "delay_system": ProblemSpec(
            kind=DelaySystem(instant=((0.0,),), delays=((1.0, ((-math.pi / 2,),)),)),
            region=Rectangle(-6.0 - 30.0j, 2.0 + 30.0j),
        ),
        "pencil": ProblemSpec(
            kind=QuadraticPencil(const_term=tuple(map(tuple, a)), linear_term=tuple(map(tuple, p))),
            region=Rectangle(-6.0 - 6.0j, 6.0 + 6.0j),
        ),
    }


@pytest.mark.parametrize("name", list(_certified_specs()))
def test_chunked_certificate_matches_each_root_alone(name):
    spec = _certified_specs()[name]
    result = run_job(JobConfig(spec=spec))
    assert len(result.records) >= 3 and result.passed
    for r in result.records:
        lam = r.location
        vec = kernel_vectors(spec, lam)[0]
        if is_dirichlet(spec.kind):
            alone = eigen_residual(
                spec.kind, char_matrix(spec, lam), lam, eigenfunction(spec, lam, vec)
            )
            assert (r.ode_residual, r.bc_residual) == alone
        else:
            mat = char_matrix(spec, lam)
            alone = float(np.max(np.abs(mat @ vec)))
            bound = 1e-12 * max(1.0, float(np.linalg.norm(mat)))
            assert abs(r.ode_residual - alone) <= bound and r.bc_residual == 0.0


def test_certification_applies_no_functional(monkeypatch):
    # the boundary residual is M x on the chunk's own M: no functional is
    # applied to a curve, and none is integrated by quadrature
    specs = {name: s for name, s in _certified_specs().items() if is_dirichlet(s.kind)}
    want = {name: run_job(JobConfig(spec=s)).records for name, s in specs.items()}

    def forbidden(*args):
        raise AssertionError("a functional applied on the production path")

    for module in (charspec.catalog, charspec.charfn, charspec.oracle):
        monkeypatch.setattr(module, "apply_functional", forbidden)
    monkeypatch.setattr(charspec.catalog, "_adaptive_quadrature", forbidden)
    for name, spec in specs.items():
        result = run_job(JobConfig(spec=spec))
        assert result.passed and result.records == want[name], name


def test_transport_roots_far_up_the_axis_certify():
    # at Im 580..640 the integral term's Gauss-Legendre quadrature does not
    # settle within 256 nodes; the certificate takes it from M's closed form
    spec = ProblemSpec(
        kind=FirstDerivative(),
        psi=(point_functional(0.0) - integral_functional(2.0, "exp", 0.5),),
        region=Rectangle(3.0 + 580.0j, 8.0 + 640.0j),
    )
    result = run_job(JobConfig(spec=spec))
    assert len(result.records) == 9 and result.passed
    assert all(r.multiplicity == 1 for r in result.records)
    assert not any("certification failed" in note for note in result.notes)


def test_chunks_of_roots_certify_as_roots_one_at_a_time(monkeypatch):
    # 2 pi i k for |k| <= 8: samples of 65, 129 and 257 points, one jet each;
    # a budget of one sample leaves one root per jet
    spec = _periodic_spec(52.0)
    chunked = run_job(JobConfig(spec=spec))
    assert len(chunked.records) == 17
    monkeypatch.setattr(charspec.charfn, "_RESIDUAL_SAMPLES", 1)
    single = run_job(JobConfig(spec=spec))
    assert chunked.records == single.records and chunked.notes == single.notes


def test_a_jet_holds_at_most_the_sample_budget(monkeypatch):
    # 2 pi i k for |k| <= 31 take samples of 65 to 1,025 points; under a
    # budget of 600 a jet holds up to 4 roots of 129 points, and one of 1,025
    spec = _periodic_spec(200.0)
    want = run_job(JobConfig(spec=spec)).records
    jet = charspec.charfn._basis_jet
    sizes = []

    def recorded(kind, lam, s, dlam):
        sizes.append((np.size(lam), np.size(s)))
        return jet(kind, lam, s, dlam)

    monkeypatch.setattr(charspec.charfn, "_basis_jet", recorded)
    monkeypatch.setattr(charspec.charfn, "_RESIDUAL_SAMPLES", 600)
    assert run_job(JobConfig(spec=spec)).records == want
    assert sum(rows for rows, _ in sizes) == len(want) == 63
    assert {n for _, n in sizes} == {65, 129, 257, 513, 1025}
    assert all(rows * n <= max(600, n) for rows, n in sizes)
    assert (4, 129) in sizes and (1, 1025) in sizes


def test_a_root_past_the_sample_cap_fails_alone(monkeypatch):
    # with samples capped at 128 intervals, the roots 2 pi i k with |k| >= 6
    # need 256: each fails its own record with a note naming it, and the
    # other eleven certify as without the cap
    spec = _periodic_spec(52.0)
    want = run_job(JobConfig(spec=spec))
    monkeypatch.setattr(charspec.charfn, "_RESIDUAL_MAX_STEPS", 128)
    capped = run_job(JobConfig(spec=spec))

    def k(r):
        return round(abs(r.location.imag) / (2 * math.pi))

    failed = [r for r in capped.records if not r.passed]
    assert sorted(map(k, failed)) == [6, 6, 7, 7, 8, 8]
    assert all(math.isinf(r.ode_residual) and math.isinf(r.bc_residual) for r in failed)
    for r in failed:
        (note,) = [n for n in capped.notes if str(r.location) in n]
        assert "certification failed" in note and "cannot resolve" in note
    kept = [r for r in capped.records if r.passed]
    assert kept == [r for r in want.records if k(r) < 6]


def test_a_non_root_fails_only_its_own_record(monkeypatch, tmp_path):
    # 2 pi i k for |k| <= 8, and one non-root after them: a stack that
    # raises is certified by halves, so the non-root costs one stack per
    # halving level, not a certification of every root alone
    cfg = periodic_config(grid=None)
    cfg = dataclasses.replace(
        cfg, spec=dataclasses.replace(cfg.spec, region=Rectangle(-1.0 - 52.0j, 1.0 + 52.0j))
    )
    honest = run_job(cfg)
    assert len(honest.records) == 17
    stranger = RootRecord(
        location=0.5 + 3.0j, multiplicity=1, char_residual=1.0, newton_iterations=1,
        leaf_scale=1.0,
    )
    scan = cli_module.find_zeros

    def with_a_stranger(f, rect, **kw):
        report = scan(f, rect, **kw)
        return dataclasses.replace(
            report, roots=report.roots + (stranger,), region_count=report.region_count + 1
        )

    stacks = []
    real_kernels = cli_module.kernel_vectors

    def counted(spec, lams, mats):
        stacks.append(len(lams))
        return real_kernels(spec, lams, mats)

    monkeypatch.setattr(cli_module, "find_zeros", with_a_stranger)
    monkeypatch.setattr(cli_module, "kernel_vectors", counted)
    result = run_job(cfg)
    assert stacks[0] == 18 and len(stacks) <= 1 + 2 * math.ceil(math.log2(18))
    *kept, failed = result.records
    assert tuple(kept) == honest.records and all(r.passed for r in kept)
    assert not failed.passed and failed.ode_residual == failed.bc_residual == math.inf
    assert result.notes == (f"certification failed at {stranger.location}: "
                            f"every singular value of M({stranger.location}) exceeds "
                            f"1.0e-08 * max(1, the largest)",)
    # the report is strict JSON: the failed residuals are null, empty in the CSV
    emit_report(result, tmp_path)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
    [record] = [r for r in doc["records"] if not r["passed"]]
    assert record["ode_residual"] is record["bc_residual"] is None
    header, *rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    [row] = [dict(zip(header.split(","), row.split(","))) for row in rows
             if float(row.split(",")[0]) == stranger.location.real]
    assert row["ode_residual"] == row["bc_residual"] == ""


# -- report files -------------------------------------------------------------


def test_emit_report_files(tmp_path):
    cfg = periodic_config()
    result = run_job(cfg)
    written = emit_report(result, tmp_path)
    names = {p.name for p in written}
    assert names == {"spectrum.csv", "fgrid.csv", "report.json"}

    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    # rows sorted by imaginary part: -2pi, 0, +2pi
    ims = [float(line.split(",")[1]) for line in lines[1:]]
    assert ims == sorted(ims)

    grid = (tmp_path / "fgrid.csv").read_text().splitlines()
    assert grid[0] == GRID_HEADER
    assert len(grid) == 1 + 5 * 7
    re0, im0, f_re, f_im = (float(x) for x in grid[1].split(","))
    assert (re0, im0) == (-1.0, -7.0)
    want = CharFunction(cfg.spec).value(complex(re0, im0))
    assert abs(complex(f_re, f_im) - want) < 1e-12

    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["region_count"] == 3
    assert len(doc["records"]) == 3
    assert doc["trailer"] == {"error": None}
    assert doc["config"]["problem"]["kind"] == "first_derivative"


def test_each_csv_row_is_its_json_record(tmp_path):
    # spectrum.csv rows are the report.json records read in CSV_HEADER's
    # order, the oracle pair split in two: once with oracle matches, once without
    for name, cfg in (("plain", periodic_config()),
                      ("oracle", periodic_config(oracle_enabled=True, oracle_grid=128))):
        emit_report(run_job(cfg), tmp_path / name)
        header, *rows = (tmp_path / name / "spectrum.csv").read_text().splitlines()
        records = json.loads((tmp_path / name / "report.json").read_text())["records"]
        assert len(rows) == len(records) == 3
        assert all((r["oracle"] is not None) == cfg.oracle_enabled for r in records)
        for row, record in zip(rows, records):
            record["oracle_re"], record["oracle_im"] = record.pop("oracle") or (None, None)
            assert row.split(",") == [
                "" if record[key] is None else format(float(record[key]), ".17g")
                for key in header.split(",")
            ]


def test_grid_and_config_match_their_reference_forms():
    # the grid takes values on blocks of whole rows (the whole 6x6 grid in
    # one call), and the report embeds the config document: fgrid rows equal
    # those of one values call per grid row, and the embedded config is what
    # serialize_config writes, both byte for byte
    rng = np.random.default_rng(4)
    pencils = tuple(
        ProblemSpec(
            kind=QuadraticPencil(
                const_term=tuple(map(tuple, rng.standard_normal((m, m)) * (1 + 1j))),
                linear_term=tuple(map(tuple, rng.standard_normal((m, m)))),
            ),
            region=Rectangle(-2.5 - 1.5j, 2.0 + 3.0j),
        )
        for m in (3, 4)
    )
    for spec in all_kind_specs(Rectangle(-3.0 - 2.5j, 2.0 + 4.0j)) + pencils:
        for grid in ((6, 6), (2, 3), (700, 2)):
            cfg = JobConfig(spec=spec, grid=grid)
            fn = CharFunction(spec)
            n_re, n_im = grid
            res = np.linspace(spec.region.lo.real, spec.region.hi.real, n_re)
            want = []
            for im in np.linspace(spec.region.lo.imag, spec.region.hi.imag, n_im):
                for re, v in zip(res, fn.values(res + 1j * im)):
                    want.append(
                        ",".join(format(float(x), ".17g") for x in (re, im, v.real, v.imag))
                    )
            assert cli_module._grid_rows(cfg) == want
        doc = cli_module._config_doc(cfg)
        text = json.dumps(doc, sort_keys=True, indent=2)
        assert text == json.dumps(json.loads(serialize_config(cfg)), sort_keys=True, indent=2)


def test_reports_are_byte_identical(tmp_path):
    cfg = periodic_config()
    for d in ("a", "b"):
        emit_report(run_job(cfg), tmp_path / d)
    for name in ("spectrum.csv", "fgrid.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# -- entry point --------------------------------------------------------------


def test_main_runs_and_prints_csv(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(PERIODIC_JOB)
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert (tmp_path / "out" / "report.json").exists()


def test_main_structured_summary(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(PERIODIC_JOB)
    code = main(
        ["run", str(cfg_path), "--out", str(tmp_path / "out"), "--format", "structured"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"passed": True, "region_count": 3, "roots": 3}


def test_main_overrides_land_in_report(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(PERIODIC_JOB)
    out = tmp_path / "out"
    code = main(
        ["run", str(cfg_path), "--out", str(out), "--oracle", "on", "--grid", "128"]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["oracle"] == {"enabled": True, "grid": 128}
    assert all(r["oracle_dist"] is not None for r in doc["records"])


def test_main_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text("{ not json")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]) == 2
    # JSON is UTF-8: other bytes are a config error too, reported before any scan
    cfg_path.write_bytes(b"\xff\xfe{")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 3 and not (tmp_path / "out").exists()
    # that message names the file, as a missing file's does
    assert f"error: {cfg_path} is not UTF-8: " in err.splitlines()[-1]
    # a section of the wrong JSON type is a config error too, not a crash
    doc = json.loads(PERIODIC_JOB)
    doc["outputs"] = []
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


def test_main_refuses_an_output_directory_before_scanning(tmp_path, capsys, monkeypatch):
    # a file, or a path beneath one, cannot hold the reports: a config
    # error (exit 2) found before the scan, not a traceback after it
    scans = []
    monkeypatch.setattr(cli_module, "find_zeros", lambda *a, **kw: scans.append(a))
    cfg_path, afile = tmp_path / "job.json", tmp_path / "afile"
    cfg_path.write_text(PERIODIC_JOB)
    afile.write_text("")
    for out in (afile, afile / "sub"):
        assert main(["run", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert scans == []


def test_job_config_needs_a_spec_with_a_region():
    # a JobConfig built in Python without a region, or without a spec at all,
    # is a config error, not an AttributeError inside the scan
    cfg = periodic_config()
    psi = point_functional(0.0) - point_functional(1.0)
    for spec in (ProblemSpec(kind=FirstDerivative(), psi=(psi,)), "nonsense", None):
        for build in (lambda: JobConfig(spec=spec), lambda: dataclasses.replace(cfg, spec=spec)):
            with pytest.raises(ConfigError, match="problem.region"):
                build()


def test_main_rejects_a_small_oracle_grid_before_scanning(tmp_path, capsys, monkeypatch):
    # at a grid under 128 the oracle's half grid is under fd_discretize's
    # 64 points: a config or --grid giving one is a config error, raised
    # before the scan starts
    scans = []
    real = cli_module.find_zeros

    def recording(*args, **kw):
        scans.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(cli_module, "find_zeros", recording)
    doc = json.loads(PERIODIC_JOB)
    cfg_path, out = tmp_path / "job.json", str(tmp_path / "out")
    doc["oracle"] = {"enabled": True, "grid": 64}
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", str(cfg_path), "--out", out]) == 2
    assert "oracle.grid" in capsys.readouterr().err
    doc["oracle"]["grid"] = 128
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", str(cfg_path), "--out", out, "--grid", "64"]) == 2
    assert "oracle.grid" in capsys.readouterr().err
    # a JobConfig built or replaced in Python checks the same types and
    # ranges, and takes only a pair as its grid
    cfg = periodic_config()
    for option, where in (
        ({"oracle_grid": 64}, "oracle.grid"),
        ({"oracle_grid": 512.5, "oracle_enabled": True}, "oracle.grid"),
        ({"oracle_grid": "512"}, "oracle.grid"),
        ({"oracle_grid": True}, "oracle.grid"),
        ({"oracle_enabled": "off"}, "oracle.enabled"),
        ({"spectrum": 1}, "outputs.spectrum"),
        ({"grid": (1, 5)}, "outputs.grid"),
        ({"grid": ()}, "outputs.grid"),
        ({"grid": (3, 3, 3)}, "outputs.grid"),
        ({"out_format": "xml"}, "format"),
    ):
        for build in (lambda: JobConfig(cfg.spec, **option),
                      lambda: dataclasses.replace(cfg, **option)):
            with pytest.raises(ConfigError, match=where):
                run_job(build())
    assert scans == []
    assert main(["run", str(cfg_path), "--out", out]) == 0
    assert len(scans) == 1


def test_an_odd_oracle_half_grid_is_refused_before_scanning(tmp_path, capsys, monkeypatch):
    # Simpson's rule takes an integral term on the oracle's grid and on its
    # half grid, so with the oracle on the grid must be a multiple of 4:
    # 130 halves to 65 subintervals, refused before the scan and before
    # any output is written
    scans = []
    real = cli_module.find_zeros

    def recording(*args, **kw):
        scans.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(cli_module, "find_zeros", recording)
    doc = json.loads(PERIODIC_JOB)
    doc["problem"]["psi"] = [[{"point": 0.0}, {"integral": "exp", "weight": -2, "rate": 0.5}]]
    doc["problem"]["region"] = {"re": [-3, 3], "im": [-20, 20]}
    doc["oracle"] = {"enabled": True, "grid": 130}
    cfg_path, out = tmp_path / "job.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: oracle.grid: integral terms need a multiple of 4, got 130\n"
    )
    cfg = dataclasses.replace(parse_config(json.dumps(doc | {"oracle": {}})), oracle_enabled=True)
    assert cfg.oracle_grid == 512
    cfg_path.write_text(serialize_config(cfg))
    assert main(["run", str(cfg_path), "--out", str(out), "--grid", "134"]) == 2
    assert "error: oracle.grid: " in capsys.readouterr().err
    for grid in (129, 130, 254):
        with pytest.raises(ConfigError, match="oracle.grid"):
            dataclasses.replace(cfg, oracle_grid=grid)
    assert scans == [] and not out.exists()
    # with the oracle off, or without an integral term, any grid of 128 or more will do
    assert dataclasses.replace(cfg, oracle_enabled=False, oracle_grid=130).oracle_grid == 130
    assert periodic_config(oracle_enabled=True, oracle_grid=130).oracle_grid == 130
    assert main(["run", str(cfg_path), "--out", str(out), "--grid", "132"]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert len(scans) == 1 and report["config"]["oracle"]["grid"] == 132
    assert len(report["records"]) == 5
    assert all(r["oracle_dist"] is not None for r in report["records"])


def test_an_override_is_checked_with_the_file_once(tmp_path, capsys, monkeypatch):
    # --grid replaces the file's oracle grid before JobConfig checks it, so
    # an override mends a file that fails alone, and a bad override over a
    # good file fails as the file would, before the scan and any output
    scans = []
    real = cli_module.find_zeros

    def recording(*args, **kw):
        scans.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(cli_module, "find_zeros", recording)
    integral = json.loads(PERIODIC_JOB)
    integral["problem"]["psi"] = [
        [{"point": 0.0}, {"integral": "exp", "weight": -2, "rate": 0.5}]
    ]
    integral["problem"]["region"] = {"re": [-3, 3], "im": [-20, 20]}
    periodic = json.loads(PERIODIC_JOB)
    cfg_path = tmp_path / "job.json"
    for doc, grid, override in ((integral, 130, 132), (periodic, 64, 128)):
        doc["oracle"] = {"enabled": True, "grid": grid}
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="oracle.grid"):
            parse_config(cfg_path.read_text())
        assert parse_config(cfg_path.read_text(), oracle_grid=override).oracle_grid == override
        out = tmp_path / f"out{grid}"
        assert main(["run", str(cfg_path), "--out", str(out), "--grid", str(override)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["oracle"] == {"enabled": True, "grid": override}
        assert report["records"] and all(r["oracle_dist"] is not None for r in report["records"])
    assert len(scans) == 2
    integral["oracle"]["grid"] = 132
    cfg_path.write_text(json.dumps(integral))
    out = tmp_path / "bad"
    assert main(["run", str(cfg_path), "--out", str(out), "--grid", "130"]) == 2
    assert capsys.readouterr().err == (
        "error: oracle.grid: integral terms need a multiple of 4, got 130\n"
    )
    assert len(scans) == 2 and not out.exists()


def test_main_failed_certification_exits_1(tmp_path, capsys):
    doc = json.loads(PERIODIC_JOB)
    doc["problem"]["residual_tol"] = 1e-16
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


def test_main_scan_error_exits_2_with_trailer(tmp_path, capsys, monkeypatch):
    # a root dead on the region boundary fails the count; with no dilation
    # to retry on, that is a scan failure, not a result
    monkeypatch.setattr(rootscan, "_DILATIONS", ())
    doc = json.loads(PERIODIC_JOB)
    doc["problem"]["region"] = {"re": [0, 1], "im": [-1, 1]}
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out", str(out)])
    assert code == 2
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["records"] == []
    assert "QuadratureFailureError" in report["trailer"]["error"]


def test_main_oracle_error_exits_2_with_trailer(tmp_path, capsys, monkeypatch):
    # an ARPACK failure in the difference oracle is a typed error, not a crash
    def failing(*a, **kw):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", failing)
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(PERIODIC_JOB)
    out = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out", str(out), "--oracle", "on", "--grid", "128"])
    assert code == 2
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["records"] == []
    assert report["trailer"]["error"].startswith("ConvergenceError: sparse eigensolve in")
    assert "at k = 8" in report["trailer"]["error"]


def test_module_entry_point(tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(PERIODIC_JOB)
    proc = subprocess.run(
        [sys.executable, "-m", "charspec.cli", "run", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER)


# a fresh interpreter runs the configs given after the output directory
# through parse_config, run_job and emit_report, then prints whether each
# passed and how many records it has, and every scipy module it loaded
_COLD_RUN = """
import json, sys
from charspec.cli import emit_report, parse_config, run_job
out, *texts = sys.argv[1:]
runs = []
for i, text in enumerate(texts):
    result = run_job(parse_config(text))
    emit_report(result, f"{out}/{i}")
    runs.append([result.passed, len(result.records)])
print(json.dumps([runs, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _cold_run(tmp_path, *configs):
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, str(tmp_path), *map(serialize_config, configs)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cold_jobs_leave_out_scipy(tmp_path):
    # scipy.linalg alone is over half of a cold start; F, F', kernels and
    # certificates run on numpy, so only an LU, a solve or the oracle loads it
    kind, _ = _fixed_pencil(np.random.default_rng((0, 1)), 3)
    pencil = JobConfig(spec=ProblemSpec(kind=kind, region=Rectangle(-6.0 - 6.0j, 6.0 + 6.0j)))
    runs, scipy_modules = _cold_run(tmp_path / "plain", periodic_config(), pencil)
    assert runs == [[True, 3], [True, 6]]
    assert scipy_modules == []
    oracle = periodic_config(oracle_enabled=True, oracle_grid=128)
    runs, scipy_modules = _cold_run(tmp_path / "oracle", oracle)
    assert runs == [[True, 3]]
    assert "scipy.sparse.linalg" in scipy_modules


def test_every_exported_name_resolves():
    # a name deleted from a module but left in an __all__ list would only
    # show up on a star import
    modules = [charspec] + [
        importlib.import_module(f"charspec.{info.name}")
        for info in pkgutil.iter_modules(charspec.__path__)
        if info.name != "__main__"
    ]
    for mod in modules:
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], mod.__name__


def test_package_entry_point_runs_without_warnings():
    # running the cli module through -m after the package import has
    # already loaded it draws a RuntimeWarning from runpy; the package's
    # own __main__ must not
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "charspec", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: charspec")
    assert "RuntimeWarning" not in proc.stderr
