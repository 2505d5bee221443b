import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from charspec import (
    BoundaryDelayHeat,
    BoundaryFunctional,
    ConvectionDiffusion,
    DelaySystem,
    FirstDerivative,
    ProblemSpec,
    QuadraticPencil,
    Rectangle,
    SecondDerivative,
    char_value,
    integral_functional,
    point_functional,
)
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


def test_roundtrip_all_kinds():
    region = Rectangle(-2.0 - 2.0j, 2.0 + 2.0j)
    specs = (
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
    for spec in specs:
        cfg = JobConfig(spec=spec, grid=(3, 3), oracle_enabled=True, seed=5)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text


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
    )
    for text in bad:
        with pytest.raises(ConfigError):
            parse_config(text)


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


def _fixed_pencil(rng, n):
    """Complex Gaussian pencil drawn like the benchmark's, with its
    companion eigenvalues (const_term first, then linear_term)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    comp = np.block([[np.zeros((n, n)), np.eye(n)], [a, p]])
    kind = QuadraticPencil(const_term=tuple(map(tuple, a)), linear_term=tuple(map(tuple, p)))
    return kind, np.linalg.eigvals(comp)


def test_fixed_pencils_refine_every_root_by_newton():
    # these draws used to send 22 roots to the bisection fallback
    # (newton_iterations == -1), leaving 2 of the 3x3 / 5x5 roots and 9 of
    # the n = 8 roots uncertified
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
        assert all(rec.newton_iterations != -1 for rec in result.records)
        assert result.passed
        assert all(rec.passed for rec in result.records)
        found = [rec.location for rec in result.records for _ in range(rec.multiplicity)]
        assert len(found) == len(eigs)
        for z in found:
            assert np.min(np.abs(eigs - z)) < 1e-7 * max(1.0, abs(z))


def test_dilated_scan_notes_the_box_and_outside_roots():
    # the grazing test dilates this heat-delay region by 1.3%, over a root
    # at Im 20.275 that lies outside the requested Im <= 20.2
    region = Rectangle(complex(-32.35, -18.08), complex(5.17, 20.2))
    spec = ProblemSpec(kind=BoundaryDelayHeat(atoms=((-1.0, 1.5112),)), region=region)
    result = run_job(JobConfig(spec=spec))
    box = result.report.region
    assert box != region and box.contains(region.lo) and box.contains(region.hi)
    outside = [r.location for r in result.records if not region.contains(r.location)]
    assert len(result.records) == 7 and len(outside) == 1
    assert abs(outside[0] - (-2.5112 + 20.2751j)) < 1e-4
    assert result.passed
    assert result.notes == (
        f"contour dilated: scanned {box.lo}..{box.hi}",
        f"root {outside[0]} lies outside the requested region",
    )


def test_run_reports_honest_failure():
    # residual tolerance far below what float evaluation can certify
    cfg = periodic_config()
    import dataclasses

    spec = dataclasses.replace(cfg.spec, residual_tol=1e-16)
    result = run_job(dataclasses.replace(cfg, spec=spec))
    assert not result.passed
    assert any(not r.passed for r in result.records)


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
    want = char_value(cfg.spec, complex(re0, im0))
    assert abs(complex(f_re, f_im) - want) < 1e-12

    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["region_count"] == 3
    assert len(doc["records"]) == 3
    assert doc["trailer"] == {"error": None}
    assert doc["config"]["problem"]["kind"] == "first_derivative"


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
        ["run", str(cfg_path), "--out", str(out), "--oracle", "on", "--grid", "128", "--seed", "7"]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["oracle"] == {"enabled": True, "grid": 128}
    assert doc["config"]["seed"] == 7
    assert all(r["oracle_dist"] is not None for r in doc["records"])


def test_main_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text("{ not json")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


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


def test_main_scan_error_exits_2_with_trailer(tmp_path, capsys):
    # a root dead on the region boundary is a scan failure, not a result
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
