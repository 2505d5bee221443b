"""Batch front end: config files in, spectrum reports out.

A job config is canonical JSON (nested key-value sections).  ``run_job``
scans the requested region, certifies every root (characteristic residual,
eigenfunction defects, optional discretization oracle) and hands a record
table to ``emit_report``, which writes the CSV spectrum table, an optional
F-sample lattice, and a structured twin of the whole report.  Exit status
is 0 exactly when every requested certification passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import (
    BoundaryDelayHeat,
    BoundaryFunctional,
    ConvectionDiffusion,
    DelaySystem,
    FirstDerivative,
    IntegralTerm,
    PointTerm,
    QuadraticPencil,
    SecondDerivative,
    is_dirichlet,
)
from .charfn import (
    ProblemSpec,
    build_char_function,
    char_matrix,
    effective_psi,
    eigenfunction,
    kernel_vectors,
)
from .errors import CharspecError, ConfigError, NotARootError
from .oracle import dense_eigenvalues, eigen_residual, fd_discretize
from .rootscan import Rectangle, find_zeros

__all__ = [
    "JobConfig",
    "SpectrumRecord",
    "JobResult",
    "parse_config",
    "serialize_config",
    "run_job",
    "emit_report",
    "main",
]

CSV_HEADER = "re,im,multiplicity,abs_F,newton_iters,ode_residual,bc_residual,oracle_re,oracle_im,oracle_dist"
GRID_HEADER = "re,im,F_re,F_im"

_KIND_NAMES = {
    "first_derivative": FirstDerivative,
    "second_derivative": SecondDerivative,
    "convection_diffusion": ConvectionDiffusion,
    "boundary_delay_heat": BoundaryDelayHeat,
    "delay_system": DelaySystem,
    "quadratic_pencil": QuadraticPencil,
}


@dataclass(frozen=True)
class JobConfig:
    """One batch job: problem spec, output selection, oracle toggle, seed."""

    spec: ProblemSpec
    spectrum: bool = True
    grid: tuple | None = None
    oracle_enabled: bool = False
    oracle_grid: int = 512
    seed: int = 0
    out_format: str = "csv"


def _complex_in(value, where):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _complex_out(z):
    z = complex(z)
    return [z.real, z.imag]


def _matrix_in(value, where):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a matrix as a list of rows")
    return tuple(
        tuple(_complex_in(x, where) for x in row) for row in value
    )


def _matrix_out(rows):
    return [[_complex_out(x) for x in row] for row in rows]


def _functional_in(terms, where):
    points, integrals = [], []
    for i, term in enumerate(terms):
        spot = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ConfigError(f"{spot}: expected an object")
        try:
            if "point" in term:
                points.append(
                    PointTerm(
                        location=float(term["point"]),
                        order=int(term.get("order", 0)),
                        weight=_complex_in(term.get("weight", 1), spot),
                    )
                )
            elif "integral" in term:
                integrals.append(
                    IntegralTerm(
                        weight=_complex_in(term.get("weight", 1), spot),
                        kernel=str(term["integral"]),
                        rate=_complex_in(term.get("rate", 0), spot),
                    )
                )
            else:
                raise ConfigError(f"{spot}: term needs a 'point' or 'integral' key")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{spot}: {exc}") from exc
    return BoundaryFunctional(points=tuple(points), integrals=tuple(integrals))


def _functional_out(psi):
    out = []
    for t in psi.points:
        out.append({"point": t.location, "order": t.order, "weight": _complex_out(t.weight)})
    for t in psi.integrals:
        term = {"integral": t.kernel, "weight": _complex_out(t.weight)}
        if t.kernel == "exp":
            term["rate"] = _complex_out(t.rate)
        out.append(term)
    return out


def _kind_in(name, params):
    try:
        cls = _KIND_NAMES[name]
    except KeyError:
        raise ConfigError(f"unknown problem kind {name!r}") from None
    try:
        if cls is FirstDerivative or cls is SecondDerivative:
            return cls()
        if cls is ConvectionDiffusion:
            return cls(
                c=_complex_in(params.get("c", 0), "problem.parameters.c"),
                k=_complex_in(params.get("k", 0), "problem.parameters.k"),
            )
        if cls is BoundaryDelayHeat:
            if "atoms" not in params:
                return cls()
            atoms = tuple(
                (float(r), _complex_in(w, "problem.parameters.atoms"))
                for r, w in params["atoms"]
            )
            return cls(atoms=atoms)
        if cls is DelaySystem:
            return cls(
                instant=_matrix_in(params["instant"], "problem.parameters.instant"),
                delays=tuple(
                    (float(tau), _matrix_in(mat, "problem.parameters.delays"))
                    for tau, mat in params.get("delays", [])
                ),
            )
        return cls(
            const_term=_matrix_in(params["const_term"], "problem.parameters.const_term"),
            linear_term=_matrix_in(params["linear_term"], "problem.parameters.linear_term"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad parameters for kind {name!r}: {exc}") from exc


def _kind_out(kind):
    if isinstance(kind, FirstDerivative):
        return "first_derivative", {}
    if isinstance(kind, SecondDerivative):
        return "second_derivative", {}
    if isinstance(kind, ConvectionDiffusion):
        return "convection_diffusion", {"c": _complex_out(kind.c), "k": _complex_out(kind.k)}
    if isinstance(kind, BoundaryDelayHeat):
        return "boundary_delay_heat", {
            "atoms": [[r, _complex_out(w)] for r, w in kind.atoms]
        }
    if isinstance(kind, DelaySystem):
        return "delay_system", {
            "instant": _matrix_out(kind.instant),
            "delays": [[tau, _matrix_out(mat)] for tau, mat in kind.delays],
        }
    return "quadratic_pencil", {
        "const_term": _matrix_out(kind.const_term),
        "linear_term": _matrix_out(kind.linear_term),
    }


def parse_config(text):
    """Parse a JSON job config into a validated JobConfig."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "problem" not in data:
        raise ConfigError("config must be an object with a 'problem' section")
    prob = data["problem"]
    try:
        region_spec = prob["region"]
        region = Rectangle(
            complex(float(region_spec["re"][0]), float(region_spec["im"][0])),
            complex(float(region_spec["re"][1]), float(region_spec["im"][1])),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"problem.region must give re/im bounds: {exc}") from exc
    kind = _kind_in(prob.get("kind"), prob.get("parameters", {}))
    psi = tuple(
        _functional_in(terms, f"problem.psi[{i}]")
        for i, terms in enumerate(prob.get("psi", []))
    )
    try:
        spec = ProblemSpec(
            kind=kind,
            psi=psi,
            region=region,
            root_tol=float(prob.get("root_tol", 1e-10)),
            residual_tol=float(prob.get("residual_tol", 1e-7)),
        )
    except CharspecError as exc:
        raise ConfigError(f"invalid problem spec: {exc}") from exc
    outputs = data.get("outputs", {})
    grid = outputs.get("grid")
    if grid is not None:
        try:
            grid = (int(grid[0]), int(grid[1]))
        except (TypeError, IndexError, ValueError) as exc:
            raise ConfigError("outputs.grid must be [n_re, n_im]") from exc
        if grid[0] < 2 or grid[1] < 2:
            raise ConfigError("outputs.grid must be at least 2x2")
    oracle = data.get("oracle", {})
    fmt = data.get("format", "csv")
    if fmt not in ("csv", "structured"):
        raise ConfigError(f"format must be 'csv' or 'structured', got {fmt!r}")
    try:
        return JobConfig(
            spec=spec,
            spectrum=bool(outputs.get("spectrum", True)),
            grid=grid,
            oracle_enabled=bool(oracle.get("enabled", False)),
            oracle_grid=int(oracle.get("grid", 512)),
            seed=int(data.get("seed", 0)),
            out_format=fmt,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid job options: {exc}") from exc


def serialize_config(cfg):
    """Canonical JSON for a JobConfig; parse(serialize(cfg)) == cfg."""
    kind_name, params = _kind_out(cfg.spec.kind)
    doc = {
        "problem": {
            "kind": kind_name,
            "parameters": params,
            "psi": [_functional_out(p) for p in cfg.spec.psi],
            "region": {
                "re": [cfg.spec.region.lo.real, cfg.spec.region.hi.real],
                "im": [cfg.spec.region.lo.imag, cfg.spec.region.hi.imag],
            },
            "root_tol": cfg.spec.root_tol,
            "residual_tol": cfg.spec.residual_tol,
        },
        "outputs": {
            "spectrum": cfg.spectrum,
            "grid": list(cfg.grid) if cfg.grid else None,
        },
        "oracle": {"enabled": cfg.oracle_enabled, "grid": cfg.oracle_grid},
        "seed": cfg.seed,
        "format": cfg.out_format,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class SpectrumRecord:
    """One certified root: location, multiplicity, residuals, oracle match."""

    location: complex
    multiplicity: int
    abs_f: float
    newton_iterations: int
    ode_residual: float
    bc_residual: float
    oracle: complex | None
    oracle_dist: float | None
    passed: bool


@dataclass(frozen=True)
class JobResult:
    config: JobConfig
    report: object
    records: tuple
    notes: tuple
    passed: bool


def _certify_root(spec, record):
    """Eigen-defects for one root of the characteristic function."""
    lam = record.location
    vecs = kernel_vectors(spec, lam)
    if is_dirichlet(spec.kind):
        combo = eigenfunction(spec, lam, vecs[0])
        return eigen_residual(spec.kind, effective_psi(spec, lam), lam, combo)
    mat = char_matrix(spec, lam)
    defect = float(np.max(np.abs(mat @ vecs[0])))
    return defect, 0.0


def _oracle_eigenvalues(cfg, notes):
    """Reference eigenvalues at two grid resolutions, or None if unsupported."""
    spec = cfg.spec
    kind = spec.kind
    region = spec.region
    if isinstance(kind, QuadraticPencil):
        n = kind.dim
        eye = np.eye(n)
        comp = np.block(
            [
                [np.zeros((n, n)), eye],
                [np.array(kind.const_term), np.array(kind.linear_term)],
            ]
        )
        return dense_eigenvalues(comp, window=region), None
    fd_ok = isinstance(kind, (FirstDerivative, SecondDerivative)) or (
        isinstance(kind, ConvectionDiffusion) and spec.psi
    )
    if not fd_ok:
        notes.append(
            f"oracle skipped: {type(kind).__name__} has no lambda-independent discretization"
        )
        return None, None
    fine = fd_discretize(kind, spec.psi, cfg.oracle_grid)
    half = fd_discretize(kind, spec.psi, max(64, cfg.oracle_grid // 2))
    return (
        dense_eigenvalues(fine.matrix, window=region.dilated(1.05)),
        dense_eigenvalues(half.matrix, window=region.dilated(1.05)),
    )


def _nearest(values, z):
    if not values:
        return None, None
    d = [abs(v - z) for v in values]
    i = int(np.argmin(d))
    return values[i], d[i]


def run_job(cfg):
    """Scan, certify and cross-check one job.

    A root failing certification or the oracle check is a failed record with
    a note.  Scan errors (``find_zeros``: QuadratureFailureError,
    BoundaryDegeneracyError, RootClusterError) and oracle errors
    (ConvergenceError, UnsupportedKindError) propagate; ``main`` turns them
    into exit status 2 and a report whose trailer names the error.
    """
    spec = cfg.spec
    fn = build_char_function(spec)
    notes = []
    report = find_zeros(fn, spec.region, tol=spec.root_tol, seed=cfg.seed)
    if report.identically_zero:
        notes.append("characteristic function is identically zero on the region")
        return JobResult(config=cfg, report=report, records=(), notes=tuple(notes), passed=True)
    if report.region != spec.region:
        # a grazing contour was dilated; the roots are those of the scanned box
        box = report.region
        notes.append(f"contour dilated: scanned {box.lo}..{box.hi}")
        notes.extend(
            f"root {root.location} lies outside the requested region"
            for root in report.roots
            if not spec.region.contains(root.location)
        )

    oracle_fine = oracle_half = None
    if cfg.oracle_enabled:
        oracle_fine, oracle_half = _oracle_eigenvalues(cfg, notes)

    records = []
    all_ok = True
    for root in report.roots:
        try:
            ode, bc = _certify_root(spec, root)
        except (NotARootError, CharspecError) as exc:
            ode = bc = float("inf")
            notes.append(f"certification failed at {root.location}: {exc}")
        ok = (
            root.char_residual <= spec.root_tol * max(1.0, root.leaf_scale)
            and ode <= spec.residual_tol
            and bc <= spec.residual_tol
        )
        near, dist = (None, None)
        if oracle_fine is not None:
            near, dist = _nearest(oracle_fine, root.location)
            if dist is None:
                ok = False
                notes.append(f"oracle produced no eigenvalue near {root.location}")
            elif oracle_half is not None:
                # measured-order bound: dist_fine <= 10 * C * h^2 with C taken
                # from the coarse grid (plus a floor for exactly represented roots)
                _, dist_half = _nearest(oracle_half, root.location)
                h_fine = 1.0 / cfg.oracle_grid
                h_half = 1.0 / max(64, cfg.oracle_grid // 2)
                c_hat = (dist_half or 0.0) / h_half**2
                bound = max(10.0 * c_hat * h_fine**2, 1e4 * spec.root_tol)
                if dist > bound:
                    ok = False
                    notes.append(
                        f"oracle mismatch at {root.location}: {dist:.3e} > {bound:.3e}"
                    )
        all_ok = all_ok and ok
        records.append(
            SpectrumRecord(
                location=root.location,
                multiplicity=root.multiplicity,
                abs_f=root.char_residual,
                newton_iterations=root.newton_iterations,
                ode_residual=ode,
                bc_residual=bc,
                oracle=near,
                oracle_dist=dist,
                passed=ok,
            )
        )
    return JobResult(
        config=cfg, report=report, records=tuple(records), notes=tuple(notes), passed=all_ok
    )


def _fmt(x):
    return format(float(x), ".17g")


def _grid_rows(cfg):
    spec = cfg.spec
    fn = build_char_function(spec)
    n_re, n_im = cfg.grid
    res = np.linspace(spec.region.lo.real, spec.region.hi.real, n_re)
    ims = np.linspace(spec.region.lo.imag, spec.region.hi.imag, n_im)
    rows = []
    for im in ims:
        vals = fn.values(res + 1j * im)
        for re, v in zip(res, vals):
            rows.append(f"{_fmt(re)},{_fmt(im)},{_fmt(v.real)},{_fmt(v.imag)}")
    return rows


def emit_report(result, outdir, error=None):
    """Write the spectrum CSV, optional F grid, and the structured twin.

    Returns the list of files written.  ``error`` serializes into the
    structured report's trailer when a job died before producing records.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    cfg = result.config

    if cfg.spectrum:
        lines = [CSV_HEADER]
        for r in sorted(result.records, key=lambda r: (r.location.imag, r.location.real)):
            o_re = _fmt(r.oracle.real) if r.oracle is not None else ""
            o_im = _fmt(r.oracle.imag) if r.oracle is not None else ""
            o_d = _fmt(r.oracle_dist) if r.oracle_dist is not None else ""
            lines.append(
                ",".join(
                    [
                        _fmt(r.location.real),
                        _fmt(r.location.imag),
                        str(r.multiplicity),
                        _fmt(r.abs_f),
                        str(r.newton_iterations),
                        _fmt(r.ode_residual),
                        _fmt(r.bc_residual),
                        o_re,
                        o_im,
                        o_d,
                    ]
                )
            )
        path = outdir / "spectrum.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    if cfg.grid is not None and error is None:
        path = outdir / "fgrid.csv"
        path.write_text("\n".join([GRID_HEADER] + _grid_rows(cfg)) + "\n")
        written.append(path)

    doc = {
        "config": json.loads(serialize_config(cfg)),
        "identically_zero": bool(result.report.identically_zero)
        if result.report is not None
        else None,
        "region_count": result.report.region_count if result.report is not None else None,
        "records": [
            {
                "re": r.location.real,
                "im": r.location.imag,
                "multiplicity": r.multiplicity,
                "abs_F": r.abs_f,
                "newton_iters": r.newton_iterations,
                "ode_residual": r.ode_residual,
                "bc_residual": r.bc_residual,
                "oracle": _complex_out(r.oracle) if r.oracle is not None else None,
                "oracle_dist": r.oracle_dist,
                "passed": r.passed,
            }
            for r in sorted(result.records, key=lambda r: (r.location.imag, r.location.real))
        ],
        "notes": list(result.notes),
        "passed": result.passed,
        "trailer": {"error": error},
    }
    path = outdir / "report.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    written.append(path)
    return written


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="charspec", description="characteristic-function spectral scanner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a job config")
    run.add_argument("config", help="path to a JSON job config")
    run.add_argument("--out", default="out", help="output directory (default: out)")
    run.add_argument("--oracle", choices=["on", "off"], help="override the oracle toggle")
    run.add_argument("--grid", type=int, help="override the oracle grid size")
    run.add_argument("--seed", type=int, help="override the sampling seed")
    run.add_argument(
        "--format", choices=["csv", "structured"], help="summary format on stdout"
    )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.oracle is not None:
        cfg = dataclasses.replace(cfg, oracle_enabled=args.oracle == "on")
    if args.grid is not None:
        cfg = dataclasses.replace(cfg, oracle_grid=args.grid)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.format is not None:
        cfg = dataclasses.replace(cfg, out_format=args.format)

    try:
        result = run_job(cfg)
    except CharspecError as exc:
        empty = JobResult(config=cfg, report=None, records=(), notes=(), passed=False)
        emit_report(empty, args.out, error=f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_report(result, args.out)

    if cfg.out_format == "structured":
        summary = {
            "roots": len(result.records),
            "region_count": result.report.region_count,
            "passed": result.passed,
        }
        print(json.dumps(summary, sort_keys=True))
    elif cfg.spectrum:
        print((Path(args.out) / "spectrum.csv").read_text(), end="")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
