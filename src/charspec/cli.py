"""Batch front end: config files in, spectrum reports out.

A job config is canonical JSON (nested key-value sections).  ``run_job``
scans the requested region, certifies every root (characteristic residual,
eigenfunction defects, optional discretization oracle) and hands a record
table to ``emit_report``, which writes the CSV spectrum table, an optional
F-sample lattice, and a structured twin of the whole report.  Exit status
is 0 exactly when every requested certification passed.

A ``JobConfig`` checks its own option ranges however it is built (from a
config file with its command-line overrides, or in Python), and the
region's ``re`` and ``im`` bounds are [lo, hi] pairs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
    CharFunction,
    ProblemSpec,
    char_matrix,
    eigen_residual,
    eigenfunction,
    kernel_vectors,
)
from .errors import CharspecError, ConfigError
from .oracle import dense_eigenvalues, fd_discretize, sparse_eigenvalues
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
    """One batch job: problem spec, output selection, oracle toggle, format;
    a ConfigError when an option has the wrong type or is out of range,
    however it is built."""

    spec: ProblemSpec
    spectrum: bool = True
    grid: tuple | None = None
    oracle_enabled: bool = False
    oracle_grid: int = 512
    out_format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.spec, ProblemSpec) or self.spec.region is None:
            raise ConfigError("problem.region: a job needs a ProblemSpec with a region")
        _exactly(bool, self.spectrum, "outputs.spectrum")
        grid = self.grid
        if grid is not None and not (isinstance(grid, tuple) and len(grid) == 2
                                     and all(type(n) is int and n >= 2 for n in grid)):
            raise ConfigError(f"outputs.grid must be two integers, each at least 2, got {grid!r}")
        _exactly(bool, self.oracle_enabled, "oracle.enabled")
        # the oracle's half grid, its coarse model, needs the 64 points
        # fd_discretize takes at least
        if _exactly(int, self.oracle_grid, "oracle.grid") < 128:
            raise ConfigError(f"oracle.grid: must be at least 128, got {self.oracle_grid}")
        # Simpson's rule takes an integral term on N and N // 2 subintervals, both even
        if self.oracle_enabled and self.oracle_grid % 4 and any(
                p.integrals for p in self.spec.psi):
            raise ConfigError(
                f"oracle.grid: integral terms need a multiple of 4, got {self.oracle_grid}")
        if self.out_format not in ("csv", "structured"):
            raise ConfigError(f"format must be 'csv' or 'structured', got {self.out_format!r}")


def _real_in(value, where):
    """``value`` as a float when it is a finite JSON number (a bool is none)."""
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer past the float range
        pass
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _complex_in(value, where):
    pair = value if isinstance(value, list) else [value, 0]
    try:
        if len(pair) == 2:
            return complex(_real_in(pair[0], where), _real_in(pair[1], where))
    except ConfigError:
        pass
    raise ConfigError(f"{where}: expected a finite number or [re, im] pair, got {value!r}")


def _exactly(kind, value, where):
    """``value`` when its JSON type is ``kind`` (bool, int, list or dict; a
    bool is no int)."""
    if type(value) is not kind:
        raise ConfigError(f"{where}: expected a JSON {kind.__name__}, got {value!r}")
    return value


def _known(section, keys, where):
    """A ConfigError on the first key of ``section`` that is not in ``keys``."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _json_out(value):
    """``value`` as JSON data: a complex number as [re, im], a tuple as a list."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_json_out(v) for v in value]
    return value


def _matrix_in(value, where):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a matrix as a list of rows")
    return tuple(
        tuple(_complex_in(x, where) for x in row) for row in value
    )


def _functional_in(terms, where):
    points, integrals = [], []
    for i, term in enumerate(_exactly(list, terms, where)):
        spot = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ConfigError(f"{spot}: expected an object")
        try:
            if "point" in term:
                points.append(
                    PointTerm(
                        location=_real_in(term["point"], spot),
                        order=_exactly(int, term.get("order", 0), spot),
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
        except ConfigError:
            raise
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"{spot}: {exc}") from exc
        _known(term, ("point", "order", "weight") if "point" in term
               else ("integral", "weight", "rate"), spot)
    return BoundaryFunctional(points=tuple(points), integrals=tuple(integrals))


def _functional_out(psi):
    out = []
    for t in psi.points:
        out.append({"point": t.location, "order": t.order, "weight": _json_out(t.weight)})
    for t in psi.integrals:
        term = {"integral": t.kernel, "weight": _json_out(t.weight)}
        if t.kernel == "exp":
            term["rate"] = _json_out(t.rate)
        out.append(term)
    return out


def _pairs_in(read):
    """A reader of [real, read(...)] pairs: delay atoms and delay terms."""
    return lambda value, where: tuple((_real_in(r, where), read(x, where)) for r, x in value)


# the reader of each kind dataclass field, by field name
_FIELD_IN = {
    "c": _complex_in,
    "k": _complex_in,
    "atoms": _pairs_in(_complex_in),
    "instant": _matrix_in,
    "delays": _pairs_in(_matrix_in),
    "const_term": _matrix_in,
    "linear_term": _matrix_in,
}


def _kind_in(name, params):
    """The kind ``name`` built from each field that ``params`` gives or
    that has no default, read in field order."""
    try:
        cls = _KIND_NAMES[name]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown problem kind {name!r}") from None
    try:
        return cls(**{
            f.name: _FIELD_IN[f.name](params[f.name], f"problem.parameters.{f.name}")
            for f in dataclasses.fields(cls)
            if f.name in params or f.default is dataclasses.MISSING
        })
    except ConfigError:
        raise
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for kind {name!r}: {exc}") from exc


def parse_config(text, **overrides):
    """Parse a JSON job config into a validated JobConfig.  Only the keys the
    file gives reach ``ProblemSpec`` and ``JobConfig``: each default is theirs,
    and ``overrides`` (options by name) replace the file's before the check.
    A section's unknown key is a ConfigError; the top level is open."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "problem" not in data:
        raise ConfigError("config must be an object with a 'problem' section")
    prob = _exactly(dict, data["problem"], "problem")
    try:
        re, im = prob["region"]["re"], prob["region"]["im"]
        if len(re) != 2 or len(im) != 2:
            raise ConfigError(f"problem.region: bounds must be [lo, hi] pairs, got {re!r}, {im!r}")
        region = Rectangle(*(
            complex(_real_in(re[k], "problem.region"), _real_in(im[k], "problem.region"))
            for k in (0, 1)
        ))
    except ConfigError:
        raise
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"problem.region must give finite re/im bounds: {exc}") from exc
    _known(prob["region"], ("re", "im"), "problem.region")
    params = _exactly(dict, prob.get("parameters", {}), "problem.parameters")
    kind = _kind_in(prob.get("kind"), params)
    _known(params, [f.name for f in dataclasses.fields(kind)], "problem.parameters")
    psi = tuple(
        _functional_in(terms, f"problem.psi[{i}]")
        for i, terms in enumerate(_exactly(list, prob.get("psi", []), "problem.psi"))
    )
    try:
        tols = {key: _real_in(prob[key], f"problem.{key}")
                for key in ("root_tol", "residual_tol") if key in prob}
        spec = ProblemSpec(kind=kind, psi=psi, region=region, **tols)
    except ConfigError:
        raise
    except (CharspecError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem spec: {exc}") from exc
    _known(prob, ("kind", "parameters", "psi", "region", "root_tol", "residual_tol"), "problem")
    outputs = _exactly(dict, data.get("outputs", {}), "outputs")
    if outputs.get("grid") is not None:
        outputs = {**outputs, "grid": tuple(_exactly(list, outputs["grid"], "outputs.grid"))}
    oracle = _exactly(dict, data.get("oracle", {}), "oracle")
    # each JobConfig option at its place in the file; one left out keeps its default
    places = {"spectrum": (outputs, "spectrum"), "grid": (outputs, "grid"),
              "oracle_enabled": (oracle, "enabled"), "oracle_grid": (oracle, "grid"),
              "out_format": (data, "format")}
    cfg = JobConfig(spec=spec, **{
        name: section[key] for name, (section, key) in places.items() if key in section
    } | overrides)
    _known(outputs, ("spectrum", "grid"), "outputs")
    _known(oracle, ("enabled", "grid"), "oracle")
    return cfg


def _config_doc(cfg):
    """A JobConfig as the JSON document that ``serialize_config`` writes."""
    kind = cfg.spec.kind
    return {
        "problem": {
            "kind": next(name for name, cls in _KIND_NAMES.items() if cls is type(kind)),
            "parameters": {
                f.name: _json_out(getattr(kind, f.name)) for f in dataclasses.fields(kind)
            },
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
            "grid": _json_out(cfg.grid),
        },
        "oracle": {"enabled": cfg.oracle_enabled, "grid": cfg.oracle_grid},
        "format": cfg.out_format,
    }


def serialize_config(cfg):
    """Canonical JSON for a JobConfig; parse(serialize(cfg)) == cfg."""
    return json.dumps(_config_doc(cfg), sort_keys=True, indent=2) + "\n"


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

    @property
    def passed(self):
        """True when the job has a report and every record passed."""
        return self.report is not None and all(r.passed for r in self.records)


def _certify(spec, lams):
    """Eigen-defects (ode, bc) at a 1-d array of roots from one M stack and one
    SVD: max |M x| for a matrix kind, and ``eigen_residual`` on the same M for
    a boundary-coupled kind.  When the stack raises, its two halves are
    certified alone, recursively, so a root that fails gets its CharspecError."""
    try:
        mats = char_matrix(spec, lams)
        xs = [vecs[0] for vecs in kernel_vectors(spec, lams, mats)]
        if not is_dirichlet(spec.kind):
            return [(float(np.max(np.abs(m @ x))), 0.0) for m, x in zip(mats, xs)]
        curves = [eigenfunction(spec, lam, x) for lam, x in zip(lams, xs)]
        return eigen_residual(spec.kind, mats, lams, curves)
    except CharspecError as exc:  # certify each half alone
        if lams.size == 1:
            return [exc]
        return [o for half in np.array_split(lams, 2) for o in _certify(spec, half)]


def _oracle_eigenvalues(cfg, notes):
    """Reference eigenvalues at two grid resolutions, or None if unsupported."""
    spec = cfg.spec
    kind = spec.kind
    # dilated like a scan's box whose count failed, so that its roots find
    # their match
    window = spec.region.dilated(1.05)
    if isinstance(kind, QuadraticPencil):
        n = kind.dim
        eye = np.eye(n)
        comp = np.block(
            [
                [np.zeros((n, n)), eye],
                [np.array(kind.const_term), np.array(kind.linear_term)],
            ]
        )
        return dense_eigenvalues(comp, window=window), None
    fd_ok = isinstance(kind, (FirstDerivative, SecondDerivative)) or (
        isinstance(kind, ConvectionDiffusion) and spec.psi
    )
    if not fd_ok:
        notes.append(
            f"oracle skipped: {type(kind).__name__} has no lambda-independent discretization"
        )
        return None, None
    fine = fd_discretize(kind, spec.psi, cfg.oracle_grid)
    half = fd_discretize(kind, spec.psi, cfg.oracle_grid // 2)
    return sparse_eigenvalues(fine, window), sparse_eigenvalues(half, window)


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
    fn = CharFunction(spec)
    notes = []
    report = find_zeros(fn, spec.region, tol=spec.root_tol)
    if report.identically_zero:
        notes.append("characteristic function is identically zero on the region")
        return JobResult(config=cfg, report=report, records=(), notes=tuple(notes))
    if report.region != spec.region:
        # the region's count failed and was dilated; the roots are those of
        # the scanned box
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

    lams = np.array([root.location for root in report.roots])
    certified = _certify(spec, lams) if lams.size else []
    records = []
    for root, outcome in zip(report.roots, certified):
        if isinstance(outcome, CharspecError):
            ode = bc = float("inf")
            notes.append(f"certification failed at {root.location}: {outcome}")
        else:
            ode, bc = outcome
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
            else:
                # a floor for exactly represented roots; a pencil's companion
                # eigenvalues have no coarse grid, so the floor is their bound
                bound = 1e4 * spec.root_tol
                if oracle_half is not None:
                    # a second-order scheme's fine eigenvalue is off by about
                    # |lam_N - lam_{N/2}| / 3 (Richardson), whatever the root
                    _, step = _nearest(oracle_half, near)
                    bound = max(10.0 * (step or 0.0) / 3.0, bound)
                if dist > bound:
                    ok = False
                    notes.append(
                        f"oracle mismatch at {root.location}: {dist:.3e} > {bound:.3e}"
                    )
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
    return JobResult(config=cfg, report=report, records=tuple(records), notes=tuple(notes))


def _fmt(x):
    """A CSV field: 17 significant digits (an int as ``str`` writes it), None empty."""
    return "" if x is None else format(float(x), ".17g")


def _csv_row(record):
    """A report.json record's fields in CSV_HEADER's order, the oracle pair split."""
    oracle_re, oracle_im = record["oracle"] or (None, None)
    fields = dict(record, oracle_re=oracle_re, oracle_im=oracle_im)
    return ",".join(_fmt(fields[name]) for name in CSV_HEADER.split(","))


def _grid_rows(cfg):
    """The F grid's CSV rows, Im-major, from one ``values`` call on the lattice."""
    spec, fn = cfg.spec, CharFunction(cfg.spec)
    n_re, n_im = cfg.grid
    res = np.linspace(spec.region.lo.real, spec.region.hi.real, n_re)
    ims = np.linspace(spec.region.lo.imag, spec.region.hi.imag, n_im)
    vals = fn.values(res + 1j * ims[:, None])
    return [f"{_fmt(re)},{_fmt(im)},{_fmt(v.real)},{_fmt(v.imag)}"
            for im, row in zip(ims, vals) for re, v in zip(res, row)]


def emit_report(result, outdir, error=None):
    """Write the spectrum CSV, optional F grid, and the structured twin.

    Each root's record is built once: report.json holds the records, and each
    spectrum.csv row is read from its record, both in ``result.records``'
    order, which is ``find_zeros``' own.  Returns the list of files written.
    ``error`` serializes into the trailer when a job died before producing records.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    cfg = result.config

    rows = (
        {"re": r.location.real, "im": r.location.imag, "multiplicity": r.multiplicity,
         "abs_F": r.abs_f, "newton_iters": r.newton_iterations,
         "ode_residual": r.ode_residual, "bc_residual": r.bc_residual,
         "oracle": _json_out(r.oracle), "oracle_dist": r.oracle_dist, "passed": r.passed}
        for r in result.records
    )
    # a non-finite number (a failed certification's inf) is null, an empty CSV field
    records = [{key: None if isinstance(v, float) and not math.isfinite(v) else v
                for key, v in row.items()} for row in rows]
    if cfg.spectrum:
        lines = [CSV_HEADER] + [_csv_row(record) for record in records]
        path = outdir / "spectrum.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    if cfg.grid is not None and error is None:
        path = outdir / "fgrid.csv"
        path.write_text("\n".join([GRID_HEADER] + _grid_rows(cfg)) + "\n")
        written.append(path)

    report = result.report
    doc = {
        "config": _config_doc(cfg),
        "identically_zero": None if report is None else report.identically_zero,
        "region_count": None if report is None else report.region_count,
        "records": records,
        "notes": list(result.notes),
        "passed": result.passed,
        "trailer": {"error": error},
    }
    path = outdir / "report.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
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
    run.add_argument(
        "--format", choices=["csv", "structured"], help="summary format on stdout"
    )
    args = parser.parse_args(argv)

    try:
        given = {"oracle_grid": args.grid, "out_format": args.format,
                 "oracle_enabled": None if args.oracle is None else args.oracle == "on"}
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"),
                           **{k: v for k, v in given.items() if v is not None})
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        named = f"{args.config} is not UTF-8: " if isinstance(exc, UnicodeDecodeError) else ""
        print(f"error: {named}{exc}", file=sys.stderr)
        return 2
    try:  # before the scan, so that a bad directory costs no scan
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {args.out}: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_job(cfg)
    except CharspecError as exc:
        empty = JobResult(config=cfg, report=None, records=(), notes=())
        emit_report(empty, args.out, error=f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_report(result, args.out)

    if cfg.out_format == "structured":
        summary = {"roots": len(result.records), "region_count": result.report.region_count,
                   "passed": result.passed}
        print(json.dumps(summary, sort_keys=True))
    elif cfg.spectrum:
        print((Path(args.out) / "spectrum.csv").read_text(), end="")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
