"""charspec benchmark: seeded job configs driven through run_job and emit_report.

    python3 perfbench/run.py --workload catalog_mix --seed 1 --seconds 20 --trace 0

A closed loop with one client in one process: the next job starts when the
previous one has written its report.  Jobs come from the seeded generators
in ``workloads.py`` as JSON configs; the program sees only those configs,
read through ``parse_config``.  Every job's roots are checked against an
independent reference (``reference.py``) after its clock stops.

``--trace 0`` runs the job stream for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed job set alternately
untraced and under the span tracer (``tracing.py``), twice each, and
reports per-layer metrics.  The last line of standard output is the JSON
result; everything a run writes goes under ``.perfbench_out/`` in the
checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 3
ROOT_RTOL = 1e-7  # root agreement with the reference, relative to max(1, |root|)
P90_MIN_JOBS = 100

# counters that must repeat exactly between two traced passes
DETERMINISTIC = (
    "charfn.f_points",
    "charfn.f_calls_batched",
    "charfn.f_calls_scalar",
    "rootscan.winding_count_calls",
    "rootscan.newton_refine_calls",
    "rootscan.fallback_roots",
    "linop.lu_decompose_calls",
)


def import_cli():
    sys.path.insert(0, str(SRC))
    from charspec import cli

    return cli


# -- set-up -------------------------------------------------------------------


def setup_probe(job_dir):
    """Cold import, parse every config, one warm-up job; prints the seconds."""
    start = time.perf_counter()
    cli = import_cli()
    for path in sorted(job_dir.glob("job-*.json")):
        cli.parse_config(path.read_text())
    warm = cli.parse_config((job_dir / "warmup.json").read_text())
    cli.emit_report(cli.run_job(warm), job_dir.parent / "probe-out")
    print(repr(time.perf_counter() - start))


def measure_setup(job_dir):
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(job_dir)],
            capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(float(proc.stdout.split()[-1]))
    return values


def write_configs(job_dir, warmup, pool):
    job_dir.mkdir(parents=True)
    (job_dir / "warmup.json").write_text(warmup.config)
    paths = [job_dir / f"job-{i:04d}.json" for i in range(len(pool))]
    for path, job in zip(paths, pool):
        path.write_text(job.config)
    return paths


# -- running and checking jobs --------------------------------------------------


class Runner:
    """Runs jobs through the CLI entry points and checks each one."""

    def __init__(self, cli, ref, work):
        self.cli = cli
        self.ref = ref
        self.work = work

    def run(self, slot, job, cfg):
        """Time run_job + emit_report for one job, then check it."""
        start = time.perf_counter()
        try:
            result = self.cli.run_job(cfg)
            self.cli.emit_report(result, self.work / str(slot))
        except self.cli.CharspecError as exc:
            return {"job": job.name, "s": time.perf_counter() - start, "failed": True,
                    "mismatch": False, "error": f"{type(exc).__name__}: {exc}",
                    "roots": 0, "returned": 0, "uncertified": 0, "fallback": 0,
                    "outside": 0}
        elapsed = time.perf_counter() - start
        found = [r.location for r in result.records for _ in range(r.multiplicity)]
        # the scanner reports the roots of the box its count settled on,
        # which a grazing contour dilates past the requested region
        box = result.report.region
        want = [z for z in job.roots if self.ref.inside(z, box.lo, box.hi)]
        ok = self.ref.match(found, want, ROOT_RTOL) != math.inf
        return {
            "job": job.name,
            "s": elapsed,
            "failed": not ok,
            "mismatch": not ok,
            "error": None if ok else f"roots disagree with the reference: {found} vs {want}",
            "roots": len(found) if ok else 0,
            "returned": len(found),
            "uncertified": sum(r.multiplicity for r in result.records if not r.passed),
            "fallback": sum(r.newton_iterations == -1 for r in result.records),
            "outside": sum(not cfg.spec.region.contains(z) for z in found),
        }


def timed_stream(runner, pool, configs, seconds, cycle):
    """Run the job stream in order for ``seconds``, then to the end of the cycle.

    Whole cycles keep each job type's share of the metrics fixed.
    """
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % cycle or time.perf_counter() < deadline:
        k = i % len(pool)
        records.append(runner.run(k, pool[k], configs[k]))
        i += 1
    return records


def repeat_check(runner, pool, configs, slots):
    """Re-run jobs; names of those whose report.json bytes changed."""
    broken = []
    for k in slots:
        path = runner.work / str(k) / "report.json"
        first = path.read_bytes()
        runner.run(k, pool[k], configs[k])
        if path.read_bytes() != first:
            broken.append(pool[k].name)
    return broken


def summarize(records):
    returned = sum(r["returned"] for r in records)
    roots = sum(r["roots"] for r in records)
    slowest = max(r["s"] for r in records)
    ranked = sorted(slowest if r["failed"] else r["s"] for r in records)  # failed rank slowest
    return {
        "jobs": len(records),
        "roots": roots,
        "s_per_root": sum(r["s"] for r in records) / roots if roots else math.inf,
        "job_s_p50": statistics.median(ranked),
        "job_s_p90": statistics.quantiles(ranked, n=10, method="inclusive")[-1]
        if len(ranked) > 1 else ranked[0],
        "fail_frac": sum(r["failed"] for r in records) / len(records),
        "uncertified_frac": sum(r["uncertified"] for r in records) / returned if returned else 0.0,
        "fallback_roots": sum(r["fallback"] for r in records),
        "roots_outside_region": sum(r["outside"] for r in records),
    }


# -- traced runs ----------------------------------------------------------------


def layer_metrics(tracer, records):
    """Per-layer metrics of one traced pass (``_s`` values are self seconds)."""
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    stats = summarize(records)
    returned = sum(r["returned"] for r in records)
    batched = tracer.points.get("charfn.values", 0)
    points = batched + tracer.points.get("charfn.value", 0)
    values_total = spans.get("charfn.values", {}).get("total_s", 0.0)
    winding = calls("rootscan.winding_count")
    winding_raised = tracer.raised.get("rootscan.winding_count", 0)
    return {
        "rootscan.find_zeros_s": (self_s("rootscan.find_zeros"), "s"),
        "rootscan.winding_count_calls": (winding, "count"),
        "rootscan.winding_count_s": (self_s("rootscan.winding_count"), "s"),
        "rootscan.winding_fail_frac": (winding_raised / winding if winding else 0.0, "ratio"),
        "rootscan.newton_refine_calls": (calls("rootscan.newton_refine"), "count"),
        "rootscan.newton_refine_s": (self_s("rootscan.newton_refine"), "s"),
        "rootscan.fallback_roots": (stats["fallback_roots"], "count"),
        "rootscan.roots_outside_region": (stats["roots_outside_region"], "count"),
        "charfn.f_points": (points, "count"),
        "charfn.f_calls_batched": (calls("charfn.values"), "count"),
        "charfn.f_calls_scalar": (calls("charfn.value"), "count"),
        "charfn.values_s": (self_s("charfn.values"), "s"),
        "charfn.value_s": (self_s("charfn.value"), "s"),
        "charfn.lam_per_s": (batched / values_total if values_total else 0.0, "1/s"),
        "charfn.f_points_per_root": (points / returned if returned else 0.0, "count"),
        "catalog.functional_on_basis_s": (self_s("catalog.functional_on_basis"), "s"),
        "catalog.apply_functional_s": (self_s("catalog.apply_functional"), "s"),
        "cli.parse_config_s": (self_s("cli.parse_config"), "s"),
        "cli.certify_s": (self_s("cli.certify"), "s"),
        "cli.emit_report_s": (self_s("cli.emit_report"), "s"),
        "cli.run_job_s": (self_s("cli.run_job"), "s"),
        "linop.lu_decompose_calls": (calls("linop.lu_decompose"), "count"),
        "linop.lu_decompose_s": (self_s("linop.lu_decompose"), "s"),
        "linop.solve_s": (self_s("linop.solve"), "s"),
        "oracle.fd_discretize_s": (self_s("oracle.fd_discretize"), "s"),
        "oracle.eigensolve_s": (self_s("oracle.eigensolve"), "s"),
        "oracle.certify_s": (self_s("oracle.dense_eigenvalues"), "s"),
        "fail_frac": (stats["fail_frac"], "ratio"),
        "uncertified_frac": (stats["uncertified_frac"], "ratio"),
    }


def traced_run(cli, runner, pool, texts):
    """Untraced and traced passes, two of each, over the same fixed job set.

    Returns the tracer and metrics of the first traced pass, the records of
    all passes (first pass first) and the deterministic counters that
    differ between the two traced passes.
    """
    import tracing

    def one_pass(tracer=None):
        records = []
        start = time.perf_counter()
        for k, (job, text) in enumerate(zip(pool, texts)):
            if tracer is not None:
                tracer.job = job.name
            records.append(runner.run(k, job, cli.parse_config(text)))
        return records, time.perf_counter() - start

    # untraced and traced passes alternate, so drift in machine speed
    # does not read as tracing overhead
    records, passes = [], []
    untraced_s = traced_s = 0.0
    for _ in range(2):
        plain, wall = one_pass()
        untraced_s += wall
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, wall = one_pass(tracer)
        finally:
            tracer.uninstall()
        traced_s += wall
        records += plain + traced
        passes.append((tracer, layer_metrics(tracer, traced)))
    (tracer, metrics), (_, metrics_b) = passes
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    unrepeated = [name for name in DETERMINISTIC if metrics[name] != metrics_b[name]]
    return tracer, records, metrics, unrepeated


# -- environment ----------------------------------------------------------------


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": git_commit(),
    }


# -- main -----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.setup_probe)
        return 0
    if not (SRC / "charspec" / "__init__.py").is_file():
        print(f"error: no charspec sources under {SRC}", file=sys.stderr)
        return 2

    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    warmup, pool, probes = workloads.generate(args.workload, args.seed)
    cycle = len(pool) // wl.pool_cycles
    base = OUT / args.workload
    if base.exists():
        shutil.rmtree(base)
    paths = write_configs(base / "jobs", warmup, pool)

    setup_values = [] if args.trace else measure_setup(base / "jobs")
    cli = import_cli()
    texts = [p.read_text() for p in paths]
    configs = [cli.parse_config(t) for t in texts]
    runner = Runner(cli, reference, base / "work")
    runner.run("warmup", warmup, cli.parse_config(warmup.config))

    problems = []
    if args.trace:
        n = cycle * wl.trace_cycles
        tracer, records, metrics, unrepeated = traced_run(cli, runner, pool[:n], texts[:n])
        if unrepeated:
            problems.append(f"counters differ between traced passes: {unrepeated}")
    else:
        n = len(pool)
        records = timed_stream(runner, pool, configs, args.seconds, cycle)
    # rerun one completed job of each type, taken from successive cycles
    rerun = [k for k, r in enumerate(records[:n]) if k % (cycle + 1) == 0 and not r["failed"]]
    broken = repeat_check(runner, pool, configs, rerun[:cycle])
    if broken:
        problems.append(f"report.json differs on rerun: {broken}")
    # probes reproduce known defects; each that still shows its defect counts
    probe_defects = []
    for k, job in enumerate(probes):
        rec = runner.run(f"probe{k}", job, cli.parse_config(job.config))
        if rec["error"]:
            probe_defects.append(f"{job.name}: {rec['error'][:100]}")
        elif rec["outside"]:
            probe_defects.append(f"{job.name}: {rec['outside']} root(s) outside the region")
    problems += [f"{r['job']}: {r['error']}" for r in records if r["failed"]]
    stats = summarize(records)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(records)}  roots matched {stats['roots']}")
    if args.trace:
        metrics["probe.defect_jobs"] = (len(probe_defects), "count")
    else:
        if not stats["roots"]:
            print("error: no job returned roots matching its reference", file=sys.stderr)
            for line in problems[:10]:
                print(f"  problem: {line[:200]}", file=sys.stderr)
            return 1
        metrics = {
            "s_per_root": (stats["s_per_root"], "s"),
            "job_s_p50": (stats["job_s_p50"], "s"),
            "setup_s": (statistics.median(setup_values), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_frac':32s} {stats['fail_frac']:14.6g} ratio")
        print(f"  {'uncertified_frac':32s} {stats['uncertified_frac']:14.6g} ratio")
        if stats["jobs"] >= P90_MIN_JOBS:
            print(f"  {'job_s_p90':32s} {stats['job_s_p90']:14.6g} s")
        print(f"  samples: {stats['jobs']} jobs, {stats['roots']} roots; "
              f"setup_s median of {len(setup_values)}: {setup_values}")
    for line in problems[:10]:
        print(f"  problem: {line[:200]}")
    for line in probe_defects:
        print(f"  known-defect probe: {line}")

    result = {
        "correct": not (broken or any(r["mismatch"] for r in records)
                        or (args.trace and unrepeated)),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records) + len(broken),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    saved = dict(result, environment=env, setup_probes_s=setup_values, jobs=records,
                 problems=problems, probes=probe_defects)
    (OUT / f"result-{tag}.json").write_text(json.dumps(saved, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.spans) + "\n")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
