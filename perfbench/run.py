#!/usr/bin/env python3
"""gmreslab benchmark: three closed-loop workloads, one client, one op after
another, in one fresh process per run.

    python3 perfbench/run.py --workload lab_run --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` runs the workload's ops in a loop for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed prefix of the
ops untraced and then traced (see tracer.py) and reports the per-layer
metrics; the span file is left in ``perfbench/out/``.  ``--workload all``
runs each workload in its own process and prints every metric.  The last
line of standard output is always one JSON object; see README.md for the
workloads, the metrics and what each layer metric is predicted to move.
"""

import os

# Pinned before NumPy loads: one BLAS thread, so that timings measure the
# package and not the BLAS thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "gmreslab" / "schemas" / "report.schema.json"
OUT = HERE / "out"
WORKLOADS = ("lab_run", "ideal_sweep", "fov_scan")
SETUP_REPS = 3
NPROC = len(os.sched_getaffinity(0))

# (metric, unit) in the order printed; the first group is BENCHMARK.json's
# end_to_end list, the second is printed for reading only.
END_TO_END = (
    ("setup_s", "s"),
    ("problems_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("verdict_pass_frac", "fraction"),
    ("ok_frac", "fraction"),
)
INFORMATIONAL = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("certified_frac", "fraction"),
    ("ideal_gap_max", "1"),
    ("ref_err_max", "1"),
    ("failed_frac", "fraction"),
)
PER_LAYER = (
    ("minimax.worst_case_gmres.s", "s"),
    ("minimax.worst_case_gmres.self_s", "s"),
    ("minimax.worst_case_gmres.calls", "count"),
    ("minimax.worst_case_gmres.phi_cols", "count"),
    ("minimax.worst_case_gmres.eigensolves", "count"),
    ("minimax.worst_case_gmres.share", "fraction"),
    ("minimax.worst_case_gmres.ref_err_max", "1"),
    ("krylov.min_residual_values.s", "s"),
    ("krylov.min_residual_values.calls", "count"),
    ("krylov.min_residual_values.cols", "count"),
    ("minimax.ideal_gmres.s", "s"),
    ("minimax.ideal_gmres.self_s", "s"),
    ("minimax.ideal_gmres.calls", "count"),
    ("minimax.ideal_gmres.eigensolves", "count"),
    ("minimax.ideal_gmres.lp_solves", "count"),
    ("minimax.ideal_gmres.nm_fevals", "count"),
    ("minimax.ideal_gmres.phi_cols", "count"),
    ("minimax.ideal_gmres.share", "fraction"),
    ("minimax.ideal_gmres.certified", "count"),
    ("minimax.ideal_gmres.gap_max", "1"),
    ("minimax.ideal_gmres.ref_err_max", "1"),
    ("minimax.one_step_ideal.s", "s"),
    ("minimax.one_step_ideal.calls", "count"),
    ("minimax.one_step_ideal.nm_fevals", "count"),
    ("fov.fov_summary.s", "s"),
    ("fov.fov_summary.eigensolves", "count"),
    ("fov.fov_summary.share", "fraction"),
    ("fov.nu_fov.calls", "count"),
    ("fov.nu_fov.ref_err_max", "1"),
    ("fov.fov_boundary.s", "s"),
    ("fov.fov_boundary.eigensolves", "count"),
    ("fov.fov_boundary.share", "fraction"),
    ("mmio.read_matrix_market.s", "s"),
    ("mmio.read_matrix_market.calls", "count"),
    ("bounds.verify_chain.self_s", "s"),
    ("bounds.verify_chain.calls", "count"),
    ("bounds.elman_bound.s", "s"),
    ("bounds.starke_bound.s", "s"),
    ("krylov.gmres_residuals.s", "s"),
    ("krylov.gmres_residuals.calls", "count"),
    ("reporting.write.s", "s"),
    ("matrices.generate_matrix.s", "s"),
    ("experiment.run_experiment.s", "s"),
    ("experiment.pool_speedup", "ratio"),
    ("dense_core.eigensolves", "count"),
    ("dense_core.eigensolve_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)
# The layer each workload is predicted to spend most of its op time in,
# with the share a cProfile run of the same inputs gave before this harness.
DOMINANT = {
    "lab_run": (("minimax.worst_case_gmres.share",), 0.55),
    "ideal_sweep": (("minimax.ideal_gmres.share",), 0.95),
    "fov_scan": (("fov.fov_summary.share", "fov.fov_boundary.share"), 0.97),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _environment(args, versions):
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        **versions,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "LAB_THREADS": os.environ.get("LAB_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup(args, workdir):
    """Imports once, then build the inputs and references SETUP_REPS times;
    ``setup_s`` is the import time plus the median build time."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import jsonschema  # noqa: F401
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401

    import gmreslab  # noqa: F401
    import workloads
    import_s = time.perf_counter() - start

    schema = json.loads(SCHEMA.read_text())
    builds = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        ops = workloads.BUILDERS[args.workload](args.seed, workdir, schema)
        builds.append(time.perf_counter() - start)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    setup = {"import_s": import_s, "build_s": builds}
    return ops, import_s + statistics.median(builds), setup, versions


def _run_op(op):
    """Time one op; an exception is the op's failure, not the benchmark's."""
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # noqa: BLE001 - recorded as a failed op
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def _check(op, result, error):
    import workloads

    if error is not None:
        outcome = workloads.Outcome()
        outcome.fail(error)
        return outcome
    try:
        return op.check(result)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the op
        outcome = workloads.Outcome()
        outcome.fail(f"check raised {type(exc).__name__}: {exc}")
        return outcome


def _tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, with that percentile; None when there are fewer than 11 ops."""
    count = len(latencies)
    if count < 11:
        return None, None
    ordered = sorted(latencies)
    return ordered[count - 11], 100.0 * (count - 10) / count


def _summary(records):
    """Quality figures over (op, latency, outcome) records."""
    outcomes = [outcome for _, _, outcome in records]
    verdicts = sum(o.verdicts_total for o in outcomes)
    solves = sum(o.ideal_solves for o in outcomes)
    failed = sum(not o.ok for o in outcomes)
    ref_errs = {}
    for outcome in outcomes:
        for layer, err in outcome.ref_errs.items():
            ref_errs[layer] = max(ref_errs.get(layer, 0.0), err)
    return {
        "attempted": len(records),
        "failed": failed,
        "verdict_pass_frac": (
            sum(o.verdicts_passed for o in outcomes) / verdicts if verdicts else None
        ),
        "certified_frac": sum(o.certified for o in outcomes) / solves if solves else None,
        "ideal_gap_max": max(o.gap_max for o in outcomes) if solves else None,
        "ref_errs": ref_errs,
        "ref_err_max": max(ref_errs.values()) if ref_errs else None,
        "failures": sorted({f"{op.name}: {o.reason}" for op, _, o in records if not o.ok}),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(args, ops, setup_s):
    """Closed loop of whole passes over the ops until ``--seconds`` have
    passed.  Ops differ in cost by up to 40x, so a window that stopped
    mid-pass would change the op mix, and with it every figure, from run
    to run."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        for op in ops:
            runs.append((op, *_run_op(op)))
    wall = time.perf_counter() - start
    peak = _peak_rss_mb()

    records = [(op, lat, _check(op, res, err)) for op, lat, res, err in runs]
    summary = _summary(records)
    latencies = [lat for _, lat, _ in records]
    problems = sum(op.problems for op, _, o in records if o.ok)
    tail, tail_pct = _tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "problems_per_s": problems / wall,
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak,
        "verdict_pass_frac": summary["verdict_pass_frac"],
        "ok_frac": 1.0 - summary["failed"] / summary["attempted"],
        "op_tail_s": tail,
        "certified_frac": summary["certified_frac"],
        "ideal_gap_max": summary["ideal_gap_max"],
        "ref_err_max": summary["ref_err_max"],
        "failed_frac": summary["failed"] / summary["attempted"],
    }
    notes = {
        "wall_s": wall,
        "problems": problems,
        "op_tail": (
            f"p{tail_pct:.1f} of {len(latencies)} ops, 10 beyond"
            if tail is not None
            else f"omitted: {len(latencies)} ops, need 11 for ten beyond a percentile"
        ),
        "op_latency_s": {
            op.name: [lat for other, lat, _ in records if other is op] for op in ops
        },
        "ref_errs": summary["ref_errs"],
        "failures": summary["failures"],
    }
    return summary, metrics, notes, END_TO_END


def _fixed_pass(ops, tracer=None):
    """Run every op once; return wall time and the (op, result, error) runs."""
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        runs = [(op, *_run_op(op)[1:]) for op in ops]
    return time.perf_counter() - start, runs


def _trace(args, ops):
    """Per-layer metrics from a traced pass over a fixed prefix of the ops.

    Passes, in order: (lab_run only) untraced with the depth pool at nproc
    workers, untraced with LAB_THREADS=1, traced with LAB_THREADS=1.  The
    traced pass is single-threaded so that layer seconds add up to op wall
    time; the tracer keeps one span stack per thread all the same.  lab_run
    reports must be byte-identical across the three passes.
    """
    import tracer as tracing
    import workloads

    ops = ops[: workloads.TRACE_OPS[args.workload]]
    lab = args.workload == "lab_run"
    pooled_s, pooled = _fixed_pass(ops) if lab else (None, [])
    os.environ["LAB_THREADS"] = "1"
    single_s, single = _fixed_pass(ops)
    tracer = tracing.Tracer()
    traced_s, traced = _fixed_pass(ops, tracer)
    os.environ["LAB_THREADS"] = str(NPROC)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)

    records = []
    for runs in (pooled, single, traced):
        records += [(op, None, _check(op, res, err)) for op, res, err in runs]
    if lab:
        for index in range(len(ops)):
            payloads = {
                None if run[2] is not None else run[1][1]
                for run in (pooled[index], single[index], traced[index])
            }
            if len(payloads) != 1:
                records[index][2].fail("report.json differs across LAB_THREADS")
    summary = _summary(records)

    agg = tracer.aggregate()
    metrics = {}
    for name, _unit in PER_LAYER:
        metrics[name] = float(agg.get(name, 0.0))
    for name in ("minimax.worst_case_gmres", "minimax.ideal_gmres",
                 "fov.fov_summary", "fov.fov_boundary"):
        metrics[name + ".share"] = agg.get(name + ".s", 0.0) / traced_s
    errs = summary["ref_errs"]
    metrics["minimax.worst_case_gmres.ref_err_max"] = errs.get("minimax.worst_case_gmres", 0.0)
    metrics["minimax.ideal_gmres.ref_err_max"] = errs.get("minimax.ideal_gmres", 0.0)
    metrics["fov.nu_fov.ref_err_max"] = errs.get("fov.nu_fov", 0.0)
    traced_outcomes = [outcome for _, _, outcome in records[-len(traced):]]
    metrics["minimax.ideal_gmres.certified"] = float(
        sum(o.certified for o in traced_outcomes)
    )
    metrics["minimax.ideal_gmres.gap_max"] = max(o.gap_max for o in traced_outcomes)
    metrics["experiment.pool_speedup"] = single_s / pooled_s if lab else 0.0
    metrics["trace.untraced_s"] = single_s
    metrics["trace.overhead_s"] = traced_s - single_s

    names, predicted = DOMINANT[args.workload]
    share = sum(metrics[name] for name in names)
    notes = {
        "ops": [op.name for op in ops],
        "pooled_s": pooled_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "dominant_layer": {
            "layers": names,
            "measured_share": share,
            "profiled_share": predicted,
            "verdict": "confirmed" if share > 0.5 else "refuted",
        },
        "failures": summary["failures"],
    }
    return summary, metrics, notes, PER_LAYER


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def _print_report(args, env, metrics, notes, listed):
    print(f"gmreslab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    shown = listed if args.trace else listed + INFORMATIONAL
    for name, unit in shown:
        print(f"  {name:<42} {_fmt(metrics[name]):>14} {unit}")
    for key, value in notes.items():
        print(f"  [{key}] {value}")
    print("details " + json.dumps({"env": env, "metrics": metrics, "notes": notes}))


def _run_one(args):
    if not (SRC / "gmreslab" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ["LAB_THREADS"] = str(NPROC)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, setup_s, setup, versions = _setup(args, workdir)
        if args.trace:
            summary, metrics, notes, listed = _trace(args, ops)
        else:
            summary, metrics, notes, listed = _measure(args, ops, setup_s)
        notes["setup"] = setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = _environment(args, versions)
    _print_report(args, env, metrics, notes, listed)
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed},
    }
    print(json.dumps(result))
    return 0


def _run_all(args):
    """Each workload in a fresh process; prints every metric of each."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        details = [line for line in proc.stdout.splitlines() if line.startswith("details ")]
        if proc.returncode != 0 or not details:
            print(f"error: {workload} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results[workload] = json.loads(details[-1][len("details "):])
        results[workload]["result"] = json.loads(proc.stdout.splitlines()[-1])
    listed = PER_LAYER if args.trace else END_TO_END + INFORMATIONAL
    print("environment: " + json.dumps(results[WORKLOADS[0]]["env"]))
    print(f"{'metric':<42} {'unit':<9}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit in listed:
        row = "".join(f"{_fmt(results[w]['metrics'][name]):>14}" for w in WORKLOADS)
        print(f"{name:<42} {unit:<9}{row}")
    for workload in WORKLOADS:
        for key, value in results[workload]["notes"].items():
            print(f"[{workload}] {key}: {value}")
    print(json.dumps({w: results[w]["result"] for w in WORKLOADS}))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
