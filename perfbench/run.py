"""nlsground solver benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload log_sweep --seed 0 --seconds 45 --trace 0

Workloads (closed loop: one caller, serial, ``--threads`` unset, BLAS and
OpenMP pools at one thread unless the caller's environment says otherwise):

  log_sweep      criterion 3, ``nlsground sweep`` on log_supercritical, N=2,
                 masses 2^-1..2^6: cold first point, warm chain, Newton
                 polish, backfill and three stalled descents.  Deterministic;
                 takes no seed.
  fiber_batch    cold ``project`` + ``reduced_gradient`` on seeded smooth
                 profiles for the four builtins and the README user spec,
                 one ``check_conditions`` per spec and pass and one gradient
                 CSV per spec and pass; no optimizer.

Each CLI call runs in a fresh interpreter (child.py), so nothing cached in
one process reaches the next; fiber_batch runs its passes in one child.
A run repeats calls (passes) while the next one, taking as long as the
last, still ends within ``--seconds``, and makes at least one.  All work
happens in a temporary directory under ``.perfbench/`` in the checkout.

On a shared 2-vCPU host each vCPU's speed switches between two levels
about 40 % apart, for spans of a second to a minute and more.  Timings
are therefore means over the run, which weight the two levels by the
time spent in each; a median or minimum jumps between them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

  setup_s          median over >= 5 fresh processes of spawn-to-ready time:
                   interpreter start, imports, grids, oracle reference
                   values and profile generation
  wall_s           mean wall time of one CLI call / one fiber_batch pass
  ok_frac          converged mass points (log_sweep) or projections passing
                   their checks (fiber_batch), over those attempted;
                   1 - failed fraction
  peak_rss_mb      largest peak resident set of an untraced process
  energy_rel_err,  J, -<dJ,w>/m and the projection's move of the exact
  mu_rel_err,      Soliton1D w on the fiber grid against its energy, mu and
  profile_rel_err  profile (fiber_batch).  log_supercritical has no
                   closed-form reference, so on log_sweep these read a
                   fixed 1.0
  op_p50_ms,       median and 90th percentile of one operation's latency:
  op_p90_ms        a CLI call, or on fiber_batch one project +
                   reduced_gradient averaged over the passes (100
                   operations, so ten lie above p90)

With ``--trace 1`` one more process runs the workload once with spans
around the public functions of grid, nonlinearity, functional, optimizer,
sweep and cli (tracer.py), and the line carries the per-layer metrics:
calls and self time per function, derived counters, and the tracing
overhead (traced minus mean untraced wall_s).  The spans are kept in
``.perfbench/trace-<workload>.npz``.

Every run checks its outputs (sweep verdicts, fiber brackets, user spec
against pure_power, the soliton probe) and that every process and pass of
the run wrote byte-identical artifacts.  A failed check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PACKAGE = os.path.join(ROOT, "src", "nlsground")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("log_sweep", "fiber_batch")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 600
THREAD_ENV = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO_")
# The workloads are serial.  Left alone, OpenBLAS splits the 24001-point
# dot products of fiber_batch over both cores, which costs a second core
# without making it faster and makes its timings noisier; a value set by
# the caller wins.
SERIAL_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB",
    "energy_rel_err": "ratio", "mu_rel_err": "ratio", "profile_rel_err": "ratio",
    "op_p50_ms": "ms", "op_p90_ms": "ms",
}


class ChildFailed(RuntimeError):
    pass


def spawn(job, workdir):
    """Run child.py on one job in a fresh interpreter; return its result."""
    os.makedirs(workdir)
    log_path = os.path.join(workdir, "child.log")
    t_spawn = time.monotonic()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(job)],
                                  cwd=workdir, env={**SERIAL_ENV, **os.environ},
                                  stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{job['workload']} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed(f"{job['workload']} child exited {proc.returncode}:\n{tail}")
    with open(os.path.join(workdir, "result.json")) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - t_spawn
    result["process_s"] = time.monotonic() - t_spawn
    return result


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def environment(versions):
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        **versions,
        "thread_env": {k: v for k, v in sorted({**SERIAL_ENV, **os.environ}.items())
                       if k.startswith(THREAD_ENV)},
    }


def run(args, tmp):
    job = {"workload": args.workload, "seed": args.seed, "root": ROOT,
           "budget_s": args.seconds, "setup_only": False, "traced": False}
    children = []

    def child(**overrides):
        result = spawn({**job, **overrides}, os.path.join(tmp, f"p{len(children)}"))
        children.append(result)
        return result

    measured = []
    t_start = time.monotonic()
    while not measured or (time.monotonic() - t_start + measured[-1]["process_s"]
                           <= args.seconds):
        measured.append(child())
    traced = child(traced=True, budget_s=0.0) if args.trace else None
    if not args.trace:
        while len(children) < SETUP_SAMPLES:
            child(setup_only=True)

    ran = measured + ([traced] if traced else [])
    checks = [r["check"] for r in ran]
    digests = {c["digest"] for c in checks}
    problems = [c for c in checks if not c["ok"]]
    if len(digests) != 1:
        problems.append({"determinism": f"{len(digests)} distinct outputs over {len(ran)} processes"})

    unit_walls = [w for r in measured for w in r["unit_walls"]]
    op_walls = [w for r in measured for w in r["op_walls"]]
    if args.workload == "log_sweep":
        attempted = len(ran)
        failed = sum(not c["ok"] for c in checks)
        flags = [f for c in checks for f in c["converged"]]
        ok_frac = sum(flags) / len(flags)
    else:
        attempted = sum(r["attempted"] for r in ran)
        failed = sum(c["failed_ops"] for c in checks)
        ok_frac = (attempted - failed) / attempted
    errors = checks[0].get("errors") or dict.fromkeys(
        ("energy_rel_err", "mu_rel_err", "profile_rel_err"), 1.0)

    if args.trace:
        from tracer import metric_unit
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["unit_walls"][0] - statistics.fmean(unit_walls)
        units = {k: metric_unit(k) for k in values}
        shutil.copyfile(os.path.join(tmp, f"p{len(children) - 1}", "spans.npz"),
                        os.path.join(WORK, f"trace-{args.workload}.npz"))
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in children),
            "wall_s": statistics.fmean(unit_walls),
            "ok_frac": ok_frac,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in measured),
            **errors,
            "op_p50_ms": 1e3 * statistics.median(op_walls),
            "op_p90_ms": 1e3 * percentile(op_walls, 90),
        }
        units = END_TO_END_UNITS

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(children[0]["versions"]),
        "processes": len(children), "units": len(unit_walls), "op_samples": len(op_walls),
        "unit_walls_s": unit_walls,
        "setup_samples_s": [r["setup_s"] for r in children],
        "checks": checks,
        "problems": problems,
    }
    print(json.dumps(detail, sort_keys=True))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no nlsground sources under {PACKAGE}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        return run(args, tmp)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
