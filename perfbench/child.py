"""One benchmark process: set up a workload, run it, check its outputs.

run.py starts every child in a fresh interpreter (so process-global
state such as the optimizer's hypothesis-gate cache never carries over)
with its working directory inside a temporary directory, and passes one
JSON job:

    {"workload": ..., "seed": ..., "budget_s": ..., "setup_only": bool,
     "traced": bool, "root": <checkout root>}

The child writes result.json into its working directory.  The
"ready" time stamp is taken on the system-wide monotonic clock right
after set-up, so run.py can time set-up from the moment it spawned the
process.  A run reports "unit_walls" (one per CLI call or fiber pass)
and "op_walls", the latencies whose quantiles run.py reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

# The program's own acceptance bound for the criterion-2 solve (E, mu and
# profile against the sech-soliton oracle); the fiber probe reuses it.
ORACLE_TOL = 1e-3
# user-expression spec against pure_power p=8 on the same profiles
USER_SPEC_TOL = 1e-12
GATE = ("f0", "f1", "f2", "f3", "f4")
OUT = "out"

LOG_SWEEP_ARGV = [
    "sweep", "--builtin", "log_supercritical", "--dim", "2",
    "--masses", "0.5,1,2,4,8,16,32,64", "--radius", "400", "--points", "4001",
    "--stretch", "150", "--max-iters", "800", "--grad-tol", "1e-8", "--out", OUT,
]

# fiber_batch: the criterion-5 builtins at their criterion-5 dimension,
# parameters and mass range, plus the README user spec (== pure_power p=8)
FIBER_CASES = (
    ("pure_power", 1, {"p": 8.0}, (0.5, 2.0)),
    ("log_supercritical", 2, {}, (1.5, 4.0)),
    ("critical_piecewise", 5, {}, (0.5, 2.0)),
    ("f6prime_example", 3, {"beta": 1.0, "beta_N": 1.0 / 3.0}, (0.5, 2.0)),
)
USER_F, USER_F_PRIMITIVE = "abs(t)^6 * t", "abs(t)^8 / 8"
FIBER_RADIUS, FIBER_POINTS = 24.0, 24001
# 5 specs x 20 profiles = 100 operations, so p90 has ten above it
PROFILES_PER_SPEC = 20


def _rel(a, b):
    return abs(a / b - 1.0)


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class LogSweep:
    """Criterion 3 over 2^-1..2^6 as one in-process ``nlsground sweep``
    call: cold first point, warm chain, Newton polish, backfill."""

    def setup(self, seed):
        from nlsground import cli
        self.cli = cli

    def run(self, budget_s, tracer):
        t0 = time.perf_counter()
        code = self.cli.main(list(LOG_SWEEP_ARGV))   # looked up late: tracing patches it
        wall = time.perf_counter() - t0
        self.code = code
        return {"unit_walls": [wall], "op_walls": [wall]}

    def check(self):
        paths = [os.path.join(OUT, name) for name in sorted(os.listdir(OUT))]
        with open(os.path.join(OUT, "verdicts.json")) as fh:
            rep = json.load(fh)
        v = rep["verdicts"]
        held = {
            "all_positive": bool(v["all_positive"]),
            "nonincreasing": bool(v["nonincreasing"]["verdict"]),
            "strictly_decreasing": bool(v["strictly_decreasing"]["verdict"]),
            "small_mass_blowup": bool(v["small_mass_blowup"]["verdict"]),
        }
        converged = [bool(c) for c in rep["converged"]]
        return {"ok": self.code == 0 and all(held.values()), "exit_code": self.code,
                "digest": _digest(*paths), "verdicts": held, "converged": converged}


def smooth_profiles(grid, count, gen, mass_range):
    """Seeded smooth bumps on the mass sphere, built like criterion 5's."""
    import numpy as np
    from nlsground import GridFunction, sphere_retract
    out = []
    r = grid.nodes
    for _ in range(count):
        sigma = gen.uniform(0.9, 1.7)
        base = np.exp(-((r / sigma) ** 2))
        k = int(gen.integers(0, 3))
        if k:
            base = base * (1.0 + 0.25 * gen.uniform(-1, 1)
                           * np.cos(k * math.pi * r / (5.0 * sigma)))
        base[-1] = 0.0
        out.append(sphere_retract(GridFunction(grid, base), gen.uniform(*mass_range)))
    return out


class FiberBatch:
    """Cold projections plus reduced gradients, never the optimizer.

    A pass runs check_conditions once per spec, then one operation,
    project followed by reduced_gradient, per profile, and writes each
    spec's first reduced gradient as CSV.  Passes repeat while the next
    one, taking as long as the last, still ends within the budget.  An
    operation's latency is its mean over the passes."""

    def setup(self, seed):
        import numpy as np
        from nlsground import GridFunction, builtin, make_grid
        from nlsground.expressions import compile_expression
        from nlsground.nonlinearity import from_callables
        from nlsground.oracles import Soliton1D
        gen = np.random.default_rng(seed)
        grids = {}
        self.specs = []
        for name, N, params, mass_range in FIBER_CASES:
            grid = grids.setdefault(N, make_grid(N, FIBER_RADIUS, FIBER_POINTS))
            self.specs.append((name, builtin(name, N, **params), N,
                               smooth_profiles(grid, PROFILES_PER_SPEC, gen, mass_range)))
        user = from_callables("user", compile_expression(USER_F),
                              compile_expression(USER_F_PRIMITIVE), params={"N": 1})
        self.specs.append(("user", user, 1, self.specs[0][3]))
        # oracle probe: the exact 1D soliton must be a fixed point of the
        # projection, with J equal to its energy and -<dJ, w>/m to mu
        self.mu = Soliton1D.mu_for_mass(8.0, 1.0)
        self.E = Soliton1D.energy_of_mass(8.0, 1.0)
        self.w = GridFunction(grids[1], Soliton1D(8.0, self.mu).profile(grids[1].nodes))

    def run(self, budget_s, tracer):
        from nlsground import functional, nonlinearity
        specs = [(name, nl if tracer is None else tracer.wrap_spec(nl), N, profiles)
                 for name, nl, N, profiles in self.specs]
        os.makedirs(OUT)
        csv_paths = [os.path.join(OUT, f"{name}-grad.csv") for name, _, _, _ in specs]
        unit_walls, op_times = [], {}
        self.results = {}
        self.op_keys = []
        self.failures = {}
        self.reports = {}
        self.csv_digests = set()
        clock = time.perf_counter
        t_start = clock()
        while not unit_walls or clock() - t_start + unit_walls[-1] <= budget_s:
            t_pass = clock()
            for (name, nl, N, profiles), csv_path in zip(specs, csv_paths):
                self.reports[name] = nonlinearity.check_conditions(nl, N)
                for i, u in enumerate(profiles):
                    key = (name, i)
                    self.op_keys.append(key)
                    t0 = clock()
                    try:
                        fr = functional.project(u, nl)
                        g = functional.reduced_gradient(u, nl, fr)
                    except (functional.NonconformanceError, ValueError) as exc:
                        self.failures[key] = str(exc)
                        continue
                    finally:
                        op_times.setdefault(key, []).append(clock() - t0)
                    if i == 0:
                        g.to_csv(csv_path)
                    row = (fr.s_star, fr.value, fr.residual, fr.bracket, g.values)
                    if key not in self.results:
                        self.results[key] = row
                    elif self.results[key][:4] != row[:4]:
                        self.failures[key] = "passes disagree"
            unit_walls.append(clock() - t_pass)
            self.csv_digests.add(_digest(*filter(os.path.exists, csv_paths)))
        op_walls = [sum(times) / len(times) for times in op_times.values()]
        return {"unit_walls": unit_walls, "op_walls": op_walls, "attempted": len(self.op_keys)}

    def check(self):
        import numpy as np
        from nlsground import functional
        failures = dict(self.failures)
        specs = {name: (nl, profiles) for name, nl, _, profiles in self.specs}
        for (name, i), (s, value, residual, (lo, hi), grad) in self.results.items():
            nl, profiles = specs[name]
            u = profiles[i]
            b_lo = functional._fiber_bracket(u, nl, lo)
            b_hi = functional._fiber_bracket(u, nl, hi)
            if not (math.isfinite(residual) and b_lo >= 0.0 >= b_hi and lo <= s <= hi):
                failures[name, i] = (f"bracket [{lo}, {hi}] gives [{b_lo}, {b_hi}], "
                                     f"residual {residual}")
            if not np.all(np.isfinite(grad)):
                failures[name, i] = "non-finite reduced gradient"
        for i in range(PROFILES_PER_SPEC):
            ref, usr = self.results.get(("pure_power", i)), self.results.get(("user", i))
            if ref and usr and not (
                abs(usr[0] - ref[0]) <= USER_SPEC_TOL * max(1.0, abs(ref[0]))
                and _rel(usr[1], ref[1]) <= USER_SPEC_TOL
            ):
                failures["user", i] = "s* or J differ from pure_power p=8"
        problems = [f"{name}#{i}: {why}" for (name, i), why in failures.items()]
        for name, report in self.reports.items():
            bad = [h for h in GATE if report.verdict(h) != "pass"]
            if bad:
                problems.append(f"{name}: check_conditions gives {bad} not pass")
        pp = specs["pure_power"][0]
        fr = functional.project(self.w, pp)
        g = functional.reduced_gradient(self.w, pp, fr)
        grid = self.w.grid
        mu_est = -grid.inner(g.values, self.w.values) / grid.inner(self.w.values, self.w.values)
        moved = functional.dilate(fr.s_star, self.w).values
        errs = {
            "energy_rel_err": _rel(fr.value, self.E),
            "mu_rel_err": _rel(mu_est, self.mu),
            "profile_rel_err": grid.norm(moved - self.w.values) / grid.norm(self.w.values),
        }
        if not all(e <= ORACLE_TOL for e in errs.values()):
            problems.append(f"soliton probe errors {errs} above {ORACLE_TOL}")
        if len(self.csv_digests) != 1:
            problems.append(f"{len(self.csv_digests)} distinct gradient CSVs over the passes")
        digest = hashlib.sha256(repr((sorted(self.csv_digests), sorted(
            (k, v[:4]) for k, v in self.results.items()))).encode()).hexdigest()
        return {"ok": not problems, "problems": problems[:10], "errors": errs,
                "failed_ops": sum(key in failures for key in self.op_keys),
                "digest": digest}


WORKLOADS = {
    "log_sweep": LogSweep,
    "fiber_batch": FiberBatch,
}


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import numpy
    import scipy
    workload = WORKLOADS[job["workload"]]()
    workload.setup(job["seed"])
    result = {"ready": time.monotonic(),
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not job["setup_only"]:
        tracer = None
        if job["traced"]:
            from tracer import Tracer
            tracer = Tracer().install()
        try:
            result.update(workload.run(job["budget_s"], tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["check"] = workload.check()
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.save("spans.npz")
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
