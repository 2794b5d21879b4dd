"""Sweep the ground-state energy map m -> E_m and verify its structure.

The theory provides: E_m positive, continuous, nonincreasing; strictly
decreasing where multipliers are positive; E_m -> +inf as m -> 0; and
E_m -> 0 as m -> inf under f6, while under the opposite sign condition
f6' the limit E_inf stays above the mountain-pass floor of the critical
comparison problem,

    c_mp = (1/N) S^{N/2} beta^{-(N-2)/2},

with S^{N/2} the gradient norm of the Aubin-Talenti bubble (computed by
the independent oracle quadrature) and beta the coefficient bounding
F(t) <= (beta/2*) |t|^{2*}.

Each mass point is solved by warm-starting from the previous minimizer
rescaled to the next mass, with optional cold multistart checks; the
verdict block tolerates monotonicity violations up to 1e-4 E_m as
discretization noise and requires gaps of at least 1e-6 E_m for the
strict-decrease verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import RadialGrid
from .nonlinearity import NonlinearitySpec, check_conditions
from .functional import NonconformanceError
from .optimizer import SolveOptions, SolveReport, minimize, multistart_minimize

_NONINC_TOL = 1e-4
_STRICT_GAP = 1e-6
_BLOWUP_SLOPE = -0.1


@dataclass
class SweepResult:
    masses: np.ndarray
    energies: np.ndarray
    multipliers: np.ndarray
    converged: np.ndarray
    verdicts: dict
    reports: list = field(default_factory=list, repr=False)
    failures: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "masses": [float(x) for x in self.masses],
            "energies": [float(x) for x in self.energies],
            "multipliers": [float(x) for x in self.multipliers],
            "converged": [bool(x) for x in self.converged],
            "verdicts": self.verdicts,
            "failures": self.failures,
        }

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("m,E,mu,converged\n")
            for m, e, mu, c in zip(self.masses, self.energies,
                                   self.multipliers, self.converged):
                fh.write(f"{m:.17g},{e:.17g},{mu:.17g},{int(c)}\n")

    def sparkline(self) -> str:
        """ASCII sparkline of log E over the mass grid."""
        marks = "_▁▂▃▄▅▆▇█"
        with np.errstate(divide="ignore"):
            y = np.log10(np.maximum(self.energies, 1e-300))
        lo, hi = float(np.min(y)), float(np.max(y))
        span = hi - lo if hi > lo else 1.0
        idx = ((y - lo) / span * (len(marks) - 1)).astype(int)
        return "".join(marks[i] for i in idx)


def _small_mass_slope(m, e):
    """Least-squares slope of log E against log m over the smallest
    sampled decade; None with fewer than two points there or a
    nonpositive energy among them."""
    small = m <= m.min() * 10.0
    if small.sum() < 2 or not np.all(e[small] > 0):
        return None
    return float(np.polyfit(np.log(m[small]), np.log(e[small]), 1)[0])


def _verdicts(masses, energies, multipliers, converged):
    e = np.asarray(energies, dtype=float)
    m = np.asarray(masses, dtype=float)
    diffs = np.diff(e)  # should be <= 0 for nonincreasing
    scale = np.maximum(np.abs(e[:-1]), np.abs(e[1:]))
    violations = diffs / np.maximum(scale, 1e-300)
    worst = float(np.max(violations)) if violations.size else 0.0
    nonincreasing = bool(np.all(violations <= _NONINC_TOL))
    gaps = -diffs / np.maximum(scale, 1e-300)
    min_gap = float(np.min(gaps)) if gaps.size else 0.0
    strictly_decreasing = bool(np.all(gaps >= _STRICT_GAP))
    slope = _small_mass_slope(m, e)
    top = min(3, len(e))
    e_inf = float(np.mean(e[-top:]))
    e_inf_spread = float(np.max(e[-top:]) - np.min(e[-top:]))
    return {
        "all_positive": bool(np.all(e > 0)),
        "nonincreasing": {"verdict": nonincreasing, "max_violation": worst},
        "strictly_decreasing": {"verdict": strictly_decreasing, "min_gap": min_gap},
        "small_mass_blowup": {
            "slope": slope,
            "verdict": (slope is not None and slope <= _BLOWUP_SLOPE),
        },
        "large_mass_limit": {"estimate": e_inf, "spread": e_inf_spread},
        "positive_multipliers": bool(
            all(mu > 0 for mu, c in zip(multipliers, converged) if c)
        ),
    }


def _merge(record):
    """Pick a point's report from its {"warm", "cold", "backfill"} record:
    converged runs win by energy; otherwise a sane descending-backfill run
    is the most trustworthy (it inherits its shape from the resolvable
    side), then the warm ascending run."""
    everything = [record[k] for k in ("warm", "backfill", "cold") if record[k] is not None]
    conv = [r for r in everything if r.converged]
    if conv:
        return min(conv, key=lambda r: r.energy)
    for k in ("backfill", "warm"):
        r = record[k]
        if r is not None and math.isfinite(r.energy) and r.energy > 0:
            return r
    return min(everything, key=lambda r: r.pde_residual) if everything else None


def sweep(grid: RadialGrid, nl: NonlinearitySpec, masses, opts: SolveOptions,
          cold_restarts: int = 0) -> SweepResult:
    """Compute E_m over an increasing mass grid.

    Runs an ascending warm-started chain (each point starts from the
    previous minimizer rescaled to the new mass) with optional cold
    multistart replicas, then backfills non-converged points by a
    descending chain from the resolvable side: masses whose minimizer
    sits below grid resolution otherwise inherit ascending-chain
    artifacts.  A failing point (solver exception) is recorded and
    skipped; the sweep itself fails only when more than a quarter of the
    points fail.
    """
    masses = np.asarray(list(masses), dtype=float)
    if masses.size < 2 or not np.all(np.diff(masses) > 0):
        raise ValueError("sweep needs an increasing grid of at least two masses")
    if not np.all(masses > 0):
        raise ValueError("masses must be positive")
    n = masses.size
    # one record per mass point: the report each chain supplied there
    records = [dict(warm=None, cold=None, backfill=None) for _ in range(n)]
    failures = []
    prev_profile = None
    for k, m in enumerate(masses):
        point = replace(opts, mass=float(m))
        try:
            if prev_profile is not None:
                warm = replace(point, custom_profile=prev_profile)
                records[k]["warm"] = minimize(grid, nl, warm)
            if cold_restarts > 0 or prev_profile is None:
                records[k]["cold"], _ = multistart_minimize(
                    grid, nl, point, restarts=max(cold_restarts, 1))
        except (NonconformanceError, ValueError, RuntimeError) as exc:
            failures.append({"mass": float(m), "error": str(exc)})
            continue
        chosen = _merge(records[k])
        if chosen is not None:
            prev_profile = chosen.profile
    # descending backfill through the non-converged range
    prev_profile = None
    for k in range(n - 1, -1, -1):
        current = _merge(records[k])
        if current is not None and current.converged:
            prev_profile = current.profile
            continue
        if prev_profile is None:
            continue
        point = replace(opts, mass=float(masses[k]), custom_profile=prev_profile)
        try:
            records[k]["backfill"] = minimize(grid, nl, point)
        except (NonconformanceError, ValueError, RuntimeError):
            continue
        merged = _merge(records[k])
        if merged is not None:
            prev_profile = merged.profile

    energies = np.full(n, np.nan)
    multipliers = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    reports: list = [None] * n
    for k in range(n):
        rep = _merge(records[k])
        if rep is None:
            continue
        reports[k] = rep
        energies[k] = rep.energy
        multipliers[k] = rep.multiplier
        converged[k] = rep.converged
    if len(failures) > 0.25 * n:
        raise RuntimeError(
            f"sweep failed at {len(failures)} of {n} points: {failures}"
        )
    ok = ~np.isnan(energies)
    verdicts = _verdicts(masses[ok], energies[ok], multipliers[ok], converged[ok])
    return SweepResult(
        masses=masses, energies=energies, multipliers=multipliers,
        converged=converged, verdicts=verdicts, reports=reports,
        failures=failures,
    )


def mountain_pass_floor(grid: RadialGrid, nl: NonlinearitySpec) -> float:
    """Lower bound for E_m when f satisfies f6' and F <= (beta/2*)|t|^{2*}.

    Reduces to the critical-power comparison level
    (1/N) S^{N/2} beta^{-(N-2)/2}, with S^{N/2} from the bubble oracle.
    """
    from .oracles import critical_grad_norm_sq

    N = grid.dimension
    if N < 3:
        raise NonconformanceError("the mountain-pass floor needs N >= 3")
    if "f6p" not in nl.claimed:
        report = check_conditions(nl, N)
        if report.verdict("f6p") != "pass":
            raise NonconformanceError(
                f"{nl.name!r} does not satisfy (f6'): no critical comparison floor"
            )
    beta = float(nl.params.get("beta", 1.0))
    level, _ = critical_grad_norm_sq(N)
    return level / N * beta ** (-(N - 2.0) / 2.0)


def small_mass_diagnostic(result: SweepResult) -> float:
    """Least-squares slope of log E against log m over the smallest decade."""
    m = np.asarray(result.masses, dtype=float)
    e = np.asarray(result.energies, dtype=float)
    ok = np.isfinite(e) & (e > 0)
    m, e = m[ok], e[ok]
    if m.size < 2 or m.max() / m.min() < 100.0:
        raise ValueError("sweep must cover at least two decades of masses")
    slope = _small_mass_slope(m, e)
    if slope is None:
        raise ValueError("not enough points in the smallest decade")
    return slope
