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

Each mass point is solved by one descent warm-started from the previous
point.  J is dilation-invariant, so the start is taken in the previous
descent's own dilation class: its final iterate when that point
converged, else its reported profile (see sweep).  The verdict block
tolerates monotonicity violations up to 1e-4 E_m as discretization
noise and requires gaps of at least 1e-6 E_m for the strict-decrease
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import RadialGrid, open_artifact
from .nonlinearity import ConditionReport, NonlinearitySpec, check_conditions
from .functional import NonconformanceError
from .optimizer import SolveOptions, initial_profile, minimize
from .oracles import critical_grad_norm_sq

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
    # per point: the start the descent was given ("iterate" or
    # "profile"), None where it started cold
    warm_starts: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "masses": [float(x) for x in self.masses],
            "energies": [float(x) for x in self.energies],
            "multipliers": [float(x) for x in self.multipliers],
            "converged": [bool(x) for x in self.converged],
            "verdicts": self.verdicts,
            "failures": self.failures,
            "warm_starts": self.warm_starts,
        }

    def to_csv(self, path) -> None:
        with open_artifact(path) as fh:
            fh.write("m,E,mu,converged\n")
            for m, e, mu, c in zip(self.masses, self.energies,
                                   self.multipliers, self.converged):
                fh.write(f"{m:.17g},{e:.17g},{mu:.17g},{int(c)}\n")

    def sparkline(self) -> str:
        """ASCII sparkline of log E over the mass grid; a failed point
        (NaN energy) is a blank."""
        marks = "_▁▂▃▄▅▆▇█"
        with np.errstate(divide="ignore"):
            y = np.log10(np.maximum(self.energies, 1e-300))
        lo, hi = float(np.nanmin(y)), float(np.nanmax(y))
        span = hi - lo if hi > lo else 1.0
        return "".join(" " if np.isnan(v) else marks[int((v - lo) / span * (len(marks) - 1))]
                       for v in y)


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


def sweep(grid: RadialGrid, nl: NonlinearitySpec, masses, opts: SolveOptions) -> SweepResult:
    """Compute E_m over an increasing mass grid.

    Runs one ascending chain of descents, one per point.  The first
    point, and one that only failed points precede, starts from
    minimize's default start.  When the previous point's report
    converged, the descent starts from that report's descent iterate,
    retracted to the new mass: it keeps the dilation class the descent
    chose, where the materialized profile would reset it to the
    fixed-grid Pohozaev manifold, whose tail at large mass presses
    against the box and slows the next descent several-fold.  An
    unconverged point hands on its reported profile instead: its iterate
    is uncertified, and a chain started from one can stall (when
    criterion 4's f6' sweep hands on the iterates of its unconverged
    points, six of its seven descents end on the 1500-iteration budget:
    10222 iterations in all, against 3218).  A point whose minimizer
    sits below grid resolution stays non-converged and reports its
    descent frame's J.  f's hypotheses are not checked here (call
    check_conditions first).  A failing point (solver exception) is
    recorded and skipped; the sweep itself fails only when more than a
    quarter of the points fail, with a NonconformanceError naming each
    failed mass and its error.  A grid on which minimize's default start
    vanishes is refused with a ConfigurationError before any descent.
    """
    masses = np.asarray(list(masses), dtype=float)
    if masses.size < 2 or not np.all(np.diff(masses) > 0):
        raise ValueError("sweep needs an increasing grid of at least two masses")
    if not np.all(masses > 0):
        raise ValueError("masses must be positive")
    # the default start vanishes on a grid at every mass or at none
    initial_profile(grid, float(masses[0]))
    n = masses.size
    reports: list = [None] * n
    warm_starts: list = [None] * n
    failures = []
    prev = None
    for k, m in enumerate(masses):
        point = replace(opts, mass=float(m))
        start = None
        try:
            if prev is not None:
                warm_starts[k] = "iterate" if prev.converged else "profile"
                start = initial_profile(grid, point.mass, custom=prev.iterate
                                        if prev.converged else prev.profile)
            reports[k] = prev = minimize(grid, nl, point, start)
        except (NonconformanceError, ValueError, RuntimeError) as exc:
            failures.append({"mass": float(m), "error": str(exc)})

    energies = np.array([np.nan if r is None else r.energy for r in reports])
    multipliers = np.array([np.nan if r is None else r.multiplier for r in reports])
    converged = np.array([r is not None and r.converged for r in reports])
    if len(failures) > 0.25 * n:
        raise NonconformanceError(
            f"sweep failed at {len(failures)} of {n} points: "
            + "; ".join(f"m={f['mass']!r}: {f['error']}" for f in failures))
    ok = ~np.isnan(energies)
    verdicts = _verdicts(masses[ok], energies[ok], multipliers[ok], converged[ok])
    return SweepResult(
        masses=masses, energies=energies, multipliers=multipliers,
        converged=converged, verdicts=verdicts, reports=reports,
        failures=failures, warm_starts=warm_starts,
    )


def mountain_pass_floor(grid: RadialGrid, nl: NonlinearitySpec,
                        report: ConditionReport | None = None) -> float:
    """Lower bound for E_m when f satisfies f6' and F <= (beta/2*)|t|^{2*}.

    Reduces to the critical-power comparison level
    (1/N) S^{N/2} beta^{-(N-2)/2}, with S^{N/2} from the bubble oracle.
    A spec that does not claim f6' needs check_conditions' f6' verdict in
    the grid's dimension: report, if given, is that check of nl, else the
    check runs here.
    """
    N = grid.dimension
    if N < 3:
        raise NonconformanceError("the mountain-pass floor needs N >= 3")
    if "f6p" not in nl.claimed:
        if report is None:
            report = check_conditions(nl, N)
        if report.verdict("f6p") != "pass":
            raise NonconformanceError(
                f"{nl.name!r} does not satisfy (f6'): no critical comparison floor"
            )
    beta = float(nl.params.get("beta", 1.0))
    level, _ = critical_grad_norm_sq(N)
    return level / N * beta ** (-(N - 2.0) / 2.0)

