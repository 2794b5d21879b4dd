"""Command-line surface: check / solve / sweep / oracle.

Configuration comes from an optional dotted-key text file plus flags
(flags win); a command takes only the flags and keys it reads.  Every
run writes the fully resolved configuration next to its outputs so
results are reproducible from their own artifacts.

Exit codes: 0 ok, 2 not converged, 3 nonconformance, 4 hypothesis fail,
5 inconclusive, 6 verdict fail, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .grid import ConfigurationError, make_grid, open_artifact
from .nonlinearity import builtin, check_conditions, from_callables
from .functional import NonconformanceError
from .optimizer import DiagnosticError, SolveOptions, multistart_minimize
from .sweep import mountain_pass_floor, sweep
from .oracles import Bubble, OracleTable, Soliton1D, gn_check
from .expressions import ExpressionError, compile_expression

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_NONCONFORMANCE = 3
EXIT_HYPOTHESIS_FAIL = 4
EXIT_INCONCLUSIVE = 5
EXIT_VERDICT_FAIL = 6
EXIT_USAGE = 64

# exit-code battery for `check`: the standing hypotheses of the theory;
# f6/f6'/f7/odd are reported but do not drive the exit code
_CHECK_BATTERY = ("f0", "f1", "f2", "f3", "f4", "f5")
# the gate of `solve` and `sweep`: the hypotheses the fiber-map reduction
# rests on ((f4) makes the Pohozaev projection unique); --force skips it
_GATE = ("f0", "f1", "f2", "f3", "f4")


class UsageError(ValueError):
    pass


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines with dotted keys; '#' starts a comment."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:  # exc.object: the file's bytes
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise UsageError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    cfg = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def dump_config(cfg: dict) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


# argparse dest -> the dotted key its flag sets; a command reads its flags' keys
_FLAG_KEYS = {
    "dim": "problem.dim", "builtin": "problem.builtin",
    "f_expr": "problem.f_expr", "F_expr": "problem.F_expr",
    "radius": "grid.radius", "points": "grid.points", "stretch": "grid.stretch",
    "mass": "solve.mass", "masses": "solve.masses", "seed": "solve.seed",
    "restarts": "solve.restarts", "cold_restarts": "solve.cold_restarts",
    "max_iters": "solve.max_iters", "grad_tol": "solve.grad_tol",
    "force": "solve.force", "out": "output.dir",
}


def resolve_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
        keys = sorted(key for dest, key in _FLAG_KEYS.items() if dest in vars(args))
        unknown = sorted(k for k in cfg if k not in keys
                         and not k.startswith("problem.param."))
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys: {', '.join(unknown)} "
                             f"({args.command} reads {', '.join(keys)} "
                             "and problem.param.<name>)")
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            cfg[key] = str(value)
    for kv in getattr(args, "param", None) or []:
        if "=" not in kv:
            raise UsageError(f"--param expects name=value, got {kv!r}")
        name, value = kv.split("=", 1)
        cfg[f"problem.param.{name.strip()}"] = value.strip()
    return cfg


def _number(cfg: dict, key: str, kind, default=None, least=None):
    """cfg[key] (default when absent) as kind, int or float; a value that
    is not one, or is below least, is a usage error naming the key."""
    value = cfg.get(key, default)
    try:
        number = kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"{key} = {value!r} is not {what}") from None
    if least is not None and number < least:
        raise UsageError(f"{key} = {number}: must be at least {least}")
    return number


def build_nonlinearity(cfg: dict, N: int):
    name = cfg.get("problem.builtin")
    if name:
        try:
            params = {key.split(".", 2)[2]: float(value)
                      for key, value in cfg.items() if key.startswith("problem.param.")}
            return builtin(name, N, **params)
        except (ValueError, TypeError) as exc:
            # an unknown name, a non-number, a parameter the builtin does
            # not take or a value outside its range
            raise UsageError(f"--builtin {name}: {exc}") from None
    f_expr, F_expr = cfg.get("problem.f_expr"), cfg.get("problem.F_expr")
    if f_expr and F_expr:
        f = compile_expression(f_expr)
        F = compile_expression(F_expr)
        return from_callables("user", f, F, params={"N": N})
    raise UsageError("need --builtin NAME or both --f-expr and --F-expr")


def build_grid(cfg: dict, N: int):
    R = _number(cfg, "grid.radius", float, 30.0)
    K = _number(cfg, "grid.points", int, 2001)
    stretch = _number(cfg, "grid.stretch", float) if cfg.get("grid.stretch") else None
    return make_grid(N, R, K, stretch=stretch)


def build_options(cfg: dict, mass: float) -> SolveOptions:
    """SolveOptions at mass; a setting cfg leaves out keeps its default."""
    given = {name: _number(cfg, f"solve.{name}", kind)
             for name, kind in (("max_iters", int), ("grad_tol", float), ("seed", int))
             if f"solve.{name}" in cfg}
    return SolveOptions(mass=mass, **given)


def _gate(cfg: dict, nl, N: int):
    """Check nl against _GATE in dimension N and return the report, unless
    solve.force is true (then None, with no check); a failed hypothesis
    ends the command in NonconformanceError."""
    if cfg.get("solve.force", "false").lower() == "true":
        return None
    report = check_conditions(nl, N)
    bad = [h for h in _GATE if report.verdict(h) == "fail"]
    if bad:
        raise NonconformanceError(f"nonlinearity {nl.name!r} fails {', '.join(bad)}; "
                                  "pass --force to override")
    return report


def _outdir(cfg: dict) -> str:
    out = cfg.get("output.dir", "runs/latest")
    try:
        os.makedirs(out, exist_ok=True)
    except UnicodeEncodeError:
        raise UsageError(f"output directory {out!r} has no name in the file-system "
                         f"encoding {sys.getfilesystemencoding()}") from None
    except OSError as exc:  # e.g. a regular file on the path
        raise UsageError(f"cannot create output directory {out!r}: {exc.strerror}") from None
    return out


def _strict(obj):
    """obj with every non-finite float, which JSON cannot hold, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _json(obj) -> str:
    """Strict JSON: a non-finite float is written as null."""
    return json.dumps(_strict(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def cmd_check(args) -> int:
    cfg = resolve_config(args)
    if "problem.dim" not in cfg:
        raise UsageError("check requires --dim")
    N = _number(cfg, "problem.dim", int, least=1)
    nl = build_nonlinearity(cfg, N)
    report = check_conditions(nl, N)
    out = _outdir(cfg)
    with open_artifact(os.path.join(out, "conditions.json")) as fh:
        fh.write(_json(report.as_dict()))
    with open_artifact(os.path.join(out, "resolved.cfg")) as fh:
        fh.write(dump_config(cfg))
    battery = {h: report.verdict(h) for h in _CHECK_BATTERY}
    print(f"{nl.name} N={N}: " + " ".join(f"{h}={v}" for h, v in battery.items()))
    extra = {h: report.verdict(h) for h in ("f6", "f6p", "f7", "odd")}
    print("informational: " + " ".join(f"{h}={v}" for h, v in extra.items()))
    if any(v == "fail" for v in battery.values()):
        return EXIT_HYPOTHESIS_FAIL
    if any(v == "inconclusive" for v in battery.values()):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    if "problem.dim" not in cfg or "solve.mass" not in cfg:
        raise UsageError("solve requires --dim and --mass")
    N = _number(cfg, "problem.dim", int, least=1)
    mass = _number(cfg, "solve.mass", float)
    nl = build_nonlinearity(cfg, N)
    grid = build_grid(cfg, N)
    opts = build_options(cfg, mass)
    restarts = _number(cfg, "solve.restarts", int, 5, least=1)
    _gate(cfg, nl, N)
    best, reports = multistart_minimize(grid, nl, opts, restarts=restarts)
    out = _outdir(cfg)
    with open_artifact(os.path.join(out, "resolved.cfg")) as fh:
        fh.write(dump_config(cfg))
    best.profile.to_csv(os.path.join(out, "profile.csv"))
    payload = best.as_dict()
    payload["replicas"] = [r.as_dict(with_trace=False) for r in reports]
    with open_artifact(os.path.join(out, "report.json")) as fh:
        fh.write(_json(payload))
    print(f"E={best.energy:.12g} mu={best.multiplier:.12g} "
          f"converged={best.converged} iters={best.iterations}")
    return EXIT_OK if best.converged else EXIT_NOT_CONVERGED


def _parse_masses(text: str):
    """lo:hi:n (log-spaced) or a comma list: at least two finite,
    positive, increasing masses."""
    try:
        if ":" in text:
            lo, hi, n = text.split(":")
            masses = list(np.geomspace(float(lo), float(hi), int(n)))
        else:
            masses = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--masses {text!r}: {exc}") from None
    if len(masses) < 2 or not all(0 < a < b < math.inf for a, b in zip(masses, masses[1:])):
        raise UsageError(f"--masses {text!r}: need at least two finite, positive, "
                         "increasing masses")
    return masses


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if "problem.dim" not in cfg or "solve.masses" not in cfg:
        raise UsageError("sweep requires --dim and --masses")
    N = _number(cfg, "problem.dim", int, least=1)
    masses = _parse_masses(cfg["solve.masses"])
    nl = build_nonlinearity(cfg, N)
    grid = build_grid(cfg, N)
    opts = build_options(cfg, masses[0])
    cold = _number(cfg, "solve.cold_restarts", int, 0, least=0)
    report = _gate(cfg, nl, N)
    result = sweep(grid, nl, masses, opts, cold_restarts=cold)
    out = _outdir(cfg)
    with open_artifact(os.path.join(out, "resolved.cfg")) as fh:
        fh.write(dump_config(cfg))
    result.to_csv(os.path.join(out, "sweep.csv"))
    payload = result.as_dict()
    try:
        payload["mountain_pass_floor"] = mountain_pass_floor(grid, nl, report)
    except NonconformanceError:
        pass
    with open_artifact(os.path.join(out, "verdicts.json")) as fh:
        fh.write(_json(payload))
    for m, rep, chain, start in zip(result.masses, result.reports,
                                    result.chains, result.warm_starts):
        line = f"m={m:.6g} chain={chain} warm_start={start}"
        if rep is None:
            line += " failed"
        else:
            line += (f" converged={rep.converged} iterations={rep.iterations}"
                     f" termination={rep.termination} projections={rep.projections}"
                     f" brackets={rep.bracket_evaluations} newton={rep.newton_steps}"
                     f" endpoint={rep.endpoint}")
        print(line, file=sys.stderr)
    # block characters that stdout cannot encode (an ASCII locale) print as escapes
    enc = sys.stdout.encoding or "utf-8"
    print("E_m:", result.sparkline().encode(enc, "backslashreplace").decode(enc))
    v = result.verdicts
    print(f"positive={v['all_positive']} nonincreasing={v['nonincreasing']['verdict']} "
          f"strict={v['strictly_decreasing']['verdict']} "
          f"blowup_slope={v['small_mass_blowup']['slope']}")
    claimed_ok = (
        v["all_positive"]
        and v["nonincreasing"]["verdict"]
        and v["strictly_decreasing"]["verdict"]
        and v["positive_multipliers"]
    )
    return EXIT_OK if claimed_ok else EXIT_VERDICT_FAIL


def cmd_oracle(args) -> int:
    case = args.case
    reads = {"soliton": ("p", "mu"), "bubble": ("dim", "eps"), "gn": ("dim", "p")}[case]
    unread = [f"--{k}" for k in ("dim", "p", "mu", "eps")
              if getattr(args, k) is not None and k not in reads]
    if unread:
        raise UsageError(f"oracle --case {case} does not read {', '.join(unread)}")
    if case == "bubble" and args.dim is None:
        raise UsageError("oracle --case bubble requires --dim")
    if case == "gn" and (args.dim is None or args.p is None):
        raise UsageError("oracle --case gn requires --dim and --p")
    given = " ".join(f"--{k} {getattr(args, k)}" for k in reads
                     if getattr(args, k) is not None)
    try:
        if case == "soliton":
            table = Soliton1D(8.0 if args.p is None else args.p,
                              1.0 if args.mu is None else args.mu).table()
        elif case == "bubble":
            eps = args.eps if args.eps is not None else \
                Bubble.eps_for_mass(args.dim, Bubble.minimal_mass(args.dim))
            table = Bubble(args.dim, eps).table()
        else:  # "gn"; argparse admits no other case
            table = OracleTable(
                case="gagliardo_nirenberg",
                params={"N": args.dim, "p": args.p},
                values={"best_constant_estimate": gn_check(args.dim, args.p)},
                error_bounds={},
            )
    except ValueError as exc:
        # the oracles' own range checks (dimension, exponent, eps, mu)
        raise UsageError(f"oracle --case {case}: {exc}") from None
    except OverflowError:
        raise UsageError(f"oracle --case {case}: a value computed from {given} "
                         "overflows a double") from None
    bad = [f"{part}.{key}" for part in ("values", "error_bounds")
           for key, v in getattr(table, part).items() if not math.isfinite(v)]
    if bad:
        raise UsageError(f"oracle --case {case}: {', '.join(bad)} computed from {given} "
                         "not finite in a double")
    out = _outdir(resolve_config(args))
    with open_artifact(os.path.join(out, "oracle.json")) as fh:
        fh.write(_json(table.as_dict()))
    print(json.dumps(table.values, sort_keys=True))
    return EXIT_OK


def _add_problem(p: argparse.ArgumentParser):
    """The flags of the commands that build a nonlinearity."""
    p.add_argument("--config", help="dotted-key config file")
    p.add_argument("--dim", type=int, help="spatial dimension N")
    p.add_argument("--builtin", help="builtin nonlinearity name")
    p.add_argument("--param", action="append",
                   help="nonlinearity parameter name=value (repeatable)")
    p.add_argument("--f-expr", dest="f_expr", help="expression for f(t)")
    p.add_argument("--F-expr", dest="F_expr", help="expression for F(t)")
    p.add_argument("--out", help="output directory")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlsground",
        description="Normalized ground states of -Delta u = f(u) - mu u "
                    "with prescribed mass, via Pohozaev fiber projection.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", allow_abbrev=False,
                       help="certify hypotheses f0-f7 numerically")
    _add_problem(c)

    s = sub.add_parser("solve", allow_abbrev=False,
                       help="compute the ground state at one mass")
    _add_problem(s)
    s.add_argument("--mass", type=float)
    s.add_argument("--restarts", type=int)

    w = sub.add_parser("sweep", allow_abbrev=False,
                       help="sweep E_m over a mass grid")
    _add_problem(w)
    w.add_argument("--masses", help="lo:hi:n (log-spaced) or comma list")
    w.add_argument("--cold-restarts", dest="cold_restarts", type=int)

    for p in (s, w):
        p.add_argument("--seed", type=int, help="base random seed")
        p.add_argument("--radius", type=float)
        p.add_argument("--points", type=int)
        p.add_argument("--stretch", type=float)
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--grad-tol", dest="grad_tol", type=float)
        p.add_argument("--force", action="store_const", const="true",
                       help="skip the hypothesis gate")

    o = sub.add_parser("oracle", allow_abbrev=False,
                       help="emit closed-form reference tables")
    o.add_argument("--case", required=True, choices=["soliton", "bubble", "gn"])
    o.add_argument("--dim", type=int, help="spatial dimension N")
    o.add_argument("--out", help="output directory")
    o.add_argument("--p", type=float)
    o.add_argument("--mu", type=float)
    o.add_argument("--eps", type=float)

    return ap


_COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        try:
            return _COMMANDS[args.command](args)
        except DiagnosticError as exc:
            print(f"diagnostic failure: {exc}", file=sys.stderr)
            if exc.iterate is not None:
                # a usage error from _outdir reaches the handlers below
                path = os.path.join(_outdir(resolve_config(args)), "diagnostic_iterate.csv")
                exc.iterate.to_csv(path)
                print(f"iterate dumped to {path}", file=sys.stderr)
            return EXIT_NONCONFORMANCE
    except (UsageError, ExpressionError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonconformanceError as exc:
        print(f"nonconformance: {exc}", file=sys.stderr)
        return EXIT_NONCONFORMANCE


if __name__ == "__main__":
    sys.exit(main())
