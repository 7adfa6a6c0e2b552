"""Command line interface.

Subcommands:
    gamma     three-route exponent report for one instance (JSON)
    clusters  sticky-dynamics paths, merge events and partition (CSV or JSON)
    verify    seeded randomized cross-check suites
    moments   contour-quadrature moment and rate at scale T
    sweep     one-parameter grid of exponents (CSV or JSON)

Exit codes: 0 success, 1 invalid input (machine-readable error object on
stderr), 2 tolerance or suite failure. Floats are printed with 17 significant
digits so every value round-trips exactly. Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from typing import Iterable, Sequence

import numpy as np

from .clusters import _forest, _simulate, event_tolerance, separation_margins, simulate_inertia
from .closedform import gamma3, gamma_report, verify_recursion_identity
from .errors import (
    InvalidContour,
    NonFiniteResult,
    NonPositiveMoment,
    NonPositiveMultiplicity,
    NonPositiveTime,
    ShelyapError,
    UnsortedLocations,
)
from .instance import MomentInstance, validate_instance
from .quadrature import (
    DEFAULT_SIGMAS,
    _route1_contour,
    contour_moment_complex,
    default_contour_config,
    heat_kernel,
    upper_bound_value,
)
from .sampling import random_instance, sample_matching
from .solvers import (
    check_minimizer_structure,
    oracle_gamma1,
    oracle_gamma2,
    solve_gamma1,
    solve_gamma2,
)

TRIPLE_TOL = 1e-8
ORACLE_OBJ_TOL = 1e-10
ORACLE_COORD_TOL = 1e-8
RECURSION_TOL = 1e-9
MOMENTUM_TOL = 1e-12
ANCHOR_TOL = 1e-12
COM_TOL = 1e-10
QUAD_REL_TOL = 1e-8


def format_float(v: float) -> str:
    """%.17g; every printed float passes here, so NaN and inf never print."""
    if not math.isfinite(v):
        raise NonFiniteResult(f"computed value {v} is not finite")
    return f"{v:.17g}"


def _check_finite(values: np.ndarray) -> None:
    """Raise NonFiniteResult naming the first non-finite entry, if any."""
    finite = np.isfinite(values)
    if not finite.all():
        format_float(float(values[finite.argmin()]))


def _format_row(values: np.ndarray) -> str:
    """format_float of every entry of a 1-D float array, joined by ", ".

    One finiteness check and one %-formatting call for the whole row.
    """
    _check_finite(values)
    return ", ".join(["%.17g"] * len(values)) % tuple(values.tolist())


def dumps_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with %.17g floats (json module can't control that)."""
    sp = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":
            return "[" + _format_row(obj) + "]"
        return dumps_json(obj.tolist(), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            f'{sp}  {json.dumps(str(k))}: {dumps_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + rows + "\n" + sp + "}"
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        flat = all(not isinstance(v, (dict, list, tuple)) for v in items)
        flat_rows = not flat and all(
            isinstance(v, (list, tuple))
            and all(not isinstance(u, (dict, list, tuple)) for u in v)
            for v in items
        )
        if flat or flat_rows:
            return "[" + ", ".join(dumps_json(v) for v in items) + "]"
        rows = ",\n".join(f"{sp}  " + dumps_json(v, indent + 1) for v in items)
        return "[\n" + rows + "\n" + sp + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(lines: Iterable[str], output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _fail(exc: BaseException) -> int:
    sys.stderr.write(
        dumps_json({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )
    return 1


def _parse_float(text: str, error: type[ShelyapError]) -> float:
    try:
        return float(text)
    except ValueError:
        raise error(f"{text!r} is not a number") from None


def _parse_floats(text: str, error: type[ShelyapError]) -> list[float]:
    """Comma-separated numbers; an empty field is an error, not skipped."""
    return [_parse_float(s, error) for s in text.split(",")]


def _load_instance(args) -> MomentInstance:
    inline = args.t is not None or args.x is not None or args.m is not None
    if args.input and inline:
        raise ShelyapError("give either --input or inline --t/--x/--m, not both")
    if args.input:
        with open(args.input) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ShelyapError("instance file must hold a JSON object")
        for key in ("t", "x", "m"):
            if key not in doc:
                raise ShelyapError(f"instance file missing key {key!r}")
        if not isinstance(doc["x"], list) or not isinstance(doc["m"], list):
            raise ShelyapError("instance file keys 'x' and 'm' must be lists")
        return validate_instance(doc["t"], doc["x"], doc["m"])
    if args.t is None or args.x is None or args.m is None:
        raise ShelyapError("need --input FILE or all of --t/--x/--m")
    return validate_instance(
        _parse_float(args.t, NonPositiveTime),
        _parse_floats(args.x, UnsortedLocations),
        _parse_floats(args.m, NonPositiveMultiplicity),
    )


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="instance JSON file with keys t, x, m")
    p.add_argument("--t", help="horizon t > 0")
    p.add_argument("--x", help="comma-separated strictly increasing locations")
    p.add_argument("--m", help="comma-separated integer multiplicities >= 1")
    p.add_argument("--output", help="write result here instead of stdout")


# --- gamma ------------------------------------------------------------------

def cmd_gamma(args) -> int:
    # NaN fails this too; exit 2 is kept for routes that really disagree
    if not args.tolerance >= 0.0:
        raise ShelyapError(f"tolerance {args.tolerance} must be >= 0")
    inst = _load_instance(args)
    rep = gamma_report(inst)
    _emit([dumps_json(rep.to_json_dict()), "\n"], args.output)
    ok = (
        rep.max_pairwise_dev <= args.tolerance * (1.0 + abs(rep.gamma3))
        and rep.structure_ok
    )
    return 0 if ok else 2


# --- clusters ----------------------------------------------------------------

def cmd_clusters(args) -> int:
    inst = _load_instance(args)
    res = simulate_inertia(inst)
    grid = np.asarray(res.inertia_paths[0].breakpoints)
    if args.format == "csv":
        s_text = _format_row(grid).split(", ")
        # each path's zeta and xi interleaved, the order its lines print them
        rows = [np.column_stack((z.values, x.values)).ravel()
                for z, x in zip(res.inertia_paths, res.optimal_paths)]
        for pairs in rows:  # nothing is written before every row has passed
            _check_finite(pairs)

        # %.17g never needs CSV quoting. Lines go out a path at a time: holding
        # all n * K line strings made peak RSS vary by up to 9 MB between runs
        def lines():
            yield "index,s,zeta,xi\n"
            for i, pairs in enumerate(rows, 1):
                row = iter(_format_row(pairs).split(", "))
                yield from [f"{i},{s},{zv},{xv}\n" for s, zv, xv in zip(s_text, row, row)]

        _emit(lines(), args.output)
        return 0
    doc = {
        "partition": [list(b) for b in res.partition],
        "q_hat": res.q_hat,
        "cluster_masses": list(res.cluster_masses),
        "terminal_positions": list(res.terminal_positions),
        "drifts": list(res.drifts),
        "events": [
            {"time": e.time, "merged": [list(iv) for iv in e.merged],
             "position": e.position}
            for e in res.events
        ],
        "breakpoints": grid,
        "zeta": [p.values for p in res.inertia_paths],
        "xi": [p.values for p in res.optimal_paths],
    }
    _emit([dumps_json(doc), "\n"], args.output)
    return 0


# --- verify -------------------------------------------------------------------

def _check_triple(inst: MomentInstance) -> bool:
    rep = gamma_report(inst)
    return rep.max_pairwise_dev <= TRIPLE_TOL * (1.0 + abs(rep.gamma3))


def _check_oracle(inst: MomentInstance) -> bool:
    for fast, slow in (
        (solve_gamma1(inst), oracle_gamma1(inst)),
        (solve_gamma2(inst), oracle_gamma2(inst)),
    ):
        if abs(fast.objective - slow.objective) > ORACLE_OBJ_TOL:
            return False
        dev = max(abs(p - q) for p, q in zip(fast.values, slow.values))
        if dev > ORACLE_COORD_TOL:
            return False
    return True


def _check_structure(inst: MomentInstance) -> bool | None:
    """None means boundary-flagged, excluded from the count."""
    sol = solve_gamma1(inst)
    rep = check_minimizer_structure(sol, inst, _simulate(inst))
    if rep.boundary:
        return None
    return rep.ok


def _check_recursion(inst: MomentInstance) -> bool:
    chk = verify_recursion_identity(inst)
    return chk.abs_diff <= RECURSION_TOL * (1.0 + abs(chk.rhs))


def _check_physics(inst: MomentInstance) -> bool:
    run = _simulate(inst)
    lo, hi, mass, birth, position, speed, parent = _forest(inst, run.events)
    n, t = inst.n, inst.t
    kid = np.flatnonzero(parent >= 0)
    up = parent[kid]
    # each merge group carries its members' momentum and is born where they
    # meet, up to gaps that close within event_tolerance(t)
    p = mass * speed
    inflow = np.bincount(up, weights=p[kid], minlength=len(lo))[n:]
    scale = np.bincount(up, weights=np.abs(p[kid]), minlength=len(lo))[n:]
    if np.any(np.abs(p[n:] - inflow) > MOMENTUM_TOL * (1.0 + scale)):
        return False
    meet = position[kid] + speed[kid] * (birth[up] - birth[kid])
    window = np.ptp(speed) * event_tolerance(t) + ANCHOR_TOL * (1.0 + np.abs(position[up]))
    if np.any(np.abs(meet - position[up]) > window):
        return False
    # each block moves at its locations' mean initial speed; blocks end apart
    root = np.flatnonzero(parent < 0)[np.argsort(lo[parent < 0])]
    cum_p = np.cumsum([0.0, *(mass[:n] * speed[:n])])
    psi = (cum_p[hi[root]] - cum_p[lo[root] - 1]) / mass[root]
    if np.any(np.abs(speed[root] - psi) > COM_TOL * (1.0 + np.abs(psi))):
        return False
    terminal = position[root] + speed[root] * (t - birth[root])
    if np.any(np.diff(terminal) <= 0.0):
        return False
    return len(root) == 1 or bool(np.all(separation_margins(inst, run.partition) > 0.0))


def _quadrature_checks(rng: np.random.Generator, count: int) -> list[bool]:
    if count == 0:
        return []
    out: list[bool] = []
    for _ in range(count):
        T = float(rng.uniform(0.5, 10.0))
        t = float(rng.uniform(0.2, 3.0))
        x0 = float(rng.uniform(-1.5, 1.5))
        inst = validate_instance(t, [x0], [1])
        cfg = default_contour_config(T, inst, points=200)
        mom = contour_moment_complex(T, inst, cfg).real
        ref = heat_kernel(T * t, T * x0)
        ok = abs(mom - ref) <= QUAD_REL_TOL * ref
        # default offset [-x/t] makes the bound tight, so allow quadrature slack
        ub = upper_bound_value(T, inst, cfg.offsets)
        out.append(ok and mom <= ub * (1.0 + QUAD_REL_TOL))
    # shift invariance and strict domination on a two-coordinate instance
    inst = validate_instance(1.0, [0.0], [2])
    base_cfg = default_contour_config(4.0, inst)
    base = contour_moment_complex(4.0, inst, base_cfg).real
    ok_shift = True
    for delta in (-0.5, 0.25, 0.5):
        cfg = dataclasses.replace(
            base_cfg, offsets=tuple(a + delta for a in base_cfg.offsets)
        )
        moved = contour_moment_complex(4.0, inst, cfg).real
        if abs(moved - base) > QUAD_REL_TOL * abs(base):
            ok_shift = False
    out.append(ok_shift)
    cfg = dataclasses.replace(
        base_cfg, offsets=tuple(a + 0.4 for a in base_cfg.offsets)
    )
    ub = upper_bound_value(4.0, inst, cfg.offsets)
    out.append(contour_moment_complex(4.0, inst, cfg).real <= ub)
    return out


def _on_random(check):
    """A suite that applies check to count fresh random instances."""
    return lambda rng, count: [check(random_instance(rng)) for _ in range(count)]


# name -> (rng, count) -> results, None for a boundary skip; a suite draws
# from default_rng([seed, its position here])
SUITES = {
    "triple": _on_random(_check_triple),
    "oracle": lambda rng, count: [
        _check_oracle(inst)
        for inst in sample_matching(rng, lambda i: i.nu <= 10, count)
    ],
    "structure": _on_random(_check_structure),
    "recursion": _on_random(_check_recursion),
    "physics": _on_random(_check_physics),
    "quadrature": _quadrature_checks,
}


def cmd_verify(args) -> int:
    if args.count < 0:
        raise ShelyapError(f"count {args.count} must be >= 0")
    if args.seed < 0:
        raise ShelyapError(f"seed {args.seed} must be >= 0")
    names = list(SUITES) if args.suites is None else [
        s.strip() for s in args.suites.split(",") if s.strip()
    ]
    if not names:
        raise ShelyapError(f"no suite named; pick from {', '.join(SUITES)}")
    for s in names:
        if s not in SUITES:
            raise ShelyapError(f"unknown suite {s!r}; pick from {', '.join(SUITES)}")
    lines = []
    all_ok = True
    for name in names:
        rng = np.random.default_rng([args.seed, list(SUITES).index(name)])
        raw = SUITES[name](rng, args.count)
        results = [r for r in raw if r is not None]
        passed = sum(results)
        skipped = len(raw) - len(results)
        note = f" ({skipped} boundary skipped)" if skipped else ""
        lines.append(f"{name}: {passed}/{len(results)} pass{note}")
        all_ok = all_ok and passed == len(results)
    lines.append("VERIFY PASS" if all_ok else "VERIFY FAIL")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all_ok else 2


# --- moments -------------------------------------------------------------------

def cmd_moments(args) -> int:
    inst = _load_instance(args)
    T = float(args.T)
    cfg, route1 = _route1_contour(
        T, inst, args.points, args.truncation_sigmas, args.rule
    )
    if args.offsets is not None:
        offsets = _parse_floats(args.offsets, InvalidContour)
        cfg = dataclasses.replace(cfg, offsets=tuple(offsets))
    val = contour_moment_complex(T, inst, cfg)
    if not math.isfinite(val.real):
        raise NonFiniteResult(f"moment {val.real} is not finite")
    if not val.real > 0.0:
        raise NonPositiveMoment(f"moment {val.real} has no log-rate")
    rate = math.log(val.real) / T
    gamma = route1.objective
    doc = {
        "moment": val.real,
        "rate": rate,
        "gamma": gamma,
        "gap": rate - gamma,
        "imag_residual": abs(val.imag) / max(abs(val.real), 1e-300),
        "offsets": list(cfg.offsets),
        "points": cfg.points,
        "truncation": cfg.truncation,
    }
    _emit([dumps_json(doc), "\n"], args.output)
    return 0


# --- sweep --------------------------------------------------------------------

def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ShelyapError(f"grid {text!r} must be start:stop:count")
    try:
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise ShelyapError(f"malformed grid {text!r}: {e}") from None
    if num < 0:
        raise ShelyapError(f"grid count {num} must be >= 0")
    return np.linspace(start, stop, num)


def _sweep_row(inst: MomentInstance, value: float) -> tuple:
    run = _simulate(inst)
    s0 = run.events[0].time if run.events else None
    return value, gamma3(inst, run), len(run.partition), s0


def cmd_sweep(args) -> int:
    base = _load_instance(args)
    grid = _parse_grid(args.grid)
    param = args.param
    if param != "t":
        if not (param.startswith("x") and param[1:].isdigit()):
            raise ShelyapError(f"param {param!r} must be 't' or 'x<i>'")
        loc = int(param[1:])
        if not 1 <= loc <= base.n:
            raise ShelyapError(f"param {param!r} out of range for n={base.n}")

    def make(value: float) -> MomentInstance:
        if param == "t":
            return validate_instance(value, base.x, base.m)
        xs = list(base.x)
        xs[loc - 1] = value
        return validate_instance(base.t, xs, base.m)

    insts = [make(float(v)) for v in grid]
    rows = [_sweep_row(inst, float(v)) for inst, v in zip(insts, grid)]
    if args.format == "json":
        doc = [
            {"parameter": v, "gamma": g, "q_hat": q, "s0": s0}
            for v, g, q, s0 in rows
        ]
        _emit([dumps_json(doc), "\n"], args.output)
        return 0
    lines = ["parameter,gamma,q_hat,s0\n"]
    for v, g, q, s0 in rows:
        fields = [format_float(v), format_float(g), str(q),
                  "" if s0 is None else format_float(s0)]
        lines.append(",".join(fields) + "\n")
    _emit(lines, args.output)
    return 0


# --- wiring -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No flag starts with a digit, i or n, so a token like -1,0, -2:0.5:3,
        # -.4, -inf or -nan,0 is a value; argparse's default only accepts
        # plain negative numbers.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        sys.stderr.write(
            dumps_json({"error": "UsageError", "message": message}) + "\n"
        )
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="shelyap", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="three-route exponent report")
    _add_instance_args(g)
    g.add_argument("--tolerance", type=float, default=TRIPLE_TOL,
                   help="relative agreement tolerance (default 1e-8)")
    g.set_defaults(func=cmd_gamma)

    c = sub.add_parser("clusters", help="sticky-dynamics paths and partition")
    _add_instance_args(c)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(func=cmd_clusters)

    v = sub.add_parser("verify", help="seeded randomized cross-check suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=int, default=100,
                   help="instances (or checks) per suite")
    v.add_argument("--suites", help=f"comma list from: {', '.join(SUITES)}")
    v.set_defaults(func=cmd_verify)

    q = sub.add_parser("moments", help="contour moment and rate at scale T")
    _add_instance_args(q)
    q.add_argument("--T", required=True, type=float, help="moment scale T > 0")
    q.add_argument("--points", type=int, help="grid points per axis")
    q.add_argument("--truncation-sigmas", type=float, default=DEFAULT_SIGMAS,
                   help="half-width Y = sigmas/sqrt(T t)")
    q.add_argument("--offsets", help="comma-separated contour offsets")
    q.add_argument("--rule", choices=("gauss", "trapezoid"), default="gauss")
    q.set_defaults(func=cmd_moments)

    s = sub.add_parser("sweep", help="exponent along a parameter grid")
    _add_instance_args(s)
    s.add_argument("--param", required=True, help="'t' or 'x<i>' (1-based)")
    s.add_argument("--grid", required=True, help="start:stop:count")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # degenerate input may overflow inside numpy; format_float turns any
        # NaN or inf that reaches the output into NonFiniteResult, so stderr
        # carries only the error object
        with np.errstate(all="ignore"):
            return args.func(args)
    except ShelyapError as e:
        return _fail(e)
    except (OSError, json.JSONDecodeError, ValueError, OverflowError) as e:
        return _fail(e)
    except MemoryError as e:
        # a grid too large to allocate; numpy raises a private subclass, so
        # every such failure is reported under the one name
        return _fail(MemoryError(str(e) or "cannot allocate the requested size"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
