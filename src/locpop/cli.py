"""Command-line front end: single computations, sweeps, figure data, verify.

Subcommands
-----------
market-eq         enumerate market equilibria at one location pair
nash-check        Nash verdict for one profile, with the binding deviation
nash-region       (x1, x2) scan at fixed a: every outcome with its NE flag
symmetric-region  NE shares along the symmetric diagonal x2 = 1 - x1
welfare           consumer welfare at one (x1, x2, s1)
social-opt        unconstrained welfare maximizer(s)
poa-curve         price of anarchy over an a-grid (or a single --a)
pos-curve         price of stability over an a-grid (or a single --a)
figures           emit all figure datasets into a directory
verify            run the oracle cross-check suites; nonzero exit on failure

Output is JSON (one document) or CSV (schema-versioned header); floats
are formatted to 12 significant digits so identical invocations are
byte-identical. Files are written atomically.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from itertools import repeat

import numpy as np

from .behaviors import (
    NE_TOL,
    BehaviorKind,
    NoEquilibriumError,
    best_deviation,
    is_nash,
    neutral_nash,
    pessimistic_nash_interval,
    symmetric_pessimistic_nash_set,
)
from .model import EquilibriumProfile, GameParams, Locations, enumerate_market_equilibria
from .oracle import GridSpec, _region_scan, verify_suites
from .welfare import _consumer_welfare_array, consumer_welfare, poa, pos, social_optimum

A_GRID_STEP = 0.005  # default sweep: 0.005 .. 0.995
REGION_GRID_DEFAULT = 201
REGION_GRID_MAX = 2001
VERIFY_GRID_MAX = 10**6  # verify builds arrays of each grid size
REGION_HEADER = ("a", "x1", "x2", "kind", "s1", "is_ne", "welfare")
SYMMETRIC_HEADER = ("a", "x1", "s1")


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _json_doc(payload: dict) -> str:
    return json.dumps(_round_floats(payload), indent=2, allow_nan=False) + "\n"


def _csv_doc(header, rows) -> str:
    """The CSV document of ``rows`` (tuples) under ``header``.

    Each row is formatted by one ``%``-template built from the first row:
    ``%.12g`` (the digits of :func:`_fmt`) for a float field, ``%s`` for
    any other. Precondition: each column of one table keeps one type, and
    no header name or field needs CSV quoting (no comma, quote or line
    break). Lines are streamed into the buffer, not collected in a list.
    """
    buf = io.StringIO()
    buf.write("# schema=1\n" + ",".join(header) + "\n")
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        template = ",".join("%.12g" if isinstance(v, float) else "%s" for v in first) + "\n"
        buf.write(template % first)
        buf.writelines(map(template.__mod__, rows))
    return buf.getvalue()


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, header, rows, payload=None, **meta):
    """Write a result in ``args.format``, building only that document.

    CSV: ``rows`` under ``header``. JSON: ``payload`` when given, else the
    rows keyed by ``header`` after the ``meta`` keys.
    """
    if args.format == "csv":
        text = _csv_doc(header, rows)
    elif payload is not None:
        text = _json_doc(payload)
    else:
        text = _json_doc({**meta, "rows": [dict(zip(header, r)) for r in rows]})
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    elif isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # unbuffered stdout (PYTHONUNBUFFERED, -u): one raw write can end
        # short without raising, so write the rest until it is all out or fails
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[sys.stdout.buffer.write(data):]
    else:
        sys.stdout.write(text)


def _params(args) -> GameParams:
    return GameParams(args.a, args.theta)


def _behavior(args) -> BehaviorKind:
    return BehaviorKind(args.behavior)


def _a_grid(behavior: BehaviorKind) -> np.ndarray:
    """The default a-sweep, cut for neutral firms to the levels with an NE."""
    grid = np.arange(1, 200) * A_GRID_STEP
    if behavior is BehaviorKind.NEUTRAL:
        grid = grid[[neutral_nash(GameParams(float(a))) is not None for a in grid]]
    return grid


# ---------------------------------------------------------------------------
# subcommands


def _cmd_market_eq(args) -> int:
    params = _params(args)
    loc = Locations.from_unordered(args.x1, args.x2)
    outcomes = enumerate_market_equilibria(params, loc)
    _emit(args, ("kind", "s1", "s2"), [(o.kind.value, o.s1, o.s2) for o in outcomes], {
        "a": params.a, "theta": params.theta,
        "x1": loc.x1, "x2": loc.x2,
        "count": len(outcomes),
        "outcomes": [o.as_dict() for o in outcomes],
    })
    return 0


def _match_outcome(params, loc, s1):
    for outcome in enumerate_market_equilibria(params, loc):
        if abs(outcome.s1 - s1) <= 1e-9:
            return outcome
    return None


def _cmd_nash_check(args) -> int:
    params = _params(args)
    behavior = _behavior(args)
    # --s1 is the share of the firm at --x1; sorting the locations would
    # silently hand it to the other firm
    if args.x1 > args.x2:
        raise ValueError(
            f"nash-check needs --x1 <= --x2, got x1={args.x1} > x2={args.x2}; "
            "swap the locations and pass 1 - s1 as --s1"
        )
    loc = Locations(args.x1, args.x2)
    outcome = _match_outcome(params, loc, args.s1)
    if outcome is None:
        raise ValueError(
            f"s1={args.s1} is not a market equilibrium at ({loc.x1}, {loc.x2})"
        )
    profile = EquilibriumProfile(loc, outcome)
    verdict = is_nash(params, behavior, profile)
    rep1 = best_deviation(params, behavior, 1, loc.x2)
    rep2 = best_deviation(params, behavior, 2, loc.x1)
    # gains equal in exact arithmetic can round either way: within NE_TOL
    # of firm 2's, firm 1's gain binds
    binding = rep1 if rep1.payoff - profile.s1 >= rep2.payoff - profile.s2 - NE_TOL else rep2
    payload = {
        "a": params.a, "theta": params.theta, "behavior": behavior.value,
        "x1": loc.x1, "x2": loc.x2, "s1": outcome.s1, "kind": outcome.kind.value,
        "is_nash": verdict,
        "binding_deviation": {
            "deviator": binding.deviator,
            "location": binding.location,
            "payoff": binding.payoff,
        },
    }
    if behavior is BehaviorKind.PESSIMISTIC:
        payload["support_interval"] = pessimistic_nash_interval(params, loc).as_dict()
    header = ("a", "theta", "behavior", "x1", "x2", "s1", "kind", "is_nash",
              "deviator", "deviation_location", "deviation_payoff")
    row = (params.a, params.theta, behavior.value, loc.x1, loc.x2, outcome.s1,
           outcome.kind.value, int(verdict), binding.deviator,
           binding.location, binding.payoff)
    _emit(args, header, [row], payload)
    return 0


def _region_rows(params, behavior, n_locations):
    """REGION_HEADER rows of the region scan, one per market equilibrium,
    generated one grid row at a time, so no list of every row is built."""
    for x1, x2, kind, s1, is_ne in _region_scan(params, behavior, n_locations):
        welfare = _consumer_welfare_array(params, x1, x2, s1)
        yield from zip(repeat(params.a), repeat(x1), x2.tolist(), [k.value for k in kind],
                       s1.tolist(), is_ne.astype(int).tolist(), welfare.tolist())


def _cmd_nash_region(args) -> int:
    params = _params(args)
    behavior = _behavior(args)
    rows = _region_rows(params, behavior, args.grid_locations)
    _emit(args, REGION_HEADER, rows, behavior=behavior.value, theta=params.theta)
    return 0


def _symmetric_rows(params, n_points):
    rows = []
    for x1 in np.linspace(0.0, 0.5, n_points):
        for s1 in symmetric_pessimistic_nash_set(params, float(x1)):
            rows.append((params.a, float(x1), s1))
    return rows


def _cmd_symmetric_region(args) -> int:
    rows = _symmetric_rows(_params(args), args.grid_locations)
    _emit(args, SYMMETRIC_HEADER, rows)
    return 0


def _cmd_welfare(args) -> int:
    params = _params(args)
    w = consumer_welfare(params, args.x1, args.x2, args.s1)
    payload = {"a": params.a, "theta": params.theta, "x1": args.x1,
               "x2": args.x2, "s1": args.s1, "welfare": w}
    _emit(args, tuple(payload), [tuple(payload.values())], payload)
    return 0


def _cmd_social_opt(args) -> int:
    params = _params(args)
    optima = social_optimum(params)
    header = ("a", "theta", "x1", "x2", "s1", "welfare")
    rows = [(params.a, params.theta, o.x1, o.x2, o.s1, o.welfare) for o in optima]
    _emit(args, header, rows, {"a": params.a, "theta": params.theta,
                               "optima": [o.as_dict() for o in optima]})
    return 0


def _ratio_header(label):
    return ("a", "theta", "behavior", label,
            "opt_x1", "opt_x2", "opt_s1", "opt_welfare",
            "ne_x1", "ne_x2", "ne_s1", "ne_welfare")


def _ratio_rows(behavior, theta, ratio_fn, a_values):
    rows = []
    for a in a_values:
        params = GameParams(float(a), theta)
        report = ratio_fn(params, behavior)
        ne = report.extremal_ne
        rows.append((
            params.a, theta, behavior.value, report.value,
            report.optimum.x1, report.optimum.x2, report.optimum.s1,
            report.optimum.welfare,
            ne.profile.x1, ne.profile.x2, ne.profile.s1, ne.welfare,
        ))
    return rows


def _cmd_ratio_curve(args, ratio_fn, label) -> int:
    behavior = _behavior(args)
    # the ratio raises for optimists, and for neutral a > 1/2 on request
    a_values = [args.a] if args.a is not None else _a_grid(behavior)
    rows = _ratio_rows(behavior, args.theta, ratio_fn, a_values)
    _emit(args, _ratio_header(label), rows)
    return 0


def _figure_tables(theta):
    """(file name, header, rows) of each figure dataset, built one at a time."""
    pessimistic = BehaviorKind.PESSIMISTIC
    yield "symmetric_equilibria.csv", SYMMETRIC_HEADER, [
        row for a in _a_grid(pessimistic)
        for row in _symmetric_rows(GameParams(float(a), theta), 201)
    ]
    yield "nash_region_a_half.csv", REGION_HEADER, _region_rows(
        GameParams(0.5, theta), pessimistic, REGION_GRID_DEFAULT)
    for name, behavior, ratio_fn in (
        ("neutral_efficiency.csv", BehaviorKind.NEUTRAL, poa),
        ("pessimistic_poa.csv", pessimistic, poa),
        ("pessimistic_pos.csv", pessimistic, pos),
    ):
        yield name, _ratio_header("value"), _ratio_rows(
            behavior, theta, ratio_fn, _a_grid(behavior))


def _cmd_figures(args) -> int:
    outdir = args.out or "figures"
    for name, header, rows in _figure_tables(args.theta):
        path = os.path.join(outdir, name)
        _atomic_write(path, _csv_doc(header, rows))
        print(path)
    return 0


def _cmd_verify(args) -> int:
    grid = GridSpec(args.grid_locations, args.grid_shares)
    failures = []
    for suite, ok, detail in verify_suites(args.theta, args.seed, args.instances, grid):
        status = "ok" if ok else "FAIL"
        print(f"{status:4s} {suite}: {detail}")
        if not ok:
            failures.append(suite)
    if failures:
        print(f"verification FAILED: {', '.join(failures)}")
        return 1
    print("all verification suites passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _bounded(minimum, maximum=None):
    """argparse type: an integer no smaller than ``minimum`` and, when
    ``maximum`` is given, no larger."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value
    return integer


def _add_common(sub, *, needs_locations=False, needs_share=False, needs_behavior=False,
                needs_a=True):
    if needs_a:
        sub.add_argument("--a", type=float, required=True, help="externality magnitude in (0,1)")
    sub.add_argument("--theta", type=float, default=1.0, help="intrinsic utility (default 1)")
    if needs_locations:
        sub.add_argument("--x1", type=float, required=True)
        sub.add_argument("--x2", type=float, required=True)
    if needs_share:
        sub.add_argument("--s1", type=float, required=True)
    if needs_behavior:
        sub.add_argument("--behavior", required=True,
                         choices=[b.value for b in BehaviorKind])
    sub.add_argument("--out", help="write output to this path (atomic)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locpop",
        description="Equilibria, welfare and efficiency ratios for a two-firm "
                    "location game with popularity externalities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("market-eq", help="enumerate market equilibria")
    _add_common(s, needs_locations=True)
    s.set_defaults(func=_cmd_market_eq)

    s = subs.add_parser("nash-check", help="Nash verdict for one profile")
    _add_common(s, needs_locations=True, needs_share=True, needs_behavior=True)
    s.set_defaults(func=_cmd_nash_check)

    s = subs.add_parser("nash-region", help="NE scan over the location grid")
    _add_common(s, needs_behavior=True)
    # the scan is O(n^2) in time and output size
    s.add_argument("--grid-locations", type=_bounded(2, REGION_GRID_MAX),
                   default=REGION_GRID_DEFAULT)
    s.set_defaults(func=_cmd_nash_region, format="csv")

    s = subs.add_parser("symmetric-region", help="NE shares along x2 = 1 - x1")
    _add_common(s)
    s.add_argument("--grid-locations", type=_bounded(2), default=501)
    s.set_defaults(func=_cmd_symmetric_region, format="csv")

    s = subs.add_parser("welfare", help="consumer welfare at one point")
    _add_common(s, needs_locations=True, needs_share=True)
    s.set_defaults(func=_cmd_welfare)

    s = subs.add_parser("social-opt", help="unconstrained welfare optimum")
    _add_common(s)
    s.set_defaults(func=_cmd_social_opt)

    for name, fn, label in (("poa-curve", poa, "poa"), ("pos-curve", pos, "pos")):
        s = subs.add_parser(name, help=f"{label} over an a-grid")
        s.add_argument("--a", type=float, default=None,
                       help="single externality level instead of the grid")
        s.add_argument("--theta", type=float, default=1.0)
        s.add_argument("--behavior", required=True,
                       choices=[b.value for b in BehaviorKind])
        s.add_argument("--out")
        s.add_argument("--format", choices=("json", "csv"), default="csv")
        s.set_defaults(func=lambda args, fn=fn, label=label:
                       _cmd_ratio_curve(args, fn, label))

    s = subs.add_parser("figures", help="emit all figure datasets")
    s.add_argument("--theta", type=float, default=1.0)
    s.add_argument("--out", help="output directory (default: figures)")
    s.set_defaults(func=_cmd_figures)

    s = subs.add_parser("verify", help="oracle cross-check suites")
    s.add_argument("--theta", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--instances", type=_bounded(0), default=1000)
    s.add_argument("--grid-locations", type=_bounded(2, VERIFY_GRID_MAX),
                   default=GridSpec.n_locations)
    s.add_argument("--grid-shares", type=_bounded(2, VERIFY_GRID_MAX),
                   default=GridSpec.n_shares)
    s.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NoEquilibriumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``locpop verify | head -1``): point
        # stdout at devnull so the interpreter's final flush cannot raise too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
