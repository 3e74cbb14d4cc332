"""The bare-interpreter check: the scalar core, the numpy-free commands and
the five figure tables run on the stdlib alone and give their pinned outputs.

``locpop.model``, ``locpop.behaviors``, ``locpop.welfare`` and the CLI
commands outside the numpy layer must import and run without numpy. This
script imports ``locpop`` from ``src``, and checks in this order:

1. ``import locpop`` and building the CLI parser load no ``numpy``,
   ``scipy`` or ``dataclasses`` module. numpy is still importable here, so
   a guarded import shows too wherever numpy is installed.
2. numpy is blocked (``sys.modules["numpy"] = None`` makes every later
   import of it raise).
3. The ``repr`` of every public scalar closed form on a fixed corpus of
   boundary instances is printed: gap == a, one ulp either side of it,
   tight kind II and IV conditions, a = 1/4 and a = 1/2, the II/III and
   III/IV share inversions, and ``BEST_NE_BREAKPOINT``. Sets are printed
   sorted, so the output does not depend on string hashing. The last
   stdout line is the sha256 of the lines before it, which must be
   ``PINNED_SHA256``.
4. Every pinned invocation of ``golden_outputs.NUMPY_FREE_COMMANDS`` prints
   its golden-manifest bytes (``golden_outputs.mismatches``).
5. One record of each of the ten scalar record types comes back from a
   ``pickle`` round trip as an equal record of its own type, with the same
   ``repr``.
6. The five tables of ``locpop figures`` are written as CSV text and match
   the figure digests (``golden_outputs.figure_mismatches``). Four come from
   ``cli._figure_tables``, which reads no numpy for them; the region table
   ``nash_region_a_half.csv``, which the CLI scans with numpy, is built by
   the cell-by-cell reference ``region_reference.py`` and written by the
   CLI's CSV writer, so the paper's figure data is pinned on every
   interpreter too.

Each failure is one line on stderr, and the script then exits 1.

Run it as ``python tests/scalar_corpus.py`` under any supported interpreter;
it needs no installed package. CI runs it before numpy is installed, and
tier-1's ``test_package.py::test_scalar_core_runs_without_numpy`` with
numpy installed. Float ``repr`` is the shortest round-trip string, so equal
digests mean bit-identical results. After an intended change to a scalar
closed form, compare this output with the parent commit's (``git stash``,
run, ``git stash pop``, run, ``diff``), check that only the intended lines
moved, and paste the new digest into ``PINNED_SHA256``.
"""

import hashlib
import math
import pathlib
import pickle
import sys

PINNED_SHA256 = "50025efa155e1678a508b1caac304f665cd1a8838d61a5bcef444e69d652572a"

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src"


def corpus_lines(model, behaviors, welfare):
    up = math.nextafter
    breakpoint_a = welfare.BEST_NE_BREAKPOINT
    # (label, a, x1, x2)
    instances = [
        ("gap == a", 0.25, 0.25, 0.5),
        ("gap == a", 0.5, 0.25, 0.75),
        ("gap == a", 0.3, 0.2, 0.5),
        ("gap == a", 0.75, 0.125, 0.875),
        ("gap one ulp above a", 0.5, 0.25, up(0.75, 1.0)),
        ("gap one ulp below a", 0.5, up(0.25, 1.0), 0.75),
        ("gap rounds to a", 0.25, up(0.25, 0.0), 0.5),
        ("II tight", 0.25, 0.125, 0.3125),
        ("II tight", 0.375, 0.25, 0.4375),
        ("II tight", 0.5, 0.3, 0.5),
        ("II one ulp slack", 0.5, 0.3, up(0.5, 1.0)),
        ("IV tight", 0.25, 0.625, 0.75),
        ("IV tight", 0.375, 0.5625, 0.75),
        ("IV tight", 0.5, 0.5, 0.7),
        ("II and IV tight", 0.25, 0.5, 0.5),
        ("II/III inversion", 0.5, 0.08, 0.5),
        ("III/IV inversion", 0.25, 0.525, 0.55),
        ("five splits", 1 / 3, 1 / 3, 2 / 3),
        ("co-located centre", 0.3, 0.5, 0.5),
        ("symmetric thresholds", 0.5, 0.375, 0.625),
        ("worst pessimistic NE", 0.25, 0.375, 0.375),
        ("best NE breakpoint, low branch", breakpoint_a, (1 - breakpoint_a) / 2,
         (1 + breakpoint_a) / 2),
        ("best NE breakpoint, mid branch", breakpoint_a, 0.5 - breakpoint_a, 0.5),
        ("interval ends", 0.6, 0.0, 1.0),
        ("both at 0", 0.2, 0.0, 0.0),
        ("both at 1", 0.2, 1.0, 1.0),
    ]
    behavior_kinds = list(behaviors.BehaviorKind)
    lines = []

    def add(label, thunk):
        """One line: ``repr`` of ``thunk()``, or the rejection it raised."""
        try:
            shown = repr(thunk())
        except (ValueError, RuntimeError, behaviors.NoEquilibriumError) as error:
            shown = f"raises {type(error).__name__}: {error}"
        lines.append(f"{label}: {shown}")

    for label, a, x1, x2 in instances:
        params, loc = model.GameParams(a), model.Locations(x1, x2)
        lines.append(f"# {label}: a={a!r} x1={x1!r} x2={x2!r}")
        outcomes = model.enumerate_market_equilibria(params, loc)
        lines.append(f"enumerate_market_equilibria: {outcomes!r}")
        count = model.market_equilibrium_count(params, loc)
        lines.append(f"market_equilibrium_count: {count.count} tight {sorted(count.tight)}")
        add("distinct_shares", lambda: model.distinct_shares(outcomes))
        add("is_market_equilibrium at 0, 1/2, 1", lambda: [
            model.is_market_equilibrium(params, loc, s) for s in (0.0, 0.5, 1.0)])
        add("mirror_locations", lambda: model.mirror_locations(loc))
        add("consumer_utility at 0, x1, 1/2, x2, 1", lambda: [
            model.consumer_utility(params, v, x, s.s1)
            for s in outcomes for x in (x1, x2) for v in (0.0, x1, 0.5, x2, 1.0)])
        interval = behaviors.pessimistic_nash_interval(params, loc)
        lines.append(f"pessimistic_nash_interval: {interval!r} clamped {interval.clamped()!r}")
        for outcome in outcomes:
            profile = model.EquilibriumProfile(loc, outcome)
            add(f"{outcome.kind.value} is_market_equilibrium",
                lambda: model.is_market_equilibrium(params, loc, outcome.s1))
            add(f"{outcome.kind.value} mirror_profile", lambda: model.mirror_profile(profile))
            add(f"{outcome.kind.value} is_nash", lambda: [
                behaviors.is_nash(params, b, profile) for b in behavior_kinds])
            add(f"{outcome.kind.value} interval contains",
                lambda: interval.contains(outcome.s1))
            add(f"{outcome.kind.value} nash_diameter_bounds_check",
                lambda: behaviors.nash_diameter_bounds_check(params, profile))
            add(f"{outcome.kind.value} consumer_welfare",
                lambda: welfare.consumer_welfare(params, x1, x2, outcome.s1))
        for behavior in behavior_kinds:
            name = behavior.value
            add(f"{name} deviation_payoff firm 1 to x2",
                lambda: behaviors.deviation_payoff(params, behavior, 1, x2, x1))
            add(f"{name} deviation_payoff firm 2 to x1",
                lambda: behaviors.deviation_payoff(params, behavior, 2, x1, x2))
            add(f"{name} best_deviation against x2",
                lambda: behaviors.best_deviation(params, behavior, 1, x2))
            add(f"{name} best_deviation against x1",
                lambda: behaviors.best_deviation(params, behavior, 2, x1))
        add("symmetric_pessimistic_nash_set at x1",
            lambda: behaviors.symmetric_pessimistic_nash_set(params, x1))
        add("nash_region_a_half", lambda: sorted(
            kind.value for kind in behaviors.nash_region_a_half(x1, x2)))

    for a in sorted({a for _, a, _, _ in instances} | {0.05, 0.95, up(0.25, 0.0), up(0.5, 1.0)}):
        for theta in (1.0, 1.5):
            params = model.GameParams(a, theta)
            lines.append(f"# a={a!r} theta={theta!r}")
            add("social_optimum", lambda: welfare.social_optimum(params))
            add("worst_ne_pessimistic", lambda: welfare.worst_ne_pessimistic(params))
            add("best_ne_pessimistic", lambda: welfare.best_ne_pessimistic(params))
            add("neutral_nash", lambda: behaviors.neutral_nash(params))
            for behavior in behavior_kinds:
                add(f"{behavior.value} poa", lambda: welfare.poa(params, behavior))
                add(f"{behavior.value} pos", lambda: welfare.pos(params, behavior))
    for theta in (1.0, 1.5, 3.0):
        add(f"poa_minimizer_pessimistic theta={theta!r}",
            lambda: welfare.poa_minimizer_pessimistic(theta))

    lines.append("# rejected input")
    add("GameParams(a=1)", lambda: model.GameParams(1.0))
    add("GameParams(theta=inf)", lambda: model.GameParams(0.5, math.inf))
    add("Locations(0.9, 0.1)", lambda: model.Locations(0.9, 0.1))
    add("nash_region_a_half(0.9, 0.1)", lambda: behaviors.nash_region_a_half(0.9, 0.1))
    add("consumer_utility(v=1.5)",
        lambda: model.consumer_utility(model.GameParams(0.5), 1.5, 0.5, 0.5))
    add("symmetric_pessimistic_nash_set(x1=0.6)",
        lambda: behaviors.symmetric_pessimistic_nash_set(model.GameParams(0.5), 0.6))
    add("is_nash off a split", lambda: behaviors.is_nash(
        model.GameParams(0.5), behaviors.BehaviorKind.PESSIMISTIC,
        model.EquilibriumProfile(model.Locations(0.2, 0.9), model.MarketOutcome(model.Kind.III, 0.1))))
    add("consumer_welfare(s1=-0.5)",
        lambda: welfare.consumer_welfare(model.GameParams(0.5), 0.2, 0.8, -0.5))
    return lines


def pickle_mismatches(model, behaviors, welfare):
    """One line per record that a pickle round trip does not give back as an
    equal record of its own type with the same repr: one record of each
    scalar record type, from the public calls that return them."""
    params, loc = model.GameParams(1 / 3, 1.5), model.Locations(1 / 3, 2 / 3)
    outcome = model.enumerate_market_equilibria(params, loc)[2]
    pessimistic = behaviors.BehaviorKind.PESSIMISTIC
    records = [params, loc, outcome, model.EquilibriumProfile(loc, outcome),
               model.market_equilibrium_count(params, loc),
               behaviors.best_deviation(params, pessimistic, 1, loc.x2),
               behaviors.pessimistic_nash_interval(params, loc),
               welfare.social_optimum(params)[0], welfare.worst_ne_pessimistic(params),
               welfare.poa(params, pessimistic)]
    failures = []
    for record in records:
        back = pickle.loads(pickle.dumps(record))
        if type(back) is not type(record) or back != record or repr(back) != repr(record):
            failures.append(f"pickle round trip of {record!r} gave {back!r}")
    return failures


def figure_tables(cli):
    """(file name, CSV bytes) of each table of ``locpop figures``, the
    region table's rows from the reference in place of the numpy scan."""
    from region_reference import region_rows

    pessimistic = cli.BehaviorKind.PESSIMISTIC
    figures = []
    for name, header, blocks in cli._figure_tables(1.0):
        if header == cli.REGION_HEADER:  # its generator is dropped unstarted
            blocks = cli._row_blocks(region_rows(0.5, pessimistic, cli.REGION_GRID_DEFAULT))
        figures.append((name, "".join(cli._csv_chunks(header, blocks)).encode()))
    return figures


def main():
    sys.path.insert(0, str(SOURCE))
    import locpop
    from locpop import cli

    cli.build_parser()
    loaded = sorted({name.partition(".")[0] for name in sys.modules}
                    & {"numpy", "scipy", "dataclasses"})
    if loaded:
        sys.exit(f"import locpop and the CLI parser loaded {loaded}")
    sys.modules["numpy"] = None
    lines = corpus_lines(locpop.model, locpop.behaviors, locpop.welfare)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(*lines, f"sha256 {digest}", sep="\n")
    import golden_outputs

    failures = pickle_mismatches(locpop.model, locpop.behaviors, locpop.welfare)
    failures += golden_outputs.mismatches(golden_outputs.NUMPY_FREE_COMMANDS)
    failures += golden_outputs.figure_mismatches(figure_tables(cli))
    if digest != PINNED_SHA256:
        failures.insert(0, f"digest differs from PINNED_SHA256 {PINNED_SHA256}")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
