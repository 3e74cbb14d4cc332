"""Tests for the command-line interface."""

import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from locpop import (
    BehaviorKind,
    EquilibriumProfile,
    GameParams,
    GridSpec,
    Kind,
    Locations,
    MarketOutcome,
    NashInterval,
    best_deviation,
    cli,
    consumer_welfare,
    enumerate_market_equilibria,
    is_nash,
    oracle,
    verify_suites,
)
from locpop.cli import _csv_doc, _fmt, _region_rows, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "# schema=1"
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return list(reader)


def test_market_eq_json(capsys):
    code, out, _ = run_cli(
        capsys, "market-eq", "--a", "0.5", "--x1", "0.333333", "--x2", "0.666667",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    kinds = [o["kind"] for o in doc["outcomes"]]
    assert kinds == ["i", "ii", "iii", "iv", "v"]
    shares = [o["s1"] for o in doc["outcomes"]]
    assert shares == pytest.approx([0.0, 1 / 6, 0.5, 5 / 6, 1.0], abs=1e-5)
    for o in doc["outcomes"]:
        assert o["s1"] + o["s2"] == pytest.approx(1.0, abs=1e-11)


def test_market_eq_csv_matches_json(capsys):
    args = ("market-eq", "--a", "0.4", "--x1", "0.2", "--x2", "0.5")
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    doc = json.loads(out_json)
    rows = parse_csv(out_csv)
    assert len(rows) == doc["count"]
    for row, outcome in zip(rows, doc["outcomes"]):
        assert row["kind"] == outcome["kind"]
        assert float(row["s1"]) == pytest.approx(outcome["s1"], abs=1e-11)
        assert float(row["s2"]) == pytest.approx(outcome["s2"], abs=1e-11)


def test_market_eq_accepts_unordered_locations(capsys):
    code, out, _ = run_cli(
        capsys, "market-eq", "--a", "0.3", "--x1", "0.8", "--x2", "0.2",
    )
    assert code == 0
    assert json.loads(out)["x1"] == 0.2


def test_nash_check_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "nash-check", "--a", "0.3", "--x1", "0.4", "--x2", "0.6",
        "--s1", "0.5", "--behavior", "pessimistic",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["is_nash"] is True
    assert doc["binding_deviation"]["payoff"] <= 0.5
    assert doc["support_interval"]["lo"] == pytest.approx(3 / 7, abs=1e-9)
    assert doc["support_interval"]["hi"] == pytest.approx(4 / 7, abs=1e-9)
    assert doc["support_interval"]["empty"] is False

    code, out, _ = run_cli(
        capsys, "nash-check", "--a", "0.3", "--x1", "0.5", "--x2", "0.5",
        "--s1", "0.5", "--behavior", "optimistic",
    )
    doc = json.loads(out)
    assert doc["is_nash"] is False
    assert doc["binding_deviation"]["payoff"] == 1.0


def test_nash_check_ties_go_to_firm_one(capsys):
    # neutral, a = 0.1, every split on a 41-point grid: where the two firms'
    # gains agree within 1e-9 (equal in exact arithmetic, rounded apart),
    # firm 1's deviation binds whichever gain rounded higher
    params = GameParams(0.1)
    xs = np.linspace(0.0, 1.0, 41).tolist()
    ties = 0
    for i, x1 in enumerate(xs):
        for x2 in xs[i:]:
            gain2 = best_deviation(params, BehaviorKind.NEUTRAL, 2, x1).payoff
            gain1 = best_deviation(params, BehaviorKind.NEUTRAL, 1, x2).payoff
            for outcome in enumerate_market_equilibria(params, Locations(x1, x2)):
                if abs((gain1 - outcome.s1) - (gain2 - outcome.s2)) > 1e-9:
                    continue
                ties += 1
                code, out, _ = run_cli(
                    capsys, "nash-check", "--a", "0.1", "--x1", repr(x1), "--x2", repr(x2),
                    "--s1", repr(outcome.s1), "--behavior", "neutral",
                )
                assert code == 0
                assert json.loads(out)["binding_deviation"]["deviator"] == 1, (x1, x2, outcome)
    assert ties == 333


def test_nash_check_rejects_non_equilibrium_share(capsys):
    code, _, err = run_cli(
        capsys, "nash-check", "--a", "0.5", "--x1", "0.333333", "--x2", "0.666667",
        "--s1", "0.25", "--behavior", "neutral",
    )
    assert code == 2
    assert "not a market equilibrium" in err


def test_nash_check_refuses_swapped_locations(capsys):
    # firm 1 at 0.6 holds 0.642857142857 and firm 2 at 0.2 holds the rest;
    # sorting the locations would read --s1 as the share of the firm at 0.2
    for s1 in ("0.642857142857", "0.357142857143"):
        code, out, err = run_cli(
            capsys, "nash-check", "--a", "0.3", "--x1", "0.6", "--x2", "0.2",
            "--s1", s1, "--behavior", "pessimistic",
        )
        assert code == 2 and out == ""
        assert "nash-check needs --x1 <= --x2, got x1=0.6 > x2=0.2" in err
    code, out, _ = run_cli(
        capsys, "nash-check", "--a", "0.3", "--x1", "0.2", "--x2", "0.6",
        "--s1", "0.357142857143", "--behavior", "pessimistic",
    )
    assert code == 0
    assert json.loads(out)["s1"] == pytest.approx(5 / 14, abs=1e-12)


def test_welfare_and_social_opt(capsys):
    code, out, _ = run_cli(
        capsys, "welfare", "--a", "0.4", "--x1", "0.3", "--x2", "0.3", "--s1", "0.5",
    )
    assert code == 0
    assert json.loads(out)["welfare"] == pytest.approx(0.91, abs=1e-9)

    code, out, _ = run_cli(capsys, "social-opt", "--a", "0.25")
    doc = json.loads(out)
    assert len(doc["optima"]) == 2
    assert doc["optima"][0]["welfare"] == pytest.approx(1.0)


def test_poa_curve_neutral_minimum(capsys):
    code, out, _ = run_cli(
        capsys, "poa-curve", "--behavior", "neutral", "--theta", "1", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert max(float(r["a"]) for r in rows) == pytest.approx(0.5)
    best = min(rows, key=lambda r: float(r["poa"]))
    assert float(best["a"]) == pytest.approx(0.25)
    assert float(best["poa"]) == pytest.approx(8 / 7, abs=1e-9)


def test_pos_curve_pessimistic_saturates(capsys):
    code, out, _ = run_cli(
        capsys, "pos-curve", "--behavior", "pessimistic", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    tail = [r for r in rows if float(r["a"]) > 0.5]
    assert tail and all(float(r["pos"]) == 1.0 for r in tail)


def test_curves_refuse_optimistic(capsys):
    for argv in (("poa-curve",), ("pos-curve",), ("poa-curve", "--a", "0.25"),
                 ("pos-curve", "--a", "0.25")):
        code, out, err = run_cli(capsys, *argv, "--behavior", "optimistic")
        assert code == 1
        assert out == ""
        assert err == "error: no equilibrium exists for optimistic firms\n"


def test_single_point_curve_and_neutral_cutoff(capsys):
    code, out, _ = run_cli(
        capsys, "poa-curve", "--behavior", "neutral", "--a", "0.25", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["poa"] == pytest.approx(8 / 7)

    code, _, err = run_cli(capsys, "pos-curve", "--behavior", "neutral", "--a", "0.75")
    assert code == 1
    assert "no equilibrium exists" in err


def test_flag_errors_exit_two(capsys):
    assert run_cli(capsys, "market-eq", "--a", "1.5", "--x1", "0.1", "--x2", "0.2")[0] == 2
    assert run_cli(capsys, "market-eq", "--a", "0.5", "--x1", "0.1")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    code, out, err = run_cli(capsys, "welfare", "--a", "0.4", "--theta", "inf",
                             "--x1", "0.3", "--x2", "0.3", "--s1", "0.5")
    assert code == 2 and out == "" and "finite" in err
    for argv in (
        ("nash-region", "--a", "0.5", "--behavior", "pessimistic", "--grid-locations", "0"),
        ("nash-region", "--a", "0.5", "--behavior", "pessimistic", "--grid-locations", "1"),
        ("symmetric-region", "--a", "0.5", "--grid-locations", "0"),
        ("symmetric-region", "--a", "0.5", "--grid-locations", "1"),
        ("verify", "--grid-locations", "0"),
        ("verify", "--grid-locations", "1"),
        ("verify", "--grid-shares", "0"),
        ("verify", "--instances", "-5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "at least" in err
    # consumers sit at the share-cell midpoints: no grid of their own
    code, out, err = run_cli(capsys, "verify", "--grid-consumers", "1000")
    assert code == 2 and out == "" and "unrecognized arguments: --grid-consumers" in err
    region = ("nash-region", "--a", "0.5", "--behavior", "pessimistic", "--grid-locations")
    code, out, err = run_cli(capsys, *region, "2002")
    assert code == 2 and out == "" and "must be at most 2001" in err
    assert build_parser().parse_args([*region, "2001"]).grid_locations == 2001
    # verify's grid sizes: parsed only, so no array of that size is built
    parser = build_parser()
    for flag, dest in (("--grid-locations", "grid_locations"),
                       ("--grid-shares", "grid_shares")):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["verify", flag, "1000001"])
        assert exc.value.code == 2
        assert "must be at most 1000000" in capsys.readouterr().err
        assert getattr(parser.parse_args(["verify", flag, "1000000"]), dest) == 10**6


def test_json_output_is_strict():
    from locpop.cli import _json_doc

    with pytest.raises(ValueError):
        _json_doc({"welfare": float("nan")})


def test_outputs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        code = main([
            "nash-region", "--a", "0.5", "--behavior", "pessimistic",
            "--grid-locations", "21", "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_nash_region_rows(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code = main([
        "nash-region", "--a", "0.3", "--behavior", "pessimistic",
        "--grid-locations", "21", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    rows = parse_csv(out.read_text())
    assert {r["kind"] for r in rows} >= {"unique", "i", "v"}
    ne_rows = [r for r in rows if r["is_ne"] == "1"]
    assert ne_rows
    for r in ne_rows:
        assert float(r["x2"]) - float(r["x1"]) <= 0.3 + 1e-9


def scalar_region_rows(params, behavior, n_locations):
    """The region rows profile by profile, through the scalar public API."""
    xs = np.linspace(0.0, 1.0, n_locations).tolist()
    rows = []
    for i, x1 in enumerate(xs):
        for x2 in xs[i:]:
            loc = Locations(x1, x2)
            for outcome in enumerate_market_equilibria(params, loc):
                verdict = is_nash(params, behavior, EquilibriumProfile(loc, outcome))
                rows.append((params.a, x1, x2, outcome.kind.value, outcome.s1, int(verdict),
                             consumer_welfare(params, x1, x2, outcome.s1)))
    return rows


def kind_order_inversions(rows):
    """Cells whose splits, listed in share order, are not in kind order."""
    rank = {kind.value: r for r, kind in enumerate(Kind)}
    cells = {}
    for row in rows:
        cells.setdefault(row[1:3], []).append(rank[row[3]])
    return sum(ranks != sorted(ranks) for ranks in cells.values())


@pytest.mark.parametrize("a, behavior, n_locations", [
    *[(a, behavior, 41) for a in (0.2, 0.25, 0.5, 0.8) for behavior in BehaviorKind],
    (0.5, BehaviorKind.PESSIMISTIC, 201),
])
def test_region_rows_match_scalar_reference(a, behavior, n_locations):
    params = GameParams(a)
    expected = scalar_region_rows(params, behavior, n_locations)
    rows = list(_region_rows(params, behavior, n_locations))
    # bit for bit and type for type, as the CSV and JSON writers see them
    assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r)) for r in expected]
    if n_locations == 201:  # III rounds below II on these cells at a = 1/2
        assert kind_order_inversions(rows) == 45


def csv_doc_reference(header, rows):
    """``_csv_doc`` as ``csv.writer`` with ``_fmt`` per float wrote it."""
    buf = io.StringIO()
    buf.write("# schema=1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    *[("nash-region", "--a", "0.3", "--behavior", behavior.value, "--grid-locations", "41")
      for behavior in BehaviorKind],
    ("symmetric-region", "--a", "0.5", "--grid-locations", "101"),
    ("poa-curve", "--behavior", "pessimistic"),
    ("pos-curve", "--behavior", "neutral", "--theta", "1.5"),
    ("nash-check", "--a", "0.3", "--x1", "0.4", "--x2", "0.6", "--s1", "0.5",
     "--behavior", "pessimistic", "--format", "csv"),
    ("market-eq", "--a", "0.5", "--x1", "0.333333", "--x2", "0.666667", "--format", "csv"),
    ("social-opt", "--a", "0.25", "--format", "csv"),
    ("welfare", "--a", "0.4", "--x1", "0.3", "--x2", "0.3", "--s1", "0.5", "--format", "csv"),
], ids=" ".join)
def test_csv_doc_is_the_csv_writer(argv, monkeypatch, capsys):
    tables = []

    def recording(header, rows):
        rows = list(rows)
        tables.append((header, rows))
        return _csv_doc(header, rows)

    monkeypatch.setattr(cli, "_csv_doc", recording)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    [(header, rows)] = tables
    assert rows
    assert out == csv_doc_reference(header, rows)


def test_csv_doc_edge_tables():
    assert _csv_doc(("a", "b"), []) == csv_doc_reference(("a", "b"), []) == "# schema=1\na,b\n"
    header = ("float", "float64", "int", "bool", "str")
    rows = [
        (0.1 + 0.2, np.float64(1 / 3), 7, True, "unique"),
        (1e16, np.float64(-0.0), -3, False, "iv"),
        (123456789012345.0, np.float64(2.5e-300), 10**20, True, "v"),
        (float("inf"), np.float64("nan"), 0, False, ""),
    ]
    assert _csv_doc(header, rows) == csv_doc_reference(header, rows)
    assert _csv_doc(header, iter(rows)) == csv_doc_reference(header, rows)


def test_symmetric_region_rows(capsys):
    code, out, _ = run_cli(
        capsys, "symmetric-region", "--a", "0.5", "--grid-locations", "11",
        "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    by_x1 = {}
    for r in rows:
        by_x1.setdefault(float(r["x1"]), []).append(float(r["s1"]))
    assert by_x1[0.5] == [0.0, 0.5, 1.0]
    assert 0.1 not in by_x1  # beyond reach below (1-a)/2


# sha256 of `locpop figures --theta 1` output; figure data is frozen
FIGURE_SHA256 = {
    "symmetric_equilibria.csv": "61c0040bd831d68dad0bfa9c8492ab6a38f6f0738e2986b4087087506a117a4a",
    "nash_region_a_half.csv": "d9662ea2f8648174768e466f6caf7df680f3766ef885e71b505d852af16f9e89",
    "neutral_efficiency.csv": "94f9ac50ea2a62b3b498376d033f0776139b8731d3e05b6787146106ae3e0d70",
    "pessimistic_poa.csv": "438d4ca9c7f17bbc935e586fb664049cebf8af7ad79bb42be8954eca2c5c29b4",
    "pessimistic_pos.csv": "f9cb5e10a07976155b49e9619dfcb089281e07636693212844eb3f190d3bc0c6",
}


def test_figures_writes_datasets(tmp_path, capsys):
    code = main(["figures", "--out", str(tmp_path / "figs")])
    out = capsys.readouterr().out
    assert code == 0
    names = [line.rsplit("/", 1)[-1] for line in out.splitlines()]
    assert names == list(FIGURE_SHA256)
    for name in names:
        data = (tmp_path / "figs" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == FIGURE_SHA256[name], name


# stdout of the small run below, recorded before the suites moved into oracle
VERIFY_SMALL_RUN = """\
ok   market-equilibria: 40 random instances, 0 mismatches
ok   best-deviation: 60 random instances, 0 mismatches
ok   social-optimum: max |grid - closed| welfare gap 2.22e-16
ok   pessimistic-region: 3 externality levels on a 101x101 grid, 0 disagreements
ok   mirror-symmetry: 2676 pessimistic NE profiles at a=0.5
ok   neutral-region: NE cells at a=0.3: [(0.5, 0.5)]
ok   optimistic-region: 0 optimistic NE found at a=0.3
all verification suites passed
"""


def test_verify_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--instances", "40", "--grid-locations", "401",
        "--grid-shares", "501", "--seed", "3",
    )
    assert code == 0
    assert out == VERIFY_SMALL_RUN


def perfbench_verify_suites():
    """VERIFY_SUITES of perfbench/worker.py, the suites its verify gate requires."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "worker.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["VERIFY_SUITES"]]
    return ast.literal_eval(value)


def test_verify_suites_yields_the_benchmarked_suites_in_order():
    records = list(verify_suites(1.0, 0, 0, GridSpec(2, 2)))
    assert tuple(suite for suite, _, _ in records) == perfbench_verify_suites()
    assert all(isinstance(ok, bool) and isinstance(detail, str) for _, ok, detail in records)


# Instances near an existence boundary, drawn at the default grid: 902, 906
# and 907 each draw one whose kind IV condition misses by just over the share
# slack; the others draw, as their last instance, one with a >= 0.958 and a
# II or IV condition missing by about 1e-3, where the slope 2a or 2 - 2a is
# shallow and the passing shares reach far from the split.
@pytest.mark.parametrize("seed, instances", [
    pytest.param(seed, instances, id=str(seed)) for seed, instances in (
        (902, 1000), (906, 1000), (907, 1000), (86, 685), (97, 354), (693, 871),
        (718, 637), (808, 79), (866, 429), (1071, 744), (1229, 56), (1303, 140),
        (1607, 179), (1619, 154), (1950, 653),
    )
])
def test_market_equilibria_suite_skips_near_boundary(seed, instances):
    ok, detail = oracle._market_equilibria_suite(
        np.random.default_rng(seed), GridSpec(), instances)
    assert ok is True
    assert detail == f"{instances} random instances, 0 mismatches"


def test_market_equilibria_suite_catches_a_moved_share(monkeypatch):
    exact = oracle.enumerate_market_equilibria

    def moved(params, loc):
        return [MarketOutcome(o.kind, o.s1 + 0.002) if o.kind is Kind.II else o
                for o in exact(params, loc)]

    monkeypatch.setattr(oracle, "enumerate_market_equilibria", moved)
    ok, detail = oracle._market_equilibria_suite(np.random.default_rng(0), GridSpec(), 100)
    assert ok is False
    assert detail == "100 random instances, 42 mismatches"


@pytest.mark.parametrize("shift, mismatches", [(-1e-3, 258), (1e-3, 259)],
                         ids=["-0.001", "0.001"])
def test_market_equilibria_suite_catches_moved_interior_splits(shift, mismatches, monkeypatch):
    exact = oracle.enumerate_market_equilibria

    def moved(params, loc):
        return [o if o.kind in (Kind.I, Kind.V) else MarketOutcome(o.kind, o.s1 + shift)
                for o in exact(params, loc)]

    monkeypatch.setattr(oracle, "enumerate_market_equilibria", moved)
    ok, detail = oracle._market_equilibria_suite(np.random.default_rng(0), GridSpec(), 300)
    assert ok is False
    assert detail == f"300 random instances, {mismatches} mismatches"


# the last case drew 6 mismatches when consumers had a grid of their own
# (10,000 of them against 4001 shares)
@pytest.mark.parametrize("n_shares, seed, instances", [
    (201, 0, 100), (501, 0, 100), (1201, 1, 100), (4001, 1, 1000),
])
def test_market_equilibria_suite_at_other_grids(n_shares, seed, instances):
    ok, detail = oracle._market_equilibria_suite(
        np.random.default_rng(seed), GridSpec(n_shares=n_shares), instances)
    assert ok is True
    assert detail == f"{instances} random instances, 0 mismatches"


@pytest.mark.parametrize("argv", [
    ("verify", "--theta", "0.5", "--instances", "5"),
    ("verify", "--theta", "inf"),
    ("figures", "--theta", "nan"),
    ("figures", "--theta", "0.5"),
])
def test_bad_theta_exits_two_before_any_work(argv, tmp_path, capsys):
    out_dir = tmp_path / "figs"
    if argv[0] == "figures":
        argv = (*argv, "--out", str(out_dir))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "theta must be finite and >= 1" in err
    assert not out_dir.exists()


# no outcome on the 101-point grid lies within 5e-3 above hi, so a bound
# widened by less than that leaves every grid verdict unchanged; the suite
# also compares each clamped bound with the pessimistic supremum it equals
@pytest.mark.parametrize("shift, disagreements", [(-1e-3, 606), (1e-3, 241), (1e-2, 280)],
                         ids=["-0.001", "0.001", "0.01"])
def test_pessimistic_region_suite_catches_a_moved_bound(shift, disagreements, monkeypatch):
    exact = oracle.pessimistic_nash_interval

    def moved(params, loc):
        interval = exact(params, loc)
        return NashInterval(interval.lo, interval.hi + shift)

    monkeypatch.setattr(oracle, "pessimistic_nash_interval", moved)
    ok, detail, _ = oracle._pessimistic_region_suite(1.0)
    assert ok is False
    assert detail == f"3 externality levels on a 101x101 grid, {disagreements} disagreements"


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "locpop.cli", "market-eq", "--a", "0.5",
         "--x1", "0.3", "--x2", "0.9"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 1


@pytest.mark.parametrize("argv, unbuffered", [
    # buffered: the 1.9 MB document fills the pipe, so a write fails
    (("nash-region", "--a", "0.5", "--behavior", "pessimistic"), False),
    # unbuffered: one raw write of the document ends short, so it is retried
    (("nash-region", "--a", "0.5", "--behavior", "pessimistic"), True),
    # unbuffered: each suite's line is written as it is printed
    (("verify", "--seed", "1", "--instances", "20"), True),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else f"unbuffered={value}")
def test_closed_stdout_pipe_exits_without_traceback(argv, unbuffered):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c", "from locpop.cli import run; run()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**env, "PYTHONPATH": src},
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()  # as `| head -1` does after its line
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err, err


def test_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import locpop, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
