"""Memory ceilings of four large tables, each written by a child process.

A 1001-point ``nash-region`` writes about 50 MB of CSV and a 401-point one
about 36 MB of JSON. Streamed, each child's peak RSS stays near that of a
small table, under 80 MB (the whole-document writers peaked at 130 and
566 MB). At ``REGION_GRID_MAX`` (2001 points) the scan's blocks hold one
x1 row each, and every block shares the grid's texts for x1 and x2: the
215 MB of CSV stay under 80 MB too (about 36 MB streamed). A
200001-point ``symmetric-region`` at a = 0.9 writes one level of 824,003
rows in 444 blocks; it stays under 40 MB (about 17 MB streamed), where a
build that holds the level whole peaks at about 240 MB.
The JSON document must also parse as standard JSON (no NaN or Infinity),
with every row keyed by ``REGION_HEADER``.

Each peak is the child's own, read through ``os.wait4``.
``getrusage(RUSAGE_CHILDREN)`` would not do: it keeps the largest child so
far, so a later table would report an earlier one's peak whenever that was
higher.

Run it from anywhere as ``python tests/memory_ceiling.py``. It runs
``locpop`` from ``src``, so it needs numpy but no installed package. It
prints one line per check, ``ok`` or ``FAIL`` and the table checked, and
exits 1 if any check fails. The four tables take about 16 s, so CI runs
this and tier-1 does not.
"""

import json
import os
import sys
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
# (command, ceiling in MB); the format is the command's last word
TABLES = (
    ("nash-region --a 0.5 --behavior pessimistic --grid-locations 1001 --format csv", 80),
    ("nash-region --a 0.5 --behavior pessimistic --grid-locations 2001 --format csv", 80),
    ("nash-region --a 0.5 --behavior pessimistic --grid-locations 401 --format json", 80),
    ("symmetric-region --a 0.9 --grid-locations 200001 --format csv", 40),
)


def reject(constant):
    raise ValueError(f"not standard JSON: {constant}")


def main():
    sys.path.insert(0, SOURCE)
    os.environ["PYTHONPATH"] = SOURCE  # for the children
    from locpop.cli import REGION_HEADER

    passed = []
    with tempfile.TemporaryDirectory() as tmp:
        for cmd, ceiling in TABLES:
            fmt = cmd.split()[-1]
            argv = [sys.executable, "-m", "locpop.cli", *cmd.split(), "--out", f"{tmp}/t.{fmt}"]
            _, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
            peak_mb = usage.ru_maxrss / 1024  # KiB on Linux
            passed.append(status == 0 and peak_mb <= ceiling)  # a failed child prints its error
            print(f"{'ok  ' if passed[-1] else 'FAIL'} {cmd} --out: peak RSS {peak_mb:.1f} MB, "
                  f"ceiling {ceiling} MB")
        with open(f"{tmp}/t.json") as handle:
            rows = json.load(handle, parse_constant=reject)["rows"]
    passed.append(bool(rows) and all(list(row) == list(REGION_HEADER) for row in rows))
    print(f"{'ok  ' if passed[-1] else 'FAIL'} JSON: {len(rows)} rows keyed by REGION_HEADER")
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
