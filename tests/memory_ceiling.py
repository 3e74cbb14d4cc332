"""Memory ceilings of four large tables and of ``figures``, each written by
a child process.

A 1001-point ``nash-region`` writes about 50 MB of CSV and a 401-point one
about 36 MB of JSON. Streamed, each child's peak RSS stays near that of a
small table, under 80 MB (the whole-document writers peaked at 130 and
566 MB); about 33 MB each. At ``REGION_GRID_MAX`` (2001 points) a scan
block holds two x1 rows, its table blocks at most ``CHUNK_ROWS`` rows
each, and every block shares the grid's texts for x1 and x2: the 215 MB
of CSV stay under 80 MB too (about 34 MB streamed). A 200001-point
``symmetric-region`` at a = 0.9 writes one level of 824,003 rows in 444
blocks; it stays under 40 MB (about 17 MB streamed), where a build that
holds the level whole peaks at about 240 MB. ``figures`` writes its five
tables to a directory under 40 MB (about 32 MB); its region table trades
a larger scan block for speed, so this pins its peak.
The JSON document must also parse as standard JSON (no NaN or Infinity),
with every row keyed by ``REGION_HEADER``.

Each peak is the child's own, read through ``os.wait4``.
``getrusage(RUSAGE_CHILDREN)`` would not do: it keeps the largest child so
far, so a later table would report an earlier one's peak whenever that was
higher.

Run it from anywhere as ``python tests/memory_ceiling.py``. It runs
``locpop`` from ``src``, so it needs numpy but no installed package. It
prints one line per check, ``ok`` or ``FAIL`` and the table checked, and
exits 1 if any check fails. The five commands take about 15 s, so CI
runs this and tier-1 does not.
"""

import json
import os
import sys
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
# (command, its --out target in the temporary directory, ceiling in MB)
REGION = "nash-region --a 0.5 --behavior pessimistic --grid-locations"
TABLES = (
    (f"{REGION} 1001 --format csv", "t.csv", 80),
    (f"{REGION} 2001 --format csv", "t.csv", 80),
    (f"{REGION} 401 --format json", "t.json", 80),
    ("symmetric-region --a 0.9 --grid-locations 200001 --format csv", "t.csv", 40),
    ("figures", "figures", 40),
)


def reject(constant):
    raise ValueError(f"not standard JSON: {constant}")


def main():
    sys.path.insert(0, SOURCE)
    os.environ["PYTHONPATH"] = SOURCE  # for the children
    from locpop.cli import REGION_HEADER

    passed = []
    # figures lists the paths it writes: the children's stdout is dropped, and
    # a failed child's error still shows on stderr
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    with tempfile.TemporaryDirectory() as tmp:
        for cmd, out, ceiling in TABLES:
            argv = [sys.executable, "-m", "locpop.cli", *cmd.split(), "--out", f"{tmp}/{out}"]
            _, status, usage = os.wait4(
                os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet), 0)
            peak_mb = usage.ru_maxrss / 1024  # KiB on Linux
            passed.append(status == 0 and peak_mb <= ceiling)
            print(f"{'ok  ' if passed[-1] else 'FAIL'} {cmd} --out: peak RSS {peak_mb:.1f} MB, "
                  f"ceiling {ceiling} MB")
        with open(f"{tmp}/t.json") as handle:
            rows = json.load(handle, parse_constant=reject)["rows"]
    passed.append(bool(rows) and all(list(row) == list(REGION_HEADER) for row in rows))
    print(f"{'ok  ' if passed[-1] else 'FAIL'} JSON: {len(rows)} rows keyed by REGION_HEADER")
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
