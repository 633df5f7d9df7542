"""Check a cold kernel sweep's peak RSS against a committed bound.

Runs the cold-campaign grid in this process: ``repro sweep`` over mcf,
perlbench, libquantum, gamess, omnetpp and graph500 × the baseline,
32K_2w and 64K_4w geometries × normal and fragmented memory, 10k
accesses, seed 1, ``--engine kernel``, serial, into an empty ``--store``
root (the grid of perfbench's ``sweep-cold`` workload). Then it reads
``resource.getrusage(RUSAGE_SELF).ru_maxrss``: the peak covers the
interpreter, the imports and the traces and kernel streams the sweep
holds at once, which is what a first campaign pays in memory.

Usage::

    PYTHONPATH=src python tools/check_cold_rss.py --max-mb 93

Prints the peak in MB; exits 1 when it is above ``--max-mb`` or the
sweep fails.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
from pathlib import Path

GRID = ["--apps", "mcf,perlbench,libquantum,gamess,omnetpp,graph500",
        "--geometries", "baseline,32K_2w,64K_4w", "--baseline", "baseline",
        "--conditions", "normal,fragmented", "--seeds", "1",
        "--accesses", "10000", "--engine", "kernel"]


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux
    reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="fail when the peak RSS is above this")
    args = parser.parse_args(argv)
    from repro.cli import main as repro_main
    with tempfile.TemporaryDirectory(prefix="cold-rss-") as tmp:
        rc = repro_main(["sweep", *GRID, "--store", str(Path(tmp) / "store"),
                         "--out", str(Path(tmp) / "sweep.csv")])
    peak = peak_rss_mb()
    print(f"cold sweep peak RSS {peak:.1f} MB (bound {args.max_mb:.1f} MB)")
    if rc != 0:
        print(f"the sweep itself failed (exit {rc})", file=sys.stderr)
        return 1
    return 0 if peak <= args.max_mb else 1


if __name__ == "__main__":
    sys.exit(main())
