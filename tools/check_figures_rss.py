"""Check a cold ``repro figures`` run's peak RSS against a committed bound.

Runs ``repro figures --accesses 2000 --engine kernel`` in this process
(all thirteen tables, serial, a private temporary store) with its
tables discarded, then reads this process's peak RSS the way
``tools/check_cold_rss.py`` does. The peak covers every trace the run
keeps between figures, with the kernel streams and derived columns of
the sweep in flight: what one command over many grids pays in memory.

Usage::

    PYTHONPATH=src python tools/check_figures_rss.py --max-mb 135

Prints the peak in MB; exits 1 when it is above ``--max-mb`` or the
run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from check_cold_rss import peak_rss_mb

ARGV = ["figures", "--accesses", "2000", "--engine", "kernel"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="fail when the peak RSS is above this")
    args = parser.parse_args(argv)
    from repro.cli import main as repro_main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = repro_main(ARGV)
    peak = peak_rss_mb()
    print(f"cold figures peak RSS {peak:.1f} MB "
          f"(bound {args.max_mb:.1f} MB)")
    if rc != 0:
        print(f"the figures run itself failed (exit {rc})", file=sys.stderr)
        return 1
    return 0 if peak <= args.max_mb else 1


if __name__ == "__main__":
    sys.exit(main())
