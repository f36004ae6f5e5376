#!/usr/bin/env python3
"""Run every verification suite and print the combined JSON-lines report.

Usage: python scripts/run_checks.py [--kmax K] [--nmax N]

The exit status is 0 when the suites complete; verdicts (including any
failing conjecture) live in the report lines.  A size past a cap exits 2
with one ``hookcomb:`` line on stderr and nothing on stdout, as the CLI.
"""

import argparse
import json
import sys
import time

from hookcomb.experiments import (
    check_conjectures,
    check_eq2,
    check_tamari_image,
    triangle,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=4)
    parser.add_argument("--nmax", type=int, default=9)
    parser.add_argument("--tamari-nmax", type=int, default=7)
    args = parser.parse_args()

    started = time.perf_counter()
    try:
        rows = triangle(args.kmax)
        report = check_eq2(n_max=args.nmax, rows=rows)
        report.extend(check_tamari_image(n_max=args.tamari_nmax))
        report.extend(check_conjectures(k_max=args.kmax, bruhat_n_max=args.nmax,
                                        rows=rows))
    except ValueError as exc:
        print(f"hookcomb: {exc}", file=sys.stderr)
        return 2
    for entry in report:
        print(json.dumps(entry, separators=(",", ":")))
    holds = sum(1 for e in report if e["verdict"] == "holds")
    print(
        f"# {holds}/{len(report)} checks hold "
        f"({time.perf_counter() - started:.1f}s)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
