"""Command-line front end.

Subcommands: count, walks, map, intervals, triangle, check, fit, render.
Output is deterministic byte for byte for a fixed command line; sequences
stream as JSON Lines or CSV with a header row.  Exit codes: 2 for a
configuration error, 1 for an internal failure, 0 otherwise.  Check suites
exit 0 even when a conjecture verdict is "fails" (verdicts live in the
report, never in the exit status).

Each command imports the functions it calls, so a command starts with only
the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import groupby
from operator import attrgetter

_COMPACT = {"separators": (",", ":")}

#: ``check --nmax`` when it is not given, by suite
_CHECK_NMAX = {"conjectures": 9, "tamari": 6, "eq2": 9}


def _jdump(obj) -> str:
    return json.dumps(obj, **_COMPACT)


def _write(lines) -> None:
    """Write ``lines`` (newline-terminated strings) in one call."""
    sys.stdout.write("".join(lines))


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
    elif ":" in text:
        lo, hi = text.split(":", 1)
    else:
        lo = hi = text
    lo_i, hi_i = int(lo), int(hi)
    if lo_i > hi_i:
        raise ValueError(f"empty range {text!r}")
    return lo_i, hi_i


def _parse_ne(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    return frozenset(int(part) for part in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookcomb",
        description="Hook configurations, Motzkin orders, and walk counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="hook-configuration counts by size")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", required=True, help="size or range, e.g. 4 or 1..9")
    p.add_argument("--method", choices=("auto", "enumerate", "formula"),
                   default="auto")
    p.add_argument("--output", choices=("json", "csv"), default="json")

    p = sub.add_parser("walks", help="closed quarter-plane walk counts")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--output", choices=("json", "csv"), default="csv")

    p = sub.add_parser("map", help="apply one of the structural maps")
    p.add_argument("--name", required=True, choices=tuple(_MAPS))
    p.add_argument("--perm")
    p.add_argument("--ne")
    p.add_argument("--lower")
    p.add_argument("--upper")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--n", type=int)
    p.add_argument("--audit", action="store_true",
                   help="wrap the result with its input as a JSON audit line")

    p = sub.add_parser("intervals", help="enumerate order intervals")
    p.add_argument("--order", required=True, choices=("S", "C", "T"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--output", choices=("json", "csv"), default="json")

    p = sub.add_parser("triangle", help="reduced-configuration triangle rows")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--output", choices=("json", "csv"), default="json")

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=tuple(_CHECK_NMAX))
    p.add_argument("--kmax", type=int, default=3,
                   help="triangle rows for conjectures and eq2 (default 3); "
                        "tamari ignores it")
    p.add_argument("--nmax", type=int, default=None,
                   help="largest size: of the weak-order counts for conjectures "
                        "(default {conjectures}), of the image sweep for tamari "
                        "(default {tamari}), of the reduced counts for eq2 "
                        "(default {eq2})".format(**_CHECK_NMAX))

    p = sub.add_parser("fit", help="growth fit of the exact counts")
    p.add_argument("--window", default="200:400", help="n range, e.g. 200:400")

    p = sub.add_parser("render", help="write an SVG figure")
    p.add_argument("--vhc", help='configuration JSON, e.g. {"perm":"213","ne":[3]}')
    p.add_argument("--path", help="Motzkin path string, e.g. UDEUEUDD")
    p.add_argument("--out", required=True)
    return parser


def _cmd_count(args) -> int:
    from .perm import PATTERN_312, Permutation

    lo, hi = _parse_range(args.n)
    pattern = Permutation.from_text(args.pattern)
    if args.method == "formula" and pattern != PATTERN_312:
        raise ValueError(
            f"--method formula counts only 312-avoiders, not {pattern}; "
            f"use --method enumerate"
        )
    if lo < 0:
        raise ValueError("--n must be >= 0")
    if pattern == PATTERN_312 and args.method != "enumerate":
        from .walks import vhc312_series

        counts = vhc312_series(hi)
    else:
        from .vhc import vhc_count_exhaustive

        counts = vhc_count_exhaustive(hi, pattern)
    rows = [(n, counts[n]) for n in range(lo, hi + 1)]
    if args.output == "csv":
        _write(["n,count\n", *(f"{n},{value}\n" for n, value in rows)])
    elif lo == hi:
        sys.stdout.write(f"{rows[0][1]}\n")
    else:
        _write(_jdump({"pattern": str(pattern), "n": n, "count": str(value)}) + "\n"
               for n, value in rows)
    return 0


def _cmd_walks(args) -> int:
    from .walks import count_walks

    table = count_walks(args.kmax)
    if args.output == "csv":
        _write(["k,value\n", *(f"{k},{value}\n" for k, value in enumerate(table))])
    else:
        sys.stdout.write(_jdump([str(value) for value in table]) + "\n")
    return 0


def _interval_fields(interval) -> dict:
    return {"lower": str(interval.lower), "upper": str(interval.upper),
            "order": interval.order}


def _vhc_fields(v) -> dict:
    return {"perm": str(v.pi), "ne": sorted(v.ne_set)}


def _class_interval(maps, lower: str, upper: str):
    return maps.Interval(maps.MotzkinPath(lower), maps.MotzkinPath(upper), "C")


def _phi(maps, lower: str, upper: str) -> dict:
    x, y = maps.phi(_class_interval(maps, lower, upper))
    return {"x": str(x), "y": str(y)}


def _ll_inverse(maps, lower: str, upper: str, n: int) -> dict:
    if n < 1:
        raise ValueError("--n must be >= 1")
    interval = _class_interval(maps, lower, upper)
    if len(interval.lower) != n - 1:
        raise ValueError(f"interval has length {len(interval.lower)}, "
                         f"expected {n - 1}")
    # never None: both paths share one class
    return _vhc_fields(maps.ll_inverse(interval))


def _w_pullback(maps, perm, ne) -> dict:
    pulled = maps.w_map_left_inverse(maps.Vhc(perm, ne))
    return {"perm": str(pulled.perm), "ne": sorted(pulled.ne_indices),
            "valid": pulled.valid}


#: ``map --name`` choices, in order: the inputs each map needs, in the order
#: a refusal names them, and its call, which takes the ``maps`` module and
#: the inputs as ``_cmd_map`` reads them and returns the JSON result
_MAPS = {
    "ll": (("perm", "ne"), lambda maps, perm, ne: _interval_fields(
        maps.ll_map(maps.Vhc(perm, ne)))),
    "llinv": (("lower", "upper", "n"), _ll_inverse),
    "swl": (("perm",), lambda maps, perm: {"perm": str(maps.swl(perm))}),
    "swr": (("perm",), lambda maps, perm: {"perm": str(maps.swr(perm))}),
    "w": (("perm", "ne"), lambda maps, perm, ne: _vhc_fields(
        maps.w_map(maps.Vhc(perm, ne)))),
    "winv": (("perm", "ne"), _w_pullback),
    "phi": (("lower", "upper"), _phi),
    "phiinv": (("x", "y"), lambda maps, x, y: _interval_fields(
        maps.phi_inverse(maps.MotzkinPath(x), maps.MotzkinPath(y)))),
}


def _as_given(value):
    return value


def _cmd_map(args) -> int:
    from . import maps
    from .perm import Permutation

    inputs, call = _MAPS[args.name]
    missing = [key for key in inputs if getattr(args, key) is None]
    if missing:
        raise ValueError(f"map --name {args.name} needs --{', --'.join(missing)}")
    # how each input is read, and how --audit echoes what was read
    forms = {"perm": (Permutation.from_text, str), "ne": (_parse_ne, sorted)}
    read, echo = {}, {}
    for key in inputs:
        parse, show = forms.get(key, (_as_given, _as_given))
        read[key] = parse(getattr(args, key))
        echo[key] = show(read[key])
    result = call(maps, **read)
    if args.audit:
        result = {"input": echo, "output": result, "map": args.name}
    sys.stdout.write(_jdump(result) + "\n")
    return 0


def _cmd_intervals(args) -> int:
    from .motzkin import count_intervals, enumerate_intervals

    if args.n < 0:
        raise ValueError("--n must be >= 0")
    if args.count_only:
        sys.stdout.write(f"{count_intervals(args.order, args.n)}\n")
        return 0
    stream = enumerate_intervals(args.order, args.n)  # refuses past the cap
    csv = args.output == "csv"
    if csv:
        sys.stdout.write("lower,upper,order\n")
    # one write per lower path, whose intervals come consecutively
    for _, chunk in groupby(stream, attrgetter("lower.steps")):
        if csv:
            _write(f"{iv.lower},{iv.upper},{iv.order}\n" for iv in chunk)
        else:
            _write(iv.to_json() + "\n" for iv in chunk)
    return 0


def _cmd_triangle(args) -> int:
    from .walks import triangle

    rows = triangle(args.kmax)
    if args.output == "csv":
        _write(["k,i,n,value\n", *(
            f"{row.k},{i},{2 * row.k + i},{value}\n"
            for row in rows for i, value in enumerate(row.entries, start=1)
        )])
    else:
        _write(_jdump({"k": row.k, "entries": [str(e) for e in row.entries]}) + "\n"
               for row in rows)
    return 0


def _cmd_check(args) -> int:
    from .experiments import check_conjectures, check_eq2, check_tamari_image

    nmax = _CHECK_NMAX[args.suite] if args.nmax is None else args.nmax
    if args.suite == "conjectures":
        report = check_conjectures(k_max=args.kmax, bruhat_n_max=nmax)
    elif args.suite == "tamari":
        report = check_tamari_image(n_max=nmax)
    else:
        report = check_eq2(n_max=nmax, k_max=args.kmax)
    _write(_jdump(entry) + "\n" for entry in report)
    return 0


def _cmd_fit(args) -> int:
    from .walks import asymptotic_fit

    lo, hi = _parse_range(args.window)
    fit = asymptotic_fit(lo, hi)
    sys.stdout.write(
        _jdump(
            {
                "growth": fit.growth_hat,
                "alpha": fit.alpha_hat,
                "window": list(fit.window),
                "residual": fit.residual,
            }
        )
        + "\n"
    )
    return 0


def _cmd_render(args) -> int:
    from .motzkin import MotzkinPath
    from .render import render_path, render_vhc
    from .vhc import Vhc

    if (args.vhc is None) == (args.path is None):
        raise ValueError("render needs exactly one of --vhc or --path")
    if args.vhc is not None:
        document = render_vhc(Vhc.from_json(args.vhc))
    else:
        document = render_path(MotzkinPath(args.path))
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "walks": _cmd_walks,
    "map": _cmd_map,
    "intervals": _cmd_intervals,
    "triangle": _cmd_triangle,
    "check": _cmd_check,
    "fit": _cmd_fit,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"hookcomb: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"hookcomb: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
