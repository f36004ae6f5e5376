"""Run one hookcomb CLI command with spans recorded around its layers.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS COMMAND_ID -- ARGV...

The program is not changed: after ``hookcomb.cli`` is imported (which loads
every module), each public layer function listed in ``LAYER_FUNCTIONS`` is
replaced, at every module attribute that binds it, by a wrapper that
records a span.  Then ``cli.main(ARGV)`` runs as the plain CLI would.

A span has a name, start, end and parent span; the spans of one run share
its command id.  Generator layers get one span per ``next()`` resumption,
so the time a consumer spends between resumptions is not counted against
them.  Hot leaf functions (``LEAF``) call no other traced function; they
are counted and timed without a span of their own, and their time is
charged to the enclosing span, which keeps the tracing cost down on the
~7e5 ``motzkin.leq`` calls of an interval enumeration.

Spans stay in memory and are written when the command ends: ``SPANS.json``
holds the names and per-name counters, ``SPANS.bin`` the span arrays.
``read_spans`` loads them and ``self_times`` derives each name's self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

CALL, GENERATOR, LEAF = "call", "generator", "leaf"

#: (home module, function, kind); the span is named ``home.function``
LAYER_FUNCTIONS = (
    ("cli", "main", CALL),
    ("perm", "avoiders", GENERATOR),
    ("perm", "bruhat_leq", CALL),
    ("perm", "find_occurrence", LEAF),
    ("vhc", "enumerate_vhcs", GENERATOR),
    ("vhc", "is_reduced", LEAF),
    ("vhc", "validate", LEAF),
    ("walks", "count_walks", CALL),
    ("walks", "vhc312_count", CALL),
    ("walks", "count_pairs", CALL),
    ("maps", "swl", CALL),
    ("maps", "swr", CALL),
    ("maps", "w_map", CALL),
    ("maps", "w_map_left_inverse", CALL),
    ("maps", "ll_map", CALL),
    ("maps", "ll_inverse_lookup", CALL),
    ("maps", "phi", CALL),
    ("maps", "phi_inverse", CALL),
    ("motzkin", "enumerate_paths", GENERATOR),
    ("motzkin", "enumerate_intervals", GENERATOR),
    ("motzkin", "leq", LEAF),
    ("experiments", "triangle", CALL),
    ("experiments", "vhc_tallies_312", CALL),
    ("experiments", "vhc_count_exhaustive", CALL),
    ("experiments", "reduced_count", CALL),
    ("experiments", "check_eq2", CALL),
    ("experiments", "check_tamari_image", CALL),
    ("experiments", "check_conjectures", CALL),
    ("experiments", "real_rooted", CALL),
    ("experiments", "asymptotic_fit", CALL),
)

#: bindings whose calls are named for the caller's layer: the pattern guard
#: and the configuration re-check that ``maps`` runs on every call
BINDING_NAMES = {
    ("maps", "find_occurrence"): "maps.guard",
    ("maps", "validate"): "maps.revalidate",
}

ROOT = "trace.root"


class Tracer:
    """Spans and per-name counters of one command, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.items: list[int] = []  # summed len() of returned tables
        self.leaf_s: list[float] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.leaf = array("d")  # leaf time charged to each span
        self.stack: list[int] = []
        self.open(self.name_id(ROOT))

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for counter in (self.calls, self.yields, self.items):
                counter.append(0)
            self.leaf_s.append(0.0)
        return self.ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.leaf.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, nid: int, kind: str):
        calls = self.calls
        if kind == LEAF:
            leaf_s, leaf, stack = self.leaf_s, self.leaf, self.stack

            def leaf_call(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    calls[nid] += 1
                    leaf_s[nid] += dt
                    leaf[stack[-1]] += dt

            return leaf_call
        if kind == GENERATOR:
            yields = self.yields

            def resumptions(it):
                while True:
                    i = self.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    yields[nid] += 1
                    yield item

            def generator_call(*args, **kwargs):
                calls[nid] += 1
                return resumptions(fn(*args, **kwargs))

            return generator_call
        items = self.items

        def call(*args, **kwargs):
            calls[nid] += 1
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hasattr(result, "__len__") and not isinstance(result, (str, int)):
                items[nid] += len(result)
            return result

        return call

    def install(self) -> None:
        """Wrap every binding of the layer functions in loaded modules."""
        modules = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name == "hookcomb" or name.startswith("hookcomb.")
        }
        for home, attr, kind in LAYER_FUNCTIONS:
            original = getattr(modules.get(home), attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                print(f"tracer: no {home}.{attr} to trace", file=sys.stderr)
                continue
            for mod_name, module in modules.items():
                for key, value in list(vars(module).items()):
                    if value is original:
                        span = BINDING_NAMES.get((mod_name, key), f"{home}.{attr}")
                        setattr(module, key, self.wrap(original, self.name_id(span), kind))

    def write(self, path: str, command_id: str) -> None:
        self.close(self.stack[0])
        meta = {
            "command": command_id,
            "spans": len(self.name),
            "names": self.names,
            "calls": self.calls,
            "yields": self.yields,
            "items": self.items,
            "leaf_s": self.leaf_s,
        }
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        with open(path + ".bin", "wb") as handle:
            for arr in (self.start, self.end, self.leaf, self.name, self.parent):
                arr.tofile(handle)


def read_spans(path: str):
    """The metadata and the span arrays a traced command wrote."""
    with open(path + ".json", encoding="utf-8") as handle:
        meta = json.load(handle)
    n = meta["spans"]
    arrays = [array(code) for code in "dddii"]
    with open(path + ".bin", "rb") as handle:
        for arr in arrays:
            arr.fromfile(handle, n)
    return meta, arrays


def self_times(meta: dict, arrays) -> dict[str, float]:
    """Seconds each span name spent outside its child spans and leaf calls;
    leaf names get their own measured time."""
    start, end, leaf, name, parent = arrays
    dur = [e - s for s, e in zip(start, end)]
    inner = list(leaf)
    for i, p in enumerate(parent):
        if p >= 0:
            inner[p] += dur[i]
    out = dict.fromkeys(meta["names"], 0.0)
    names = meta["names"]
    for i, nid in enumerate(name):
        out[names[nid]] += dur[i] - inner[i]
    for nid, seconds in enumerate(meta["leaf_s"]):
        out[names[nid]] += seconds
    return out


def main(argv: list[str]) -> int:
    spans_path, command_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS COMMAND_ID -- ARGV...")
    tracer = Tracer()
    from hookcomb import cli

    tracer.install()
    try:
        rc = cli.main(cli_argv)
        sys.stdout.flush()
    finally:
        tracer.write(spans_path, command_id)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
