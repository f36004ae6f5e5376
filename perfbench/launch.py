"""Run ``python3 -m hookcomb ARGV...`` in this process, then report the
process's peak resident set size on the last line of stderr.

    PYTHONPATH=src python3 perfbench/launch.py ARGV...

``ru_maxrss`` of a child is useless here: Linux carries the high-water mark
of the address space the child had before ``exec`` (a copy of the
benchmark's own) into it.  ``VmHWM`` in ``/proc/self/status`` covers only
the address space since ``exec``, that is, the interpreter and hookcomb.
"""

import runpy
import sys

MARK = "perfbench-peak-rss-kb"


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    sys.argv = ["hookcomb", *sys.argv[1:]]
    try:
        runpy.run_module("hookcomb", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        sys.stderr.write(f"\n{MARK} {peak_rss_kb()}\n")
