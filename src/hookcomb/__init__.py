"""Hook configurations on pattern-avoiding permutations, Motzkin-path
orders, quarter-plane walk counts, and the bijections tying them together.

The names below load their submodule on first use, so that
``python -m hookcomb``, which runs this file first, starts a command with
only the modules that command needs.
"""

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_SOURCES = {
    "Hook": "vhc",
    "Interval": "motzkin",
    "MotzkinPath": "motzkin",
    "Permutation": "perm",
    "Point": "perm",
    "Vhc": "vhc",
    "count_walks": "walks",
    "enumerate_vhcs": "vhc",
    "validate": "vhc",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
