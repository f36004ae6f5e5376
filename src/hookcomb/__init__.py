"""Hook configurations on pattern-avoiding permutations, Motzkin-path
orders, quarter-plane walk counts, and the bijections tying them together."""

from .motzkin import Interval, MotzkinPath
from .perm import Permutation, Point
from .vhc import Hook, Vhc, enumerate_vhcs, validate
from .walks import count_walks

__version__ = "0.1.0"

__all__ = [
    "Hook",
    "Interval",
    "MotzkinPath",
    "Permutation",
    "Point",
    "Vhc",
    "count_walks",
    "enumerate_vhcs",
    "validate",
    "__version__",
]
