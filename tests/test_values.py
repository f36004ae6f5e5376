"""The contract of the validated value types, which share one frozen
``__slots__`` base: equality within one class, a hash over the fields, the
``Cls(field=value, ...)`` repr, and no assignment or deletion."""

import copy
import pickle

import pytest

from hookcomb.motzkin import Interval, MotzkinPath
from hookcomb.perm import Permutation
from hookcomb.vhc import Vhc

UD = MotzkinPath("UD")

# a factory for one value, and the repr the dataclass versions printed
VALUES = {
    "Permutation": (lambda: Permutation((2, 1)), "Permutation(entries=(2, 1))"),
    "MotzkinPath": (lambda: MotzkinPath("UD"), "MotzkinPath(steps='UD')"),
    "Interval": (
        lambda: Interval(MotzkinPath("UD"), MotzkinPath("UD"), "C"),
        "Interval(lower=MotzkinPath(steps='UD'), upper=MotzkinPath(steps='UD'), "
        "order='C')",
    ),
    "Vhc": (
        lambda: Vhc(Permutation.from_text("2134"), {3}),
        "Vhc(pi=Permutation(entries=(2, 1, 3, 4)), ne_set=frozenset({3}))",
    ),
}


@pytest.mark.parametrize("make, text", VALUES.values(), ids=VALUES)
def test_frozen_value_contract(make, text):
    value, twin = make(), make()
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert not value != twin
    assert all(value != field for field in fields)
    assert value != fields
    assert repr(value) == text
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))


def test_trusted_values_equal_checked_ones():
    assert Permutation._trusted((2, 1)) == Permutation((2, 1))
    assert MotzkinPath._trusted("UD") == UD
    assert Interval._trusted(UD, UD, "C") == Interval(UD, UD, "C")
    pi = Permutation.from_text("2134")
    assert Vhc._trusted(pi, frozenset({3})) == Vhc(pi, {3})


def test_values_of_different_classes_differ():
    assert Interval(UD, UD, "S") != Interval(UD, UD, "C")
    assert MotzkinPath("UD") != Permutation((1, 2))


def test_permutation_stores_a_tuple():
    pi = Permutation([2, 1])
    assert pi.entries == (2, 1) and pi == Permutation((2, 1))
    assert hash(pi) == hash(Permutation((2, 1)))


def test_motzkin_path_refuses_a_non_string():
    for steps in (["U", "D"], ("U", "D"), None):
        with pytest.raises(ValueError, match="step string"):
            MotzkinPath(steps)
