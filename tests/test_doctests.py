import doctest
import importlib
import pkgutil

import pytest

import hookcomb

MODULES = ["hookcomb", *(f"hookcomb.{info.name}"
                         for info in pkgutil.iter_modules(hookcomb.__path__))]


def failures(name: str) -> int:
    return doctest.testmod(importlib.import_module(name)).failed


def test_perm_doctests():
    assert failures("hookcomb.perm") == 0


def test_motzkin_doctests():
    assert failures("hookcomb.motzkin") == 0


@pytest.mark.parametrize(
    "name", sorted(set(MODULES) - {"hookcomb.perm", "hookcomb.motzkin"})
)
def test_every_other_module_doctests(name):
    assert failures(name) == 0
