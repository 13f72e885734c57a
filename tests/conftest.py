import random
from fractions import Fraction

import pytest

from filebasis.construction import ConstructionParams, generate
from filebasis.decision import Budget
from filebasis.words import Word, encode


def word_of(raw):
    """The reduced word of (index, sign) letters or (index, exponent) runs."""
    return Word.from_code(encode(raw))


def conjugate_by(g, a):
    """a * g * a^-1."""
    return a * g * a.inverse()


def is_cyclically_reduced(word):
    return word.cyclically_reduce()[0] == word


def is_counter_regular(word):
    """Regular read backwards: the inverse is regular."""
    return word.inverse().is_regular()


@pytest.fixture(scope="session")
def toy_params():
    return ConstructionParams(3, Fraction(1, 15), 2)


@pytest.fixture(scope="session")
def toy_budget():
    return Budget(max_edges=10**6, max_word_len=60, max_states=8000)


@pytest.fixture(scope="session")
def toy_presentation(toy_params, toy_budget):
    return generate(toy_params, 1, toy_budget)


@pytest.fixture(scope="session")
def theorem_params():
    return ConstructionParams(63, Fraction(1, 315), 315)


@pytest.fixture()
def rng():
    return random.Random(20260824)


def pytest_runtest_logreport(report):
    # one pass/fail line per acceptance criterion
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {status} {name}")
