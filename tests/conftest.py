import random
from fractions import Fraction

import pytest

from filebasis import diagram as dg
from filebasis.construction import ConstructionParams, generate
from filebasis.decision import Budget
from filebasis.words import MalformedWordError, cyclic_reduce, encode, free_reduce, invert, is_regular


def word_of(raw):
    """The reduced code string of (index, sign) letters or (index, exponent) runs."""
    return free_reduce(encode(raw))


def conjugate_by(g, a):
    """a g a^-1, freely reduced."""
    return free_reduce(a + g + invert(a))


def is_cyclically_reduced(code):
    return cyclic_reduce(code)[0] == code


def is_counter_regular(code):
    """Regular read backwards: the inverse is regular."""
    return is_regular(invert(code))


def relabel_mirror(code, n):
    """Replace each letter x_i^s by x_{n+1-i}^{-s}; involutive.  The code
    2(i-1) + (s > 0) becomes 2(n-i) + (s < 0) = 2n - 1 - code."""
    if any(ord(c) >= 2 * n for c in code):
        raise MalformedWordError("letter index exceeds alphabet size")
    return "".join(chr(2 * n - 1 - ord(c)) for c in code)


def degenerate_path_diagram(code):
    """Face-free disc whose single contour reads code code^-1."""
    stops = [f"v{j}" for j in range(len(code) + 1)]
    darts, invs, froms, labels = dg._path(code, stops, lambda j: f"d{j}")
    contour = darts[::2] + darts[::-2]
    return dg._diagram(stops, darts, invs, froms, labels, [], [contour] if contour else [])


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
