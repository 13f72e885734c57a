import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from filebasis.construction import (
    ConstructionParams,
    ConstructionError,
    MalformedParamsError,
    Presentation,
    build_relator,
    check_relator,
    generate,
    least_rational_geq,
    next_w,
    validate_params,
)
from filebasis.decision import Budget
from filebasis.words import EMPTY, parse_word


class TestLeastRationalGeq:
    def test_exact_when_small_denominator(self):
        assert least_rational_geq(Fraction(3, 7), 100) == Fraction(3, 7)

    def test_above_when_capped(self):
        x = Fraction(355, 113)
        out = least_rational_geq(x, 50)
        assert out >= x and out.denominator <= 50

    @given(
        st.fractions(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=500),
    )
    def test_minimality(self, x, max_den):
        out = least_rational_geq(x, max_den)
        assert out >= x
        assert out.denominator <= max_den
        # nothing with an allowed denominator fits strictly between x and out
        for d in range(1, max_den + 1):
            c = -((-x.numerator * d) // x.denominator)  # ceil(x*d)
            assert Fraction(c, d) >= out


class TestParams:
    def test_malformed(self):
        with pytest.raises(MalformedParamsError):
            ConstructionParams(0, Fraction(1, 15), 2)
        with pytest.raises(MalformedParamsError):
            ConstructionParams(3, Fraction(2), 2)
        with pytest.raises(MalformedParamsError):
            ConstructionParams(3, Fraction(1, 15), 0)

    def test_derived_constants(self, theorem_params):
        assert theorem_params.lambda2 == Fraction(2, 63)
        assert theorem_params.mu == Fraction(17, 105)
        assert theorem_params.q == Fraction(105, 71)

    def test_q_fallback_when_mu_large(self, toy_params):
        assert toy_params.mu > Fraction(1, 2)
        assert toy_params.q == Fraction(1)

    def test_q_is_least_rational_above_bound(self, theorem_params):
        bound = 1 / (1 - 2 * theorem_params.mu)
        assert theorem_params.q == least_rational_geq(bound, 10**6)

    def test_validate_theorem_scale(self, theorem_params):
        report = validate_params(theorem_params)
        assert report.all_passed
        assert report.theorem_scale

    def test_validate_small_n(self):
        report = validate_params(ConstructionParams(4, Fraction(1, 20), 2))
        assert not report.theorem_scale

    def test_lambda1_too_large_fails(self):
        report = validate_params(ConstructionParams(63, Fraction(1, 2), 315))
        names = {c.name: c.passed for c in report.checks}
        assert not names["small-cancellation bound"]

    def test_boundary_lambda1(self):
        # just above the 1/(5n) guideline the first inequality flips
        report = validate_params(ConstructionParams(63, Fraction(1, 4 * 63), 315))
        lhs = (4 + Fraction(2 * 63) * Fraction(1, 252) / (1 - Fraction(1, 252))) * Fraction(1, 252)
        expected = lhs <= Fraction(1, 63)
        names = {c.name: c.passed for c in report.checks}
        assert names["small-cancellation bound"] == expected


class TestBuildRelator:
    def test_toy_relator(self, toy_params):
        rel = build_relator(toy_params, 1, parse_word("x2 x1", 3))
        assert rel.m == 5
        assert str(rel.r) == "x1^5 x2^5 x3^5 x1^-1 x2^-1"
        assert len(rel.r) == 3 * 5 + 2

    def test_theorem_scale_exponent(self, theorem_params):
        rel = build_relator(theorem_params, 1, parse_word("x2 x1", 63))
        assert rel.m == 315 * 2 + 1 == 631
        assert len(rel.r) == 63 * 631 + 2 == 39755
        assert len(rel.r.runs) == 65

    def test_length_identity(self, toy_params):
        for i, text in [(1, "x2 x1"), (2, "x2^2 x1"), (5, "x2 x1^3")]:
            rel = build_relator(toy_params, i, parse_word(text, 3))
            assert len(rel.r) == toy_params.n * rel.m + len(rel.w)

    def test_cyclically_reduced(self, toy_params):
        rel = build_relator(toy_params, 1, parse_word("x2 x1", 3))
        core, _ = rel.r.cyclically_reduce()
        assert core == rel.r

    def test_check_relator_names_violation(self, toy_params):
        # the toy parameters violate the growth inequality, and only it
        rel = build_relator(toy_params, 1, parse_word("x2 x1", 3))
        assert check_relator(toy_params, rel) == ["growth inequality l1*(n*m + |w|) >= |w| fails"]

    def test_check_relator_clean_at_theorem_scale(self, theorem_params):
        rel = build_relator(theorem_params, 1, parse_word("x2 x1", 63))
        assert check_relator(theorem_params, rel) == []

    def test_bad_alphabet(self, toy_params):
        with pytest.raises(ConstructionError):
            build_relator(toy_params, 1, parse_word("x4 x1", 4))


class TestNextW:
    def test_empty_relators(self, toy_params, toy_budget):
        out = next_w(toy_params, [], toy_budget)
        assert out.is_yes
        assert out.witness == parse_word("x2 x1", 3)

    def test_empty_relators_large_n(self, theorem_params, toy_budget):
        out = next_w(theorem_params, [], toy_budget)
        assert out.witness == parse_word("x2 x1", 63)

    def test_brute_force_agreement(self, toy_params, toy_budget):
        # oracle: scan deg-lex enumeration, drop words starting x1^{+-1},
        # ending x_n^{+-1}, or regular; with no relators equality is free
        from filebasis.words import iter_reduced_words

        expected = None
        for w in iter_reduced_words(3):
            if not w:
                continue
            if w.runs[0][0] == 1 or w.runs[-1][0] == 3 or w.is_regular():
                continue
            expected = w
            break
        assert next_w(toy_params, [], toy_budget).witness == expected


class TestGenerate:
    def test_zero_steps(self, toy_params, toy_budget):
        pres = generate(toy_params, 0, toy_budget)
        assert pres.relators == ()
        assert not pres.truncated

    def test_one_step_toy(self, toy_presentation):
        assert len(toy_presentation.relators) == 1
        assert str(toy_presentation.relators[0].r) == "x1^5 x2^5 x3^5 x1^-1 x2^-1"

    def test_determinism(self, toy_params, toy_budget):
        a = generate(toy_params, 1, toy_budget)
        b = generate(toy_params, 1, toy_budget)
        assert a.dumps() == b.dumps()

    def test_theorem_scale_first_step(self, theorem_params, toy_budget):
        pres = generate(theorem_params, 1, toy_budget)
        rel = pres.relators[0]
        assert rel.m == 631 and len(rel.r) == 39755

    def test_second_step_exceeds_budget(self, toy_params):
        # the bounded equality tests inside step 2 blow a tiny budget,
        # which must truncate rather than guess
        tiny = Budget(max_edges=40, max_word_len=25, max_states=50)
        pres = generate(toy_params, 2, tiny)
        assert pres.truncated
        assert len(pres.relators) >= 1

    def test_first_step_scan_boundary(self, toy_params):
        # next_w's scan stops after max_states words; x2 x1 is the 18th
        pres = generate(toy_params, 1, Budget(max_states=18))
        assert [rel.w for rel in pres.relators] == [parse_word("x2 x1", 3)]
        assert not pres.truncated
        pres = generate(toy_params, 1, Budget(max_states=17))
        assert pres.relators == () and pres.truncated

    def test_presentation_invariants(self, toy_presentation, toy_params):
        problems = toy_presentation.validate()
        # the only expected violation at toy scale is the growth inequality
        assert all("growth inequality" in p for p in problems)


class TestPresentationJSON:
    def test_roundtrip(self, toy_presentation):
        data = json.loads(toy_presentation.dumps())
        back = Presentation.loads(json.dumps(data))
        assert back.params.n == toy_presentation.params.n
        assert back.params.lambda1 == toy_presentation.params.lambda1
        assert back.relators[0].r == toy_presentation.relators[0].r

    def test_schema_fields(self, toy_presentation):
        data = toy_presentation.as_dict()
        assert set(data) == {"n", "lambda1", "N", "relators"}
        assert set(data["relators"][0]) == {"i", "w", "m", "r"}
        assert data["lambda1"] == "1/15"

    def test_malformed(self):
        with pytest.raises(MalformedParamsError):
            Presentation.loads('{"n": 3}')
        with pytest.raises(MalformedParamsError):
            Presentation.loads('{"n": 3, "lambda1": "1/15", "N": 2, "truncated": "no"}')
