import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from conftest import IDENTITY, compose, inverse_perm, is_cyclically_reduced, moved_by
from hypothesis import given, strategies as st

from filebasis import construction, decision
from filebasis.construction import (
    ConstructionParams,
    ConstructionError,
    MalformedParamsError,
    Presentation,
    Relator,
    build_relator,
    check_relator,
    generate,
    next_w,
    regular_head,
    validate_params,
)
from filebasis.decision import EXCEEDED, NO, YES, Budget, Outcome
from filebasis.words import (
    encode,
    free_reduce,
    invert,
    is_regular,
    iter_reduced_words,
    parse_word,
    perm_image,
    perm_powers,
    word_runs,
    word_text,
)

X3 = parse_word("x3", 3)
LOOSE = ConstructionParams(3, Fraction(1, 2), 2)  # lambda1 = 1/2 meets the growth inequality


class TestParams:
    def test_malformed(self):
        with pytest.raises(MalformedParamsError):
            ConstructionParams(0, Fraction(1, 15), 2)
        with pytest.raises(MalformedParamsError):
            ConstructionParams(3, Fraction(2), 2)
        with pytest.raises(MalformedParamsError):
            ConstructionParams(3, Fraction(1, 15), 0)
        for lambda1 in ("1/0", "zzz", None, float("inf")):
            with pytest.raises(MalformedParamsError, match="bad rational"):
                ConstructionParams(0, lambda1, 2)

    def test_derived_constants(self, theorem_params):
        assert theorem_params.lambda2 == Fraction(2, 63)
        assert theorem_params.mu == Fraction(17, 105)
        assert theorem_params.q == Fraction(105, 71)

    def test_q_fallback_when_mu_large(self, toy_params):
        assert toy_params.mu > Fraction(1, 2)
        assert toy_params.q == Fraction(1)

    @given(st.integers(1, 200), st.fractions(0, 1).filter(lambda x: 0 < x < 1))
    def test_q_is_exact(self, n, lambda1):
        p = ConstructionParams(n, lambda1, 1)
        assert p.q == (1 / (1 - 2 * p.mu) if p.mu < Fraction(1, 2) else 1)

    def test_q_keeps_a_large_denominator(self):
        # 1/(1-2mu) = 315000000/214999937, beyond the old cap of 10^6
        p = ConstructionParams(63, Fraction(1, 10**7), 315)
        assert p.q == Fraction(315_000_000, 214_999_937)

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
        assert word_text(rel.r) == "x1^5 x2^5 x3^5 x1^-1 x2^-1"
        assert len(rel.r) == 3 * 5 + 2

    def test_theorem_scale_exponent(self, theorem_params):
        rel = build_relator(theorem_params, 1, parse_word("x2 x1", 63))
        assert rel.m == 315 * 2 + 1 == 631
        assert len(rel.r) == 63 * 631 + 2 == 39755
        assert len(word_runs(rel.r)) == 65

    def test_length_identity(self, toy_params):
        for i, text in [(1, "x2 x1"), (2, "x2^2 x1"), (5, "x2 x1^3")]:
            rel = build_relator(toy_params, i, parse_word(text, 3))
            assert len(rel.r) == toy_params.n * rel.m + len(rel.w)

    def test_cyclically_reduced(self, toy_params):
        rel = build_relator(toy_params, 1, parse_word("x2 x1", 3))
        assert is_cyclically_reduced(rel.r)

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


def _loose_relator(text, i=1):
    """Relator i over the word `text` under `LOOSE`, assembled without
    `build_relator`'s checks."""
    w = parse_word(text, 3)
    m = LOOSE.N * len(w) + i
    return Relator(i, w, m, free_reduce(regular_head(3, m) + invert(w)))


class TestRelatorChecks:
    """Every message of `check_relator` and of `Presentation.validate`'s
    cross-relator checks, on hand-altered relators."""

    CLEAN = _loose_relator("x2 x1")

    def test_clean(self):
        assert check_relator(LOOSE, self.CLEAN) == []

    ALTERED = {
        "exponent is not N|w| + i": replace(CLEAN, m=CLEAN.m + 1),
        "relator is not x_1^m...x_n^m w^-1": replace(CLEAN, r=CLEAN.r[1:]),
        "length identity n*m + |w| fails": replace(CLEAN, r=CLEAN.r[1:]),
        "relator is not cyclically reduced": replace(CLEAN, r=invert(X3) + CLEAN.r + X3),
        "w starts with x_1^{+-1}": _loose_relator("x1 x3 x2"),
        "w ends with x_n^{+-1}": _loose_relator("x2 x3"),
        "w is regular": _loose_relator("x2^2"),
    }

    @pytest.mark.parametrize("message", list(ALTERED))
    def test_message(self, message):
        assert message in check_relator(LOOSE, self.ALTERED[message])

    def test_cross_relator_messages(self):
        r1, r2 = self.CLEAN, _loose_relator("x2 x1", i=2)
        assert Presentation(LOOSE, (r1, r2)).validate() == []
        assert Presentation(LOOSE, (r1, r1)).validate() == [
            "exponents m_i are not pairwise distinct"
        ]
        assert Presentation(LOOSE, (r2, r1)).validate() == [
            "relator lengths are not nondecreasing"
        ]


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
        expected = None
        for w in iter_reduced_words(3):
            if not w:
                continue
            runs = word_runs(w)
            if runs[0][0] == 1 or runs[-1][0] == 3 or is_regular(w):
                continue
            expected = w
            break
        assert next_w(toy_params, [], toy_budget).witness == expected


class TestNextWSelection:
    """With relators, next_w returns the first candidate whose normal-form
    search answers no.  At toy scale that search never completes within
    the budgets, so it is stubbed here."""

    @pytest.fixture()
    def answers(self, monkeypatch):
        answers = {"x2 x1": YES, "x2 x1^-1": YES}
        asked = []

        def regular_normal_form(presentation, w, budget, engine="diagram"):
            asked.append(word_text(w))
            return Outcome(answers.get(word_text(w), NO))

        monkeypatch.setattr(decision, "regular_normal_form", regular_normal_form)
        return answers, asked

    def test_first_no_is_chosen(self, answers, toy_params, toy_presentation):
        _, asked = answers
        out = next_w(toy_params, toy_presentation.relators, Budget())
        assert out == Outcome(YES, witness=parse_word("x2^-1 x1", 3))
        assert asked == ["x2 x1", "x2 x1^-1", "x2^-1 x1"]

    def test_budget_exceeded_is_returned(self, answers, toy_params, toy_presentation):
        answers[0]["x2 x1"] = EXCEEDED
        out = next_w(toy_params, toy_presentation.relators, Budget())
        assert out == Outcome(EXCEEDED)

    def test_generate_builds_the_second_relator(self, answers, toy_params):
        pres = generate(toy_params, 2, Budget())
        assert not pres.truncated
        second = pres.relators[1]
        assert (second.i, second.w, second.m) == (2, parse_word("x2^-1 x1", 3), 6)
        assert second == build_relator(toy_params, 2, second.w)


class TestGenerate:
    def test_zero_steps(self, toy_params, toy_budget):
        pres = generate(toy_params, 0, toy_budget)
        assert pres.relators == ()
        assert not pres.truncated

    def test_one_step_toy(self, toy_presentation):
        assert len(toy_presentation.relators) == 1
        assert word_text(toy_presentation.relators[0].r) == "x1^5 x2^5 x3^5 x1^-1 x2^-1"

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


S3 = list(permutations(range(3)))


def conjugate(images, c):
    return tuple(compose(compose(inverse_perm(c), p), c) for p in images)


def is_quotient(images, relators):
    """Every relator moves no point, and the images generate a non-abelian group."""
    return all(moved_by(r, images) == IDENTITY for r in relators) and any(
        compose(a, b) != compose(b, a) for a, b in combinations(images, 2)
    )


def code_words(max_len=10):
    return st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=max_len).map(
        lambda letters: free_reduce(encode(letters))
    )


class TestQuotients:
    def test_toy_quotients_kill_every_relator(self, toy_presentation):
        relators = toy_presentation.relator_words()
        assert len(toy_presentation.quotients) == 3
        for images in toy_presentation.quotients:
            assert len(images) == 3 and all(sorted(p) == [0, 1, 2] for p in images)
            assert all(moved_by(r, images) == IDENTITY for r in relators)

    def test_transitive_and_non_abelian(self, toy_presentation):
        for images in toy_presentation.quotients:
            orbit = {0}
            while True:
                grown = orbit | {p[j] for p in images for j in orbit}
                if grown == orbit:
                    break
                orbit = grown
            assert orbit == {0, 1, 2}
            assert any(compose(a, b) != compose(b, a) for a, b in combinations(images, 2))

    @pytest.mark.parametrize("relators", ["toy", "none"])
    def test_one_per_conjugacy_class(self, toy_presentation, relators):
        presentation = toy_presentation
        if relators == "none":
            presentation = Presentation(toy_presentation.params)
        quotients = presentation.quotients
        for a, b in combinations(quotients, 2):
            assert all(conjugate(a, c) != b for c in S3)
        # every map of the generators onto S_3 that kills the relators is
        # conjugate to a kept one; a conjugate of one is itself only
        relators = presentation.relator_words()
        found = [images for images in product(S3, repeat=3) if is_quotient(images, relators)]
        assert len(found) == 6 * len(quotients) > 0
        assert all(any(conjugate(images, c) in quotients for c in S3) for images in found)

    @given(code_words())
    def test_run_images_match_letter_by_letter(self, toy_presentation, code):
        for images in toy_presentation.quotients:
            powers = [perm_powers(p) for p in images]
            assert perm_image(word_runs(code), powers) == moved_by(code, images)

    @given(code_words(), code_words(4), st.sampled_from((1, -1)))
    def test_planted_pairs_are_never_separated(self, toy_presentation, u, a, sign):
        r1 = toy_presentation.relators[0].r
        v = free_reduce(u + a + (r1 if sign > 0 else invert(r1)) + invert(a))
        for images in toy_presentation.quotients:
            assert moved_by(u, images) == moved_by(v, images)
        assert not decision._separated_from(v, toy_presentation)(word_runs(u))

    def test_theorem_scale_is_empty_without_relator_evaluation(self, theorem_params, monkeypatch):
        rel = build_relator(theorem_params, 1, parse_word("x2 x1", 63))

        def refuse(*args):
            raise AssertionError("relator evaluated")

        monkeypatch.setattr(construction, "perm_image", refuse)
        monkeypatch.setattr(construction, "word_runs", refuse)
        assert Presentation(theorem_params, (rel,)).quotients == ()

    def test_built_only_by_a_scan_that_may_skip(self, toy_params, toy_budget):
        # gen --count 1, eq and conj never reach the normal-form scan
        pres = generate(toy_params, 1, toy_budget)
        x1, g = parse_word("x1", 3), parse_word("x2 x1", 3)
        decision.equals_in_G(pres, x1, g, toy_budget, engine="both")
        decision.are_conjugate(pres, x1, g, Budget(max_word_len=30, max_states=100))
        assert "quotients" not in vars(pres)
        decision.regular_normal_form(pres, g, toy_budget)
        assert "quotients" in vars(pres)


class TestPresentationJSON:
    def test_roundtrip(self, toy_presentation):
        data = json.loads(toy_presentation.dumps())
        back = Presentation.from_dict(json.loads(json.dumps(data)))
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
            Presentation.from_dict({"n": 3})
        with pytest.raises(MalformedParamsError):
            Presentation.from_dict({"n": 3, "lambda1": "1/15", "N": 2, "truncated": "no"})
