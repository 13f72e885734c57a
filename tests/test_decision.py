import heapq
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import TOY_A5_MAP, conjugate_by, moved_by, word_of
from hypothesis import example, given, settings, strategies as st

from filebasis import construction, words
from filebasis import decision as dec
from filebasis.construction import Presentation, Relator, build_relator
from filebasis.decision import (
    Budget,
    EXCEEDED,
    NO,
    OBSTRUCTED,
    YES,
    ab_obstructed,
    are_conjugate,
    d_edge_bound,
    equals_in_G,
    in_C,
    in_D,
    regular_normal_form,
    replay_conjugacy,
    replay_fill,
    replay_rewrite,
    rewrite_search,
)
from filebasis.words import (
    cyclic_join,
    cyclic_reduce,
    encode,
    free_reduce,
    invert,
    iter_regular_words,
    least_rotation,
    parse_word,
    relator_variants,
    word_text,
)


def w(text, n=3):
    return parse_word(text, n)


def random_word(rng, n=3, max_len=8):
    length = rng.randrange(0, max_len + 1)
    return word_of([(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(length)])


@pytest.fixture(scope="module")
def free_presentation(toy_params):
    """The toy alphabet without relators: the free group of rank 3."""
    return Presentation(toy_params)


class TestBudget:
    def test_positive_caps(self):
        with pytest.raises(ValueError):
            Budget(max_edges=0)
        with pytest.raises(ValueError):
            Budget(max_word_len=-1)


class TestInC:
    def test_free_equal(self, free_presentation, toy_budget):
        out = in_C(free_presentation, 1, w("x1"), w("x1"), toy_budget)
        assert out.is_yes
        assert out.witness.edges == 1

    def test_free_unequal(self, free_presentation, toy_budget):
        assert in_C(free_presentation, 100, w("x1"), w("x2"), toy_budget).is_no

    def test_one_face_witness(self, toy_presentation, toy_budget):
        r1 = toy_presentation.relators[0].r
        out = in_C(toy_presentation, len(r1), w("x1^5 x2^5 x3^5"), w("x2 x1"), toy_budget)
        assert out.is_yes
        assert replay_fill(out.witness, toy_presentation)
        assert out.witness.edges <= len(r1)

    def test_edge_bound_too_small(self, toy_presentation, toy_budget):
        r1 = toy_presentation.relators[0].r
        # uv^-1 = r1 needs 17 edges; 16 cannot host any diagram
        out = in_C(toy_presentation, 16, w("x1^5 x2^5 x3^5"), w("x2 x1"), toy_budget)
        assert not out.is_yes

    def test_no_edges_is_no(self, toy_presentation, toy_budget):
        # the abelian images agree, but no diagram with 0 edges has a contour of 4 letters
        assert in_C(toy_presentation, 0, w("x1 x2"), w("x2 x1"), toy_budget).is_no

    def test_ab_obstruction_is_no(self, toy_presentation, toy_budget):
        out = in_C(toy_presentation, 10**6, w("x1"), w("x2"), toy_budget)
        assert out.is_no

    def test_budget_exceeded_not_no(self, toy_presentation):
        tiny = Budget(max_edges=30, max_word_len=20, max_states=10)
        # same abelianized image but no small filling: must not claim no
        out = in_C(toy_presentation, 10**6, w("x1 x2"), w("x2 x1"), tiny)
        assert out.value in (YES, EXCEEDED)

    def test_fill_witness_replay_rejects_tampering(self, toy_presentation, toy_budget):
        r1 = toy_presentation.relators[0].r
        out = in_C(toy_presentation, len(r1), w("x1^5 x2^5 x3^5"), w("x2 x1"), toy_budget)
        forged = dec.FillWitness(out.witness.contour, out.witness.trace, out.witness.edges + 1, out.witness.area)
        assert not replay_fill(forged, toy_presentation)


class TestReplayGuards:
    """Each forged witness fails its independent replay; the genuine one passes."""

    @pytest.fixture()
    def filling(self, toy_presentation, toy_budget):
        r1 = toy_presentation.relators[0].r
        out = in_C(toy_presentation, len(r1), w("x1^5 x2^5 x3^5"), w("x2 x1"), toy_budget)
        assert replay_fill(out.witness, toy_presentation)
        assert len(out.witness.trace) == 1
        return out.witness

    def test_forged_fillings_fail(self, filling, toy_presentation):
        ((j, face),) = filling.trace
        length = len(cyclic_reduce(filling.contour)[0])
        forged = {
            "unknown face label": replace(filling, trace=((j, face[1:]),)),
            "position past the word": replace(filling, trace=((len(filling.contour), face),)),
            # the genuine position, counted from the end of the word
            "negative position": replace(filling, trace=((j - length, face),)),
            "area off by one": replace(filling, area=filling.area + 1),
            # edges and area agree with the contour; only the word left over gives it away
            "empty trace": dec.FillWitness(w("x1 x2"), (), 1, 0),
        }
        for case, witness in forged.items():
            assert not replay_fill(witness, toy_presentation), case

    def test_forged_rewrites_fail(self, toy_presentation):
        r1 = toy_presentation.relators[0].r
        u = free_reduce(r1 + r1)
        genuine = dec.RewriteWitness("", (u, r1, ""), ("",))
        assert replay_rewrite(genuine, toy_presentation, u, "")
        # the chain must start at u
        assert not replay_rewrite(genuine, toy_presentation, w("x1"), "")
        # u to the empty word deletes two faces: not one insertion
        skipped = dec.RewriteWitness("", (u, ""), ("",))
        assert not replay_rewrite(skipped, toy_presentation, u, "")


# r1 at n=63 has 39,755 letters; every rotation of it and of its inverse
# would take about 6 GB, so the replay must match faces without them
THEOREM_SCALE_REPLAY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from fractions import Fraction
from filebasis.construction import ConstructionParams, Presentation, build_relator
from filebasis.decision import FillWitness, RewriteWitness, replay_fill, replay_rewrite
from filebasis.words import invert, least_rotation, parse_word
params = ConstructionParams(63, Fraction(1, 315), 315)
r1 = build_relator(params, 1, parse_word("x2 x1", 63))
presentation = Presentation(params, [r1])
face = invert(least_rotation(r1.r))
genuine = FillWitness(r1.r, ((0, face),), len(r1.r), len(r1.r))
tampered = FillWitness(r1.r, ((1, face),), len(r1.r), len(r1.r))
print(replay_fill(genuine, presentation), replay_fill(tampered, presentation))
# "" -> r1 inserts r1 itself; with a letter dropped, the step inserts no face
short = r1.r[1:]
genuine = RewriteWitness(r1.r, ("", r1.r), (r1.r,))
tampered = RewriteWitness(short, ("", short), (short,))
print(replay_rewrite(genuine, presentation, "", r1.r), replay_rewrite(tampered, presentation, "", short))
# the forged step short -> "" is rejected by one test of its cyclic core,
# not by a free reduction at each of its 39,754 positions
import time
forged = RewriteWitness("", (short, ""), ("",))
start = time.perf_counter()
print(replay_rewrite(forged, presentation, short, ""), time.perf_counter() - start)
"""


def test_theorem_scale_replay_fits_in_a_gibibyte():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", THEOREM_SCALE_REPLAY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    *verdicts, forged_seconds = proc.stdout.split()
    assert verdicts == ["True", "False", "True", "False", "False"]
    assert float(forged_seconds) < 1.0


def _reference_rewrite_step(a, b, faces):
    """The replay's step rule by search: some face, inserted at some
    position of a, gives b."""
    return any(b == words.insert(a, j, face) for _, face in faces for j in range(len(a) + 1))


class TestRewriteReplayAgainstReference:
    """replay_rewrite reads each step's one candidate face; the reference
    tries every face at every position.  Both must accept the same steps."""

    def _presentation(self, rng):
        n = rng.choice((2, 3))
        relators = []
        for _ in range(rng.choice((1, 2))):
            r = random_word(rng, n, max_len=6)
            if rng.random() < 0.5:
                # conjugated, so that r need not be cyclically reduced
                r = conjugate_by(r, random_word(rng, n, max_len=3))
            relators.append(r)
        params = construction.ConstructionParams(n, Fraction(1, 15), 2)
        rels = tuple(Relator(i, "", 1, r) for i, r in enumerate(relators, 1))
        return n, Presentation(params, rels), relator_variants(relators)

    def _step(self, rng, n, a, faces):
        kind = rng.choice(("genuine", "random", "forgery", "unreduced"))
        if not faces or kind == "random":
            return "random", random_word(rng, n, max_len=9)
        _, face = rng.choice(faces)
        if kind == "forgery":
            # a conjugated face in front of a, conjugated by no prefix of a
            p = random_word(rng, n, max_len=3)
            while a.startswith(p):
                p = random_word(rng, n, max_len=3)
            return kind, free_reduce(p + face + invert(p) + a)
        b = words.insert(a, rng.randrange(len(a) + 1), face)
        if kind == "unreduced":
            i, x = rng.randrange(len(b) + 1), chr(rng.randrange(2 * n))
            b = b[:i] + x + invert(x) + b[i:]
        return kind, b

    def test_agrees_with_reference_loop(self):
        rng = random.Random(3899)
        tally = {}
        for _ in range(250):
            n, presentation, faces = self._presentation(rng)
            for _ in range(10):
                a = random_word(rng, n, max_len=7)
                kind, b = self._step(rng, n, a, faces)
                expected = _reference_rewrite_step(a, b, faces)
                # one step from a to b, on both sides
                witness = dec.RewriteWitness(b, (a, b), (a, b))
                assert replay_rewrite(witness, presentation, a, a) == expected, (kind, a, b)
                counts = tally.setdefault(kind, [0, 0])
                counts[0] += 1
                counts[1] += expected
        assert sum(total for total, _ in tally.values()) >= 2000
        # every kind is drawn, and both verdicts occur among the forgeries
        assert set(tally) == {"genuine", "random", "forgery", "unreduced"}
        assert 0 < tally["forgery"][1] < tally["forgery"][0]
        assert tally["unreduced"][1] == 0


class TestReplaysReadNoFaceList:
    """No replay builds the rotation list: with `Presentation.faces` and
    `relator_variants` refusing, genuine witnesses of all three kinds replay."""

    def test_replays_without_faces(self, monkeypatch, toy_presentation, toy_budget):
        r1 = toy_presentation.relators[0].r
        filling = in_C(toy_presentation, len(r1), w("x1^5 x2^5 x3^5"), w("x2 x1"), toy_budget)
        conj = conjugate_by(r1, w("x3 x1^-1"))
        rewriting = rewrite_search(toy_presentation, conj, "", toy_budget)
        lemmas = TestConjugacyLemmas
        conjugacy = are_conjugate(lemmas.COMMUTATOR, lemmas.U, lemmas.V, lemmas.BUDGET)
        assert len(rewriting.witness.steps_from_u) + len(rewriting.witness.steps_from_v) > 2
        assert conjugacy.witness.lemmas

        def refuse(*args):
            raise AssertionError("a replay read the face list")

        monkeypatch.setattr(Presentation, "faces", property(refuse))
        monkeypatch.setattr(dec, "relator_variants", refuse)
        assert replay_fill(filling.witness, toy_presentation)
        assert replay_rewrite(rewriting.witness, toy_presentation, conj, "")
        assert replay_conjugacy(conjugacy.witness, lemmas.COMMUTATOR, lemmas.U, lemmas.V)


class TestInD:
    def test_edge_bound_formula(self, toy_presentation):
        q = toy_presentation.params.q
        u, v = w("x1 x2"), w("x3")
        assert d_edge_bound(toy_presentation, u, v) == Fraction(1 + q * 17, 2) * 3

    def test_trivial_yes(self, free_presentation, toy_budget):
        assert in_D(free_presentation, w("x1 x2"), w("x1 x2"), toy_budget).is_yes

    def test_relator_yes(self, toy_presentation, toy_budget):
        out = in_D(toy_presentation, w("x2 x1"), w("x1^5 x2^5 x3^5"), toy_budget)
        assert out.is_yes
        assert replay_fill(out.witness, toy_presentation)

    def test_free_no(self, free_presentation, toy_budget):
        assert in_D(free_presentation, w("x2 x1"), w("x1 x2"), toy_budget).is_no


class TestRewrite:
    def test_identical(self, free_presentation, toy_budget):
        out = rewrite_search(free_presentation, w("x1"), w("x1"), toy_budget)
        assert out.is_yes

    def test_free_no(self, free_presentation, toy_budget):
        assert rewrite_search(free_presentation, w("x1"), w("x2"), toy_budget).is_no

    def test_relator_insertion(self, toy_presentation, toy_budget):
        r1 = toy_presentation.relators[0].r
        out = rewrite_search(toy_presentation, r1, "", toy_budget)
        assert out.is_yes
        assert replay_rewrite(out.witness, toy_presentation, r1, "")

    def test_conjugated_relator(self, toy_presentation, toy_budget):
        r1 = toy_presentation.relators[0].r
        conj = conjugate_by(r1, w("x3 x1^-1"))
        out = rewrite_search(toy_presentation, conj, "", toy_budget)
        assert out.is_yes
        assert replay_rewrite(out.witness, toy_presentation, conj, "")


class TestEqualsInG:
    def test_relator_trivial(self, toy_presentation, toy_budget):
        r1 = toy_presentation.relators[0].r
        for engine in ("diagram", "rewrite", "both"):
            assert equals_in_G(toy_presentation, r1, "", toy_budget, engine=engine).is_yes

    def test_generators_distinct(self, toy_presentation, toy_budget):
        assert equals_in_G(toy_presentation, w("x1"), w("x2"), toy_budget).is_no

    def test_unknown_engine(self, toy_presentation, toy_budget):
        with pytest.raises(ValueError):
            equals_in_G(toy_presentation, w("x1"), w("x2"), toy_budget, engine="nope")
        # rejected on entry, also where no engine would run: equal words, and
        # a scan that max_states ends before it tests a candidate
        with pytest.raises(ValueError):
            equals_in_G(toy_presentation, w("x1"), w("x1"), Budget(), engine="nope")
        with pytest.raises(ValueError):
            regular_normal_form(toy_presentation, w("x2 x1"), Budget(max_states=3), engine="nope")

    def test_congruence_samples(self, toy_presentation, toy_budget, rng):
        for _ in range(20):
            u = random_word(rng)
            out = equals_in_G(toy_presentation, u, u, toy_budget)
            assert out.is_yes  # reflexivity

    def test_symmetry_samples(self, toy_presentation, toy_budget, rng):
        for _ in range(10):
            u, v = random_word(rng, max_len=4), random_word(rng, max_len=4)
            a = equals_in_G(toy_presentation, u, v, toy_budget)
            b = equals_in_G(toy_presentation, v, u, toy_budget)
            if not (a.exceeded or b.exceeded):
                assert a.value == b.value

    def test_engine_agreement_with_oracle(self, toy_presentation, toy_budget, rng, ball_oracle):
        oracle = ball_oracle
        for _ in range(30):
            u, v = random_word(rng, max_len=5), random_word(rng, max_len=5)
            d = equals_in_G(toy_presentation, u, v, toy_budget, engine="diagram")
            r = equals_in_G(toy_presentation, u, v, toy_budget, engine="rewrite")
            o = oracle.equal(u, v)
            decided = [x for x in (d.value, r.value) if x != EXCEEDED]
            if o is not None:
                for val in decided:
                    assert val == (YES if o else NO)
            if len(decided) == 2:
                assert decided[0] == decided[1]


class TestBallOracleMap:
    """The oracle's certificate of inequality: a hand-written map into A5."""

    def test_map_sends_r1_to_the_identity(self, toy_presentation):
        assert moved_by(toy_presentation.relators[0].r, TOY_A5_MAP) == tuple(range(5))

    def test_differing_images_answer_no(self, ball_oracle):
        # x1 x3 and x3 x1 have equal abelian images, and c d != d c in A5
        assert ball_oracle.equal(w("x1 x3"), w("x3 x1")) is False


class TestNormalForm:
    def test_already_regular(self, toy_presentation, toy_budget):
        g = w("x1^2 x3^-1")
        out = regular_normal_form(toy_presentation, g, toy_budget)
        assert out.is_yes and out.witness == g

    def test_trivial_input(self, toy_presentation, toy_budget):
        out = regular_normal_form(toy_presentation, w("x1 x1^-1"), toy_budget)
        assert out.is_yes and out.witness == ""

    def test_w1_maps_to_head(self, toy_presentation, toy_budget):
        out = regular_normal_form(toy_presentation, w("x2 x1"), toy_budget)
        assert out.is_yes
        assert out.witness == w("x1^5 x2^5 x3^5")

    def test_scan_cut_by_max_len_is_not_no(self, toy_presentation):
        # x1^3 x2 is its own normal form, but max_word_len stops the scan of
        # regular words at length 3, so the search cannot answer no
        budget = Budget(max_edges=10**6, max_word_len=3, max_states=8000)
        out = regular_normal_form(toy_presentation, w("x1^3 x2"), budget)
        assert out.exceeded

    def test_variants_built_once(self, toy_params, toy_presentation, toy_budget, monkeypatch):
        built = []
        original = words.relator_variants

        def counting(relators):
            built.append(1)
            return original(relators)

        for module in (words, dec, construction):
            if hasattr(module, "relator_variants"):
                monkeypatch.setattr(module, "relator_variants", counting)
        scanned = []
        equals = dec.equals_in_G

        def counting_equals(*args, **kwargs):
            scanned.append(1)
            return equals(*args, **kwargs)

        monkeypatch.setattr(dec, "equals_in_G", counting_equals)
        # at the completeness length the scan can still answer no, so it
        # searches x1 x2, which a quotient separates from x2 x1, before it
        # finds x1^5 x2^5 x3^5
        fresh = Presentation(toy_params, toy_presentation.relators)
        out = regular_normal_form(fresh, w("x2 x1"), COMPLETE_NF)
        assert out.is_yes
        assert len(scanned) >= 2
        assert len(built) == 1
        # step 1 searches for a filling of each commutator, and step 3,
        # with no trivial words found, walks the same faces
        built.clear()
        fresh = Presentation(toy_params, toy_presentation.relators)
        u, v = w("x1 x2 x1^-1 x2^-1"), w("x1 x3 x1^-1 x3^-1")
        out = are_conjugate(fresh, u, v, Budget(max_word_len=30, max_states=100))
        assert out.exceeded
        assert len(built) == 1

    def test_idempotent(self, toy_presentation, toy_budget, rng):
        for _ in range(10):
            g = random_word(rng, max_len=4)
            first = regular_normal_form(toy_presentation, g, toy_budget)
            if not first.is_yes:
                continue
            second = regular_normal_form(toy_presentation, first.witness, toy_budget)
            assert second.is_yes and second.witness == first.witness


class TestConjugacy:
    def test_equal_words(self, toy_presentation, toy_budget):
        out = are_conjugate(toy_presentation, w("x1 x2"), w("x1 x2"), toy_budget)
        assert out.is_yes

    def test_cyclic_shift(self, toy_presentation, toy_budget):
        out = are_conjugate(toy_presentation, w("x1 x2 x3"), w("x3 x1 x2"), toy_budget)
        assert out.is_yes
        s = out.witness.conjugator
        assert conjugate_by(w("x1 x2 x3"), s) == w("x3 x1 x2")

    def test_free_conjugate_with_decoration(self, toy_presentation, toy_budget):
        u = w("x1 x2")
        v = w("x3 x2 x1 x3^-1")
        out = are_conjugate(toy_presentation, u, v, toy_budget)
        assert out.is_yes
        s = out.witness.conjugator
        assert conjugate_by(u, s) == v

    def test_ab_obstruction(self, toy_presentation, toy_budget):
        out = are_conjugate(toy_presentation, w("x1"), w("x2"), toy_budget)
        assert out.is_no

    def test_trivial_vs_nontrivial(self, toy_presentation, toy_budget):
        out = are_conjugate(toy_presentation, w("x1 x1^-1"), w("x1"), toy_budget)
        assert out.is_no

    def test_shift_invariance_samples(self, toy_presentation, rng):
        budget = Budget(max_edges=10**6, max_word_len=30, max_states=2000)
        for _ in range(10):
            u = random_word(rng, max_len=5)
            if not u:
                continue
            k = rng.randrange(len(u))
            shifted = free_reduce(u[k:] + u[:k])
            out = are_conjugate(toy_presentation, u, shifted, budget)
            assert out.is_yes


class TestConjugacyLemmas:
    """A certificate that inserts a face of a trivial word carries that
    word's filling, and replays only with it."""

    COMMUTATOR = Presentation.from_dict(
        {
            "n": 2,
            "lambda1": "1/15",
            "N": 2,
            "relators": [{"i": 1, "w": "", "m": 1, "r": "x1 x2 x1^-1 x2^-1"}],
        }
    )
    U, V = w("x1 x2 x1^-2 x2^-1", 2), w("x1^4 x2 x1^-1 x2^-2 x1 x2 x1^-5", 2)
    BUDGET = Budget(max_word_len=14, max_states=600)

    def test_certificate_carries_its_lemmas(self):
        out = are_conjugate(self.COMMUTATOR, self.U, self.V, self.BUDGET)
        assert out.is_yes and out.witness.lemmas
        faces = dict(self.COMMUTATOR.faces)
        assert any(variant not in faces for _, variant in out.witness.certificate.trace)
        assert not replay_fill(out.witness.certificate, self.COMMUTATOR)
        for lemma in out.witness.lemmas:
            assert replay_fill(lemma, self.COMMUTATOR)
        assert replay_conjugacy(out.witness, self.COMMUTATOR, self.U, self.V)

    def test_rotations_of_trivial_words_are_skipped(self):
        # x1^2 x2^-1 x1^-2 x2, a rotation of the first trivial word's
        # inverse, and x1 x2 x1^-2 x2^-1 x1, a rotation of the word, offer
        # its faces again: they are not scanned, and no lemma carries them
        out = are_conjugate(self.COMMUTATOR, self.U, self.V, self.BUDGET)
        assert [lemma.contour for lemma in out.witness.lemmas] == [w("x1^2 x2 x1^-2 x2^-1", 2)]
        certificate = out.witness.certificate
        assert certificate.contour == w("x1 x2 x1^-2 x2^-1 x1^5 x2^-1 x1^-1 x2^2 x1 x2^-1 x1^-4", 2)
        assert certificate.trace == (
            (12, w("x1^-1 x2^-1 x1 x2", 2)),
            (13, w("x1^-1 x2^-1 x1 x2", 2)),
            (5, w("x1^-2 x2 x1^2 x2^-1", 2)),
        )

    def test_replay_fails_without_the_lemmas(self):
        out = are_conjugate(self.COMMUTATOR, self.U, self.V, self.BUDGET)
        bare = replace(out.witness, lemmas=())
        assert not replay_conjugacy(bare, self.COMMUTATOR, self.U, self.V)

    def test_replay_checks_the_contour(self):
        out = are_conjugate(self.COMMUTATOR, self.U, self.V, self.BUDGET)
        assert not replay_conjugacy(out.witness, self.COMMUTATOR, self.U, self.U)

    def test_replay_without_certificate_is_free_conjugacy(self, toy_presentation):
        u, v = w("x1 x2"), w("x3 x2 x1 x3^-1")
        witness = are_conjugate(toy_presentation, u, v, Budget()).witness
        assert witness.certificate is None and not witness.lemmas
        assert replay_conjugacy(witness, toy_presentation, u, v)
        assert not replay_conjugacy(witness, toy_presentation, u, u)


class TestScanBoundaries:
    """Each budgeted scan stops after exactly max_states candidates: a budget
    equal to the number of candidates scanned decides, one fewer cannot."""

    FREE2 = Presentation(construction.ConstructionParams(2, Fraction(1, 15), 2))

    def test_normal_form_scan(self):
        # the 85 regular words over x1, x2 up to the completeness length 6
        g = w("x2 x1", 2)
        assert regular_normal_form(self.FREE2, g, Budget(max_states=85)) == dec.Outcome(NO)
        assert regular_normal_form(self.FREE2, g, Budget(max_states=84)) == dec.Outcome(EXCEEDED)

    @pytest.mark.parametrize("states, value", [(13121, NO), (13120, EXCEEDED)])
    def test_conjugacy_trivial_word_scan(self, monkeypatch, states, value):
        # [x1, x2] and [x1, x2^-1] are not conjugate in the free group; both
        # scans run over the 13121 reduced words of length <= q(4 + 4) = 8
        u, v = w("x1 x2 x1^-1 x2^-1", 2), w("x1 x2^-1 x1^-1 x2", 2)
        calls = _counting(monkeypatch, "equals_in_G")
        assert are_conjugate(self.FREE2, u, v, Budget(max_states=states)) == dec.Outcome(value)
        # step 1 tests u and v, then the scan tests every candidate but the empty word
        assert sum(1 for args in calls if args[2] == "") == 2 + states - 1

    def test_conjugacy_annulus_scan(self, toy_presentation):
        # x1^-1 (x1 x2) x1 = x2 x1 = x1^5 x2^5 x3^5 in G, and x1^-1 is the
        # third conjugator the annulus scan tries
        u, v = w("x1 x2"), w("x1^5 x2^5 x3^5")
        out = are_conjugate(toy_presentation, u, v, Budget(max_states=3))
        assert out.is_yes and out.witness.conjugator == w("x1^-1")
        assert are_conjugate(toy_presentation, u, v, Budget(max_states=2)) == dec.Outcome(EXCEEDED)


class TestAbelianization:
    def test_relator_vector_member(self, toy_presentation):
        r1 = toy_presentation.relators[0].r
        assert not ab_obstructed(r1, toy_presentation)

    def test_generator_not_member(self, toy_presentation):
        assert ab_obstructed(w("x1"), toy_presentation)

    def test_empty_relators(self, free_presentation):
        assert ab_obstructed(w("x1"), free_presentation)
        assert not ab_obstructed(w("x1 x1^-1"), free_presentation)

    @given(st.integers(-4, 4))
    def test_multiples_of_relator(self, toy_presentation, t):
        assert word_text(toy_presentation.relators[0].r) == "x1^5 x2^5 x3^5 x1^-1 x2^-1"
        vec = [t * 4, t * 4, t * 5]
        seq = []
        for i, k in enumerate(vec, start=1):
            seq.extend([(i, 1 if k > 0 else -1)] * abs(k))
        assert not ab_obstructed(encode(seq), toy_presentation)


def lattice_of(vectors, n):
    """The echelon basis `Presentation.lattice` builds for relators whose
    abelian images are the given vectors."""
    texts = [" ".join(f"x{j}^{e}" for j, e in enumerate(v, 1) if e) for v in vectors]
    relators = tuple(
        construction.Relator(i, "", 0, parse_word(text, n)) for i, text in enumerate(texts, 1)
    )
    return Presentation(construction.ConstructionParams(n, Fraction(1, 15), 2), relators).lattice


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m))
    )


def _minor_invariants(vectors, n):
    """Rank and gcd of the maximal nonzero minors of the matrix with these
    rows: together with the rational span, they fix the integer lattice."""
    for r in range(n, 0, -1):
        g = 0
        for rows in combinations(vectors, r):
            for cols in combinations(range(n), r):
                g = gcd(g, _det([[v[c] for c in cols] for v in rows]))
        if g:
            return r, g
    return 0, 1


@st.composite
def _lattice_cases(draw):
    """n, up to 5 generators and a target, entries in [-3, 3]."""
    n = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    return n, draw(st.lists(vector, max_size=5)), draw(vector)


class TestExactLattice:
    """`_ab_in_lattice` over `Presentation.lattice`, on dependent generator
    sets and zero vectors too, where rational elimination cannot decide."""

    @given(_lattice_cases())
    def test_echelon_shape(self, case):
        n, gens, _ = case
        basis = lattice_of(gens, n)
        pivots = [col for col, _ in basis]
        assert pivots == sorted(set(pivots))
        for col, row in basis:
            assert len(row) == n and not any(row[:col]) and row[col] > 0
        assert len(basis) == _minor_invariants(gens, n)[0]

    @given(_lattice_cases(), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    def test_integer_combinations_are_members(self, case, coeffs):
        n, gens, _ = case
        target = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
        assert dec._ab_in_lattice(target, lattice_of(gens, n))

    @given(_lattice_cases(), st.integers(0, 2))
    def test_odd_entry_never_in_even_lattice(self, case, i):
        n, gens, target = case
        odd = list(target)
        odd[i % n] = 2 * odd[i % n] + 1
        even = [tuple(2 * a for a in g) for g in gens]
        assert not dec._ab_in_lattice(odd, lattice_of(even, n))

    @given(_lattice_cases(), st.randoms(use_true_random=False), st.integers(-3, 3))
    def test_invariant_under_generator_moves(self, case, rnd, k):
        n, gens, target = case
        expected = dec._ab_in_lattice(target, lattice_of(gens, n))
        permuted = rnd.sample(gens, len(gens))
        assert dec._ab_in_lattice(target, lattice_of(permuted, n)) == expected
        if gens:
            duplicated = gens + [rnd.choice(gens)]
            assert dec._ab_in_lattice(target, lattice_of(duplicated, n)) == expected
        if len(gens) >= 2:
            a, b = rnd.sample(range(len(gens)), 2)
            moved = list(gens)
            moved[a] = tuple(x + k * y for x, y in zip(gens[a], gens[b]))
            assert dec._ab_in_lattice(target, lattice_of(moved, n)) == expected

    @settings(max_examples=200)
    @given(_lattice_cases())
    def test_agrees_with_minor_invariants(self, case):
        # target is a member exactly when adding it changes neither the
        # rank nor the gcd of the maximal minors
        n, gens, target = case
        expected = _minor_invariants(gens, n) == _minor_invariants(gens + [target], n)
        assert dec._ab_in_lattice(target, lattice_of(gens, n)) == expected

    @pytest.mark.parametrize(
        "gens",
        [[(2, 0, 0), (0, 0, 0)], [(2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2)]],
    )
    def test_dependent_generators_decided(self, gens):
        basis = lattice_of(gens, 3)
        assert dec._ab_in_lattice((1, 0, 0), basis) is False
        assert dec._ab_in_lattice((2, 0, 0), basis) is True


# ---------------------------------------------------------------------------
# pruned work: the filling search against its unpruned reference, and the
# calls that engine "both" and the normal-form scan no longer make


def _unpruned_fill_search(faces, contour, area_bound, budget):
    """Reference filling search without the pruning of non-live variants:
    every variant runs the whole position loop, and only an empty child
    of a non-live variant counts."""
    start = least_rotation(cyclic_reduce(contour)[0])
    if not start:
        return dec._SearchResult(dec.FillWitness(contour, (), len(contour) // 2, 0))
    if area_bound <= 0 or not faces:
        return dec._SearchResult()
    min_variant = min(len(variant) for variant, _ in faces)
    best = {start: 0}
    parent = {start: None}
    heap = [(0, start)]
    complete = True

    def trace_to(word):
        steps = []
        while parent[word] is not None:
            word, j, variant = parent[word]
            steps.append((j, variant))
        return tuple(reversed(steps))

    while heap:
        area, word = heapq.heappop(heap)
        if area > best.get(word, -1):
            continue
        for variant, face in faces:
            child_area = area + len(variant)
            if child_area > area_bound:
                continue
            live = child_area + min_variant <= area_bound
            for j in range(len(word)):
                core = cyclic_join(word, j, face)
                if not core:
                    trace = trace_to(word) + ((j, variant),)
                    edges = (child_area + len(contour)) // 2
                    return dec._SearchResult(dec.FillWitness(contour, trace, edges, child_area))
                if not live:
                    continue
                if len(core) > budget.max_word_len:
                    complete = False
                    continue
                child = least_rotation(core)
                if child_area < best.get(child, area_bound + 1):
                    if child not in best and len(best) >= budget.max_states:
                        return dec._SearchResult(complete=False)
                    best[child] = child_area
                    parent[child] = (word, j, variant)
                    heapq.heappush(heap, (child_area, child))
    return dec._SearchResult(complete=complete)


def _faces(*relators):
    return relator_variants([w(text) for text in relators])


FACE_SETS = {
    "toy": _faces("x1^5 x2^5 x3^5 x1^-1 x2^-1"),
    # not cyclically reduced, so some faces are shorter than their labels
    "hand-edited": _faces("x1 x2 x3^2 x1^-1"),
    "short": _faces("x1 x2 x1^-1 x2^-1", "x3^3"),
}


@st.composite
def _fill_cases(draw):
    faces = FACE_SETS[draw(st.sampled_from(sorted(FACE_SETS)))]
    # start words near products of inverse faces, so that fillings exist
    # often, and area bounds near the area those faces need
    pieces, used = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 2)):
            variant, face = draw(st.sampled_from(faces))
            pieces.append(invert(face))
            used += len(variant)
        else:
            letters = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
            pieces.append("".join(chr(c) for c in letters))
    start = cyclic_reduce("".join(pieces))[0]
    longest = max(len(variant) for variant, _ in faces)
    area_bound = draw(st.integers(0, 2 * longest + 4) | st.integers(used - 3, used + 6))
    budget = Budget(max_word_len=draw(st.integers(1, 30)), max_states=draw(st.integers(1, 40)))
    return faces, start, area_bound, budget


class TestFillSearchPruning:
    @settings(max_examples=300, deadline=None)
    @given(_fill_cases())
    # one face fills the word; a commutator, then x3^3 as the last face
    @example((FACE_SETS["toy"], w("x1^3 x2^5 x3^5 x1^-1 x2^-1 x1^2"), 17, Budget()))
    @example((FACE_SETS["short"], w("x3^-3 x2^-1 x1^-1 x2 x1"), 7, Budget()))
    def test_agrees_with_unpruned_search(self, case):
        faces, start, area_bound, budget = case
        pruned = dec._fill_search(faces, start, area_bound, budget)
        reference = _unpruned_fill_search(faces, start, area_bound, budget)
        assert pruned == reference

    @pytest.mark.parametrize("name", sorted(FACE_SETS))
    def test_last_face_found_by_rotation(self, name):
        # a start word that one face fills, with no room for a second face:
        # the hit is found without the position loop, at the reference's
        # position, for every face of the set
        faces = FACE_SETS[name]
        for variant, face in faces:
            start = invert(face)
            if cyclic_reduce(start)[0] != start:
                continue
            pruned = dec._fill_search(faces, start, len(variant), Budget())
            assert pruned.found
            assert pruned == _unpruned_fill_search(faces, start, len(variant), Budget())


def _unfiltered_rewrite_search(faces, u, v, budget):
    """Reference rewriting search that builds the child at every position
    and only then tests it against max_word_len."""
    start_u, start_v = u, v
    if start_u == start_v:
        return dec.Outcome(YES, witness=dec.RewriteWitness(start_u, (start_u,), (start_v,)))
    sides = [{start_u: None}, {start_v: None}]
    frontiers = [[start_u], [start_v]]
    complete = True

    def chain(side, word):
        steps = []
        while word is not None:
            steps.append(word)
            word = sides[side][word]
        return tuple(reversed(steps))

    while frontiers[0] or frontiers[1]:
        side = 0 if frontiers[0] and (not frontiers[1] or len(sides[0]) <= len(sides[1])) else 1
        frontier, frontiers[side] = frontiers[side], []
        for word in frontier:
            for _, face in faces:
                for j in range(len(word) + 1):
                    child = words.insert(word, j, face)
                    if len(child) > budget.max_word_len:
                        complete = False
                        continue
                    if child in sides[side]:
                        continue
                    if len(sides[0]) + len(sides[1]) >= budget.max_states:
                        return dec.Outcome(EXCEEDED)
                    sides[side][child] = word
                    frontiers[side].append(child)
                    if child in sides[1 - side]:
                        witness = dec.RewriteWitness(child, chain(0, child), chain(1, child))
                        return dec.Outcome(YES, witness=witness)
    return dec.Outcome(NO if complete else EXCEEDED)


@st.composite
def _rewrite_cases(draw):
    faces = FACE_SETS[draw(st.sampled_from(sorted(FACE_SETS)))]

    def short_word():
        return "".join(chr(c) for c in draw(st.lists(st.integers(0, 5), max_size=6)))

    v = words.free_reduce(short_word())
    # u is often v with one face inserted, so that the two sides can meet
    if draw(st.booleans()):
        _, face = draw(st.sampled_from(faces))
        j = draw(st.integers(0, len(v)))
        u = words.insert(v, j, face)
    else:
        u = words.free_reduce(short_word())
    # small max_word_len often closes both sides, where complete decides
    max_len = draw(st.integers(1, 6) | st.integers(1, 24))
    budget = Budget(max_word_len=max_len, max_states=draw(st.integers(1, 60)))
    return faces, u, v, budget


class TestRewriteSeams:
    @settings(max_examples=200, deadline=None)
    @given(_rewrite_cases())
    # no seam cancels and every child is too long: both sides close, and
    # only the skipped children make the search incomplete
    @example((_faces("x1^2"), w("x2"), w("x3"), Budget(max_word_len=2, max_states=60)))
    def test_agrees_with_unfiltered_search(self, case):
        faces, u, v, budget = case
        # the faces are the one part of a presentation that rewrite_search reads
        filtered = rewrite_search(SimpleNamespace(faces=faces), u, v, budget)
        assert filtered == _unfiltered_rewrite_search(faces, u, v, budget)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(dec, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dec, name, wrapper)
    return calls


class TestNoRewriteAfterObstruction:
    def test_obstructed_pair_skips_rewriting(self, toy_presentation, toy_budget, monkeypatch):
        u, v = w("x1 x2 x3^-1 x1"), w("x2^2 x3")
        expected = in_D(toy_presentation, u, v, toy_budget)
        assert expected == dec.Outcome(NO, witness=OBSTRUCTED)
        calls = _counting(monkeypatch, "rewrite_search")
        out = equals_in_G(toy_presentation, u, v, toy_budget, engine="both")
        assert out == expected
        assert calls == []

    def test_rewrite_engine_still_rewrites(self, toy_presentation, monkeypatch):
        budget = Budget(max_word_len=20, max_states=200)
        calls = _counting(monkeypatch, "rewrite_search")
        out = equals_in_G(toy_presentation, w("x1"), w("x2"), budget, engine="rewrite")
        assert out.exceeded
        assert len(calls) == 1

    def test_unobstructed_no_falls_through(self, free_presentation, toy_budget, monkeypatch):
        # an exhausted-search no still runs the rewriting engine
        calls = _counting(monkeypatch, "rewrite_search")
        out = equals_in_G(free_presentation, w("x1 x2"), w("x2 x1"), toy_budget, engine="both")
        assert out == dec.Outcome(NO)
        assert len(calls) == 1


def separated(presentation, u, g):
    """Whether some quotient of the presentation moves points differently
    under u and under g."""
    return any(moved_by(u, images) != moved_by(g, images) for images in presentation.quotients)


class TestNormalFormCosetScan:
    G = "x2 x1"
    TOY_NF = Budget(max_word_len=40, max_states=1500)

    def coset_candidates(self, presentation, g, budget):
        scanned = []
        for runs in iter_regular_words(presentation.params.n, budget.max_word_len):
            if len(scanned) == budget.max_states:
                break
            scanned.append(encode(runs))
        coset = [u for u in scanned if not ab_obstructed(u + invert(g), presentation)]
        return scanned, coset

    def test_diagram_engine_tests_coset_only(self, toy_presentation, monkeypatch):
        g = w(self.G)
        scanned, coset = self.coset_candidates(toy_presentation, g, self.TOY_NF)
        assert len(scanned) == 1500 and coset == [w("x1 x2")]
        # max_word_len 40 is below the completeness length, so the scan
        # cannot answer no, and it skips a coset candidate that a quotient
        # separates from g: x1 x2 is not searched
        unseparated = [u for u in coset if not separated(toy_presentation, u, g)]
        assert unseparated == []
        calls = _counting(monkeypatch, "equals_in_G")
        out = regular_normal_form(toy_presentation, g, self.TOY_NF, engine="diagram")
        assert out == dec.Outcome(EXCEEDED)
        assert [u for _, u, *_ in calls] == unseparated

    def test_rewrite_engine_tests_every_candidate(self, toy_presentation, monkeypatch):
        g = w(self.G)
        budget = Budget(max_word_len=40, max_states=60)
        scanned, _ = self.coset_candidates(toy_presentation, g, budget)
        calls = _counting(monkeypatch, "equals_in_G")
        out = regular_normal_form(toy_presentation, g, budget, engine="rewrite")
        assert out == dec.Outcome(EXCEEDED)
        assert [u for _, u, *_ in calls] == scanned


# max_word_len at the completeness length (n+1)|g| + n^4 L of every g of at
# most 4 letters on the toy presentation: 4*4 + 81*17
COMPLETE_NF = Budget(max_word_len=1393, max_states=8000)


class TestNormalFormQuotientSkip:
    """A candidate that a quotient separates from g is skipped only once
    the scan cannot answer no."""

    def searches(self, presentation, g, budget, monkeypatch):
        made = {}
        equals = dec.equals_in_G

        def recording(presentation, u, v, budget, engine="diagram"):
            made[u] = equals(presentation, u, v, budget, engine=engine)
            return made[u]

        monkeypatch.setattr(dec, "equals_in_G", recording)
        out = regular_normal_form(presentation, g, budget)
        return out, made

    def test_scan_that_can_answer_no_skips_nothing(self, toy_presentation, monkeypatch):
        assert toy_presentation.quotients
        g = w("x2 x1")
        assert separated(toy_presentation, w("x1 x2"), g)
        out, made = self.searches(toy_presentation, g, COMPLETE_NF, monkeypatch)
        assert out == dec.Outcome(YES, witness=w("x1^5 x2^5 x3^5"))
        assert list(made) == [w("x1 x2"), w("x1^5 x2^5 x3^5")]

    @pytest.mark.parametrize("g", ["x2 x1^2", "x1 x2 x1^-1 x2^-1"])
    def test_skips_start_after_a_capped_search(self, toy_presentation, monkeypatch, g):
        # the first coset candidate is searched, and capped; the scan then
        # skips the candidates that a quotient separates from g
        g, budget = w(g), COMPLETE_NF
        n = toy_presentation.params.n
        assert (n + 1) * len(g) + n**4 * toy_presentation.max_relator_len <= budget.max_word_len
        _, made = self.searches(toy_presentation, g, budget, monkeypatch)
        can_answer_no, expected, skipped = True, [], []
        for runs in islice(iter_regular_words(n, budget.max_word_len), budget.max_states):
            u = encode(runs)
            if ab_obstructed(u + invert(g), toy_presentation):
                continue
            if not can_answer_no and separated(toy_presentation, u, g):
                skipped.append(u)
                continue
            expected.append(u)
            if u not in made or made[u].is_yes:
                break
            can_answer_no = can_answer_no and not made[u].exceeded
        assert list(made) == expected
        assert made[expected[0]].exceeded and skipped


# ---------------------------------------------------------------------------
# the reduction contract: public procedures answer on the free reduction of
# their word arguments, so an unreduced code string gets the answer of its
# reduction


UNREDUCED = [
    (encode([(1, 1), (1, -1), (2, 1)]), "x2"),
    (encode([(1, 1), (1, -1)]), ""),
    (encode([(2, 1), (3, -1), (3, 1), (1, 1)]), "x2 x1"),
    (encode([(1, 5), (2, 5), (3, 6), (3, -1), (1, -1), (2, -1)]), "x1^5 x2^5 x3^5 x1^-1 x2^-1"),
]
PARTNERS = ["", "x2", "x2 x1", "x1^5 x2^5 x3^5"]
SMALL = Budget(max_word_len=30, max_states=300)


@pytest.fixture(params=["free", "toy"])
def presentation(request, free_presentation, toy_presentation):
    return free_presentation if request.param == "free" else toy_presentation


class TestReductionContract:
    def test_unreduced_codes_are_unreduced(self):
        for code, text in UNREDUCED:
            assert code != w(text) == free_reduce(code)

    @pytest.mark.parametrize("engine", dec.ENGINES)
    def test_cancelling_pair_equals_empty_word(self, free_presentation, engine):
        # a search from the unreduced code itself never meets the empty word
        # in the free group, and would answer no
        x = encode([(1, 1), (1, -1)])
        assert equals_in_G(free_presentation, x, "", Budget(), engine=engine).is_yes
        assert equals_in_G(free_presentation, "", x, Budget(), engine=engine).is_yes

    @pytest.mark.parametrize("engine", dec.ENGINES)
    def test_equals_in_G(self, presentation, engine):
        for code, text in UNREDUCED:
            for other in map(w, PARTNERS):
                expected = equals_in_G(presentation, w(text), other, SMALL, engine=engine)
                assert equals_in_G(presentation, code, other, SMALL, engine=engine) == expected
                expected = equals_in_G(presentation, other, w(text), SMALL, engine=engine)
                assert equals_in_G(presentation, other, code, SMALL, engine=engine) == expected

    def test_rewrite_search_and_replay(self, presentation):
        for code, text in UNREDUCED:
            out = rewrite_search(presentation, code, w(text), SMALL)
            assert out.is_yes
            assert replay_rewrite(out.witness, presentation, code, w(text))
            assert replay_rewrite(out.witness, presentation, w(text), w(text))

    @pytest.mark.parametrize("engine", dec.ENGINES)
    def test_regular_normal_form(self, presentation, engine):
        budget = Budget(max_word_len=40, max_states=200)
        for code, text in UNREDUCED:
            expected = regular_normal_form(presentation, w(text), budget, engine=engine)
            assert regular_normal_form(presentation, code, budget, engine=engine) == expected

    def test_are_conjugate(self, presentation):
        budget = Budget(max_word_len=30, max_states=100)
        for code, text in UNREDUCED:
            for other in map(w, PARTNERS):
                expected = are_conjugate(presentation, w(text), other, budget)
                assert are_conjugate(presentation, code, other, budget) == expected
                expected = are_conjugate(presentation, other, w(text), budget)
                assert are_conjugate(presentation, other, code, budget) == expected

    def test_scan_lengths_count_reduced_letters(self):
        # each scan below completes at exactly this max_states (see
        # TestScanBoundaries), so a length bound from the unreduced letters
        # would cut it short
        free2 = TestScanBoundaries.FREE2
        pad = encode([(1, 1), (1, -1)])
        g = w("x2 x1", 2)
        assert regular_normal_form(free2, pad + g, Budget(max_states=85)) == dec.Outcome(NO)
        u, v = w("x1 x2 x1^-1 x2^-1", 2), w("x1 x2^-1 x1^-1 x2", 2)
        assert are_conjugate(free2, pad + u, v, Budget(max_states=13121)) == dec.Outcome(NO)
        assert are_conjugate(free2, u, v + pad, Budget(max_states=13121)) == dec.Outcome(NO)

    def test_build_relator(self, toy_params):
        for code, text in UNREDUCED[2:]:
            assert build_relator(toy_params, 1, code) == build_relator(toy_params, 1, w(text))
