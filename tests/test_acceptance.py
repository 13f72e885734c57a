"""End-to-end acceptance suite.  One test per criterion; the conftest hook
prints one pass/fail line for each."""

import copy
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from filebasis import decision as dec
from filebasis import diagram as dg
from filebasis.cli import main as cli_main
from filebasis.construction import (
    ConstructionParams,
    build_relator,
    generate,
    validate_params,
)
from filebasis.decision import Budget, EXCEEDED, NO, YES
from filebasis.words import (
    cyclic_reduce,
    encode,
    free_reduce,
    invert,
    is_regular,
    iter_reduced_words,
    iter_regular_words,
    parse_word,
    word_runs,
    word_text,
)
from conftest import conjugate_by
from test_decision import random_word
from test_diagram import scan_special_subpaths


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_criterion_1_deglex_conformance(capsys):
    # the enumeration must start with all single letters in order, then
    # x1^2, x1x2, x1x2^-1, for both alphabet sizes
    for n in (3, 5):
        expected = [""]
        for i in range(1, n + 1):
            expected += [f"x{i}", f"x{i}^-1"]
        expected += ["x1^2", "x1 x2", "x1 x2^-1"]
        code, out = run_cli(capsys, "enum-words", "--n", str(n), "--count", str(len(expected)))
        assert code == 0
        assert out["words"] == expected
    # the 911 words of length <= 3: length dominates, then letter order
    position = {w: k for k, w in zip(range(911), iter_reduced_words(5))}
    assert position[parse_word("x5 x5", 5)] < position[parse_word("x1 x1 x1", 5)]
    assert position[parse_word("x1 x2 x3", 5)] < position[parse_word("x1 x3 x2", 5)]


def test_criterion_2_parameter_suite():
    report = validate_params(ConstructionParams(63, Fraction(1, 315), 315))
    assert report.all_passed
    assert report.theorem_scale

    # just above the 1/(5n) guideline: the validator's verdict must match
    # a from-scratch exact evaluation of the same expression
    l1 = Fraction(1, 4 * 63)
    report2 = validate_params(ConstructionParams(63, l1, 315))
    independent = (4 + 2 * 63 * l1 / (1 - l1)) * l1 <= Fraction(1, 63)
    verdict = {c.name: c.passed for c in report2.checks}["small-cancellation bound"]
    assert verdict == independent
    assert independent is False  # this point lies outside the valid region


def test_criterion_3_first_relator_theorem_scale():
    params = ConstructionParams(63, Fraction(1, 315), 315)
    budget = Budget(max_edges=10**6, max_word_len=200, max_states=20000)
    pres = generate(params, 1, budget)
    rel = pres.relators[0]

    # brute-force deg-lex oracle using free reduction only: the first word
    # that avoids x1 at the start, x63 at the end, and regularity
    expected = None
    for word in iter_reduced_words(63):
        if not word:
            continue
        runs = word_runs(word)
        if runs[0][0] == 1 or runs[-1][0] == 63 or is_regular(word):
            continue
        expected = word
        break
    assert rel.w == expected == parse_word("x2 x1", 63)
    assert rel.m == 631
    assert len(rel.r) == 63 * 631 + 2 == 39755
    assert len(rel.r) == params.n * rel.m + len(rel.w)


def test_criterion_4_toy_construction_determinism(capsys):
    code1, out1 = run_cli(capsys, "gen", "--n", "3", "--lambda1", "1/15", "--N", "2", "--count", "1")
    code2, out2 = run_cli(capsys, "gen", "--n", "3", "--lambda1", "1/15", "--N", "2", "--count", "1")
    assert code1 == code2 == 0
    assert json.dumps(out1) == json.dumps(out2)
    rel = out1["presentation"]["relators"][0]
    assert rel["r"] == "x1^5 x2^5 x3^5 x1^-1 x2^-1"

    r = parse_word(rel["r"], 3)
    core, _ = cyclic_reduce(r)
    assert core == r

    # growth inequality l1*(n*m + |w|) >= |w| at these exact parameters:
    # 1/15 * 17 = 17/15 < 2, so it cannot hold; asserted anyway because the
    # stated expectation includes it
    l1 = Fraction(1, 15)
    assert l1 * (3 * rel["m"] + 2) >= 2


def test_criterion_5_diagram_invariant_fuzzing(toy_presentation):
    rels = toy_presentation.relator_words()
    rng = random.Random(5)
    for trial in range(1000):
        d = dg.random_diagram(rels, rng.randrange(1, 7), rng)
        assert dg.validate_diagram(d, rels).ok

        # the mutations edit the diagram's JSON dict, which lists the darts
        # sorted by id and the faces in order of creation
        data = dg.diagram_to_dict(d)
        dart = {item["id"]: item for item in data["darts"]}
        darts = list(dart)

        # mutation 1: break the involution on a random dart ("to" follows,
        # so the map is read and the break is left to validation)
        victim = rng.choice(darts)
        other = rng.choice([x for x in darts if x not in (victim, dart[victim]["inv"])])
        broken = copy.deepcopy(data)
        broken["darts"][darts.index(victim)].update(inv=other, to=dart[other]["from"])
        rep = dg.validate_diagram(dg.diagram_from_dict(broken, 3), rels)
        assert not rep.ok
        assert all(i.location for i in rep.issues)

        # mutation 2: duplicate a face dart into the contour
        face_dart = rng.choice([x for face in data["faces"] for x in face["cycle"]])
        dup = copy.deepcopy(data)
        dup["contours"][0].append(face_dart)
        rep = dg.validate_diagram(dg.diagram_from_dict(dup, 3), rels)
        assert not rep.ok
        assert any(str(face_dart) in i.location for i in rep.issues)


def test_criterion_6_special_selection(toy_presentation, toy_params):
    r1 = toy_presentation.relators[0].r

    # every one- and two-face diagram buildable from the toy relator set:
    # one-face versions are the polygon and its mirror; two-face versions
    # glue a second copy at each feasible single-edge position
    diagrams = [dg.polygon_diagram(r1), dg.mirror_copy(dg.polygon_diagram(r1))]
    base = dg.polygon_diagram(r1)
    for k in range(len(base.contours[0])):
        rotated = dg.rotate_contour(base, k)
        shared = rotated.labels[rotated.contours[0][0]]
        for source in (r1, invert(r1)):
            for rot in range(len(source)):
                v = source[rot:] + source[:rot]
                if v[0] == shared:
                    diagrams.append(dg.glue_boundary(rotated, v, "f1", 1))
    assert len(diagrams) > 30

    for d in diagrams:
        sel = dg.special_selection(d, 3)
        for fid, fs in sel.per_face.items():
            hits = scan_special_subpaths(d.face_code(fid), 3)
            assert hits == [(fs.start, fs.length)]  # existence and uniqueness

    # the strengthened per-face length bound needs full-scale parameters
    theorem = ConstructionParams(63, Fraction(1, 315), 315)
    rel = build_relator(theorem, 1, parse_word("x2 x1", 63))
    face = dg.polygon_diagram(rel.r)
    fs = dg.special_selection(face, 63).per_face["f0"]
    assert Fraction(fs.length) >= (1 - theorem.lambda1) * len(rel.r)


@pytest.fixture(scope="module")
def corpus(toy_presentation):
    rels = toy_presentation.relator_words()
    rng = random.Random(7)
    out = []
    while len(out) < 60:
        d = dg.random_diagram(rels, rng.randrange(1, 7), rng)
        if not dg.find_immediately_cancellable(d):
            out.append(d)
    return out


def test_criterion_7_main_inequality_and_composition(corpus, toy_params):
    for d in corpus:
        # the main lemma's inequality, read off the counts: its per-face
        # precondition (condition B) cannot hold at this small alphabet
        # size, but any violation would contradict the theory
        assert len(d.contours) <= 3
        sel = dg.special_selection(d, 3)
        met = dg.metrics(d, sel)
        assert Fraction(met.S) >= (1 - 2 * toy_params.mu) * met.Sigma

        # composition: if every maximal semisimple submap satisfies the
        # per-submap inequality, the whole map satisfies the global one
        subs = dg.maximal_semisimple_submaps(d)
        sub_results = [
            dg.submap_condition_X(d, s, sel, toy_params.mu) for s in subs
        ]
        if all(ok_sub for ok_sub, _ in sub_results):
            total_sigma = sum(m.Sigma for _, m in sub_results)
            assert total_sigma == met.Sigma
            assert Fraction(met.S) >= (1 - 2 * toy_params.mu) * met.Sigma


def test_criterion_8_letter_subset_bound(corpus):
    n = 3
    for d in corpus:
        sel = dg.special_selection(d, n)
        for k in range(1, n + 1):
            for letters in combinations(range(1, n + 1), k):
                ok, counts = dg.check_letter_budget(d, sel, set(letters), n)
                assert ok, (letters, counts)


def test_criterion_9_engine_agreement(toy_presentation, toy_budget, ball_oracle):
    rng = random.Random(9)
    r1 = toy_presentation.relators[0].r
    oracle = ball_oracle
    budget = Budget(max_edges=10**6, max_word_len=40, max_states=3000)

    words = [random_word(rng, max_len=8) for _ in range(200)]
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(60)]
    # seed some pairs that are genuinely equal modulo the relator
    for _ in range(15):
        u = random_word(rng, max_len=4)
        a = random_word(rng, max_len=2)
        v = free_reduce(u + conjugate_by(r1, a))
        pairs.append((u, v))

    for u, v in pairs:
        d = dec.equals_in_G(toy_presentation, u, v, budget, engine="diagram")
        r = dec.equals_in_G(toy_presentation, u, v, budget, engine="rewrite")
        o = oracle.equal(u, v)

        if d.is_yes and isinstance(d.witness, dec.FillWitness):
            assert dec.replay_fill(d.witness, toy_presentation)
        if r.is_yes and isinstance(r.witness, dec.RewriteWitness):
            assert dec.replay_rewrite(r.witness, toy_presentation, u, v)

        decided = [x.value for x in (d, r) if x.value != EXCEEDED]
        if len(decided) == 2:
            assert decided[0] == decided[1]
        if o is not None:
            for val in decided:
                assert val == (YES if o else NO)


def test_criterion_10_conjugacy(toy_presentation):
    rng = random.Random(10)
    budget = Budget(max_edges=10**6, max_word_len=30, max_states=2000)
    q = toy_presentation.params.q

    # cyclic shifts are conjugate with replay-verified conjugators
    checked = 0
    while checked < 100:
        u = random_word(rng, max_len=6)
        if not u:
            continue
        k = rng.randrange(len(u))
        v = free_reduce(u[k:] + u[:k])
        out = dec.are_conjugate(toy_presentation, u, v, budget)
        assert out.is_yes
        assert dec.replay_conjugacy(out.witness, toy_presentation, u, v)
        checked += 1

    # agreement with a brute-force conjugator scan bounded by q(|u|+|v|)
    def brute_force(u, v):
        bound = int(q * (len(u) + len(v)))
        for s in iter_reduced_words(3):
            if len(s) > bound:
                return None
            if conjugate_by(u, s) == v:
                return s
        return None

    for _ in range(50):
        u, v = random_word(rng, max_len=3), random_word(rng, max_len=3)
        out = dec.are_conjugate(toy_presentation, u, v, budget)
        witness = brute_force(u, v)
        if witness is not None:
            assert out.is_yes
        if out.is_no:
            assert witness is None


def test_criterion_11_normal_form_idempotence_and_uniqueness(toy_presentation):
    rng = random.Random(11)
    budget = Budget(max_edges=10**6, max_word_len=40, max_states=1500)

    yes_count = 0
    for _ in range(200):
        g = random_word(rng, max_len=4)
        first = dec.regular_normal_form(toy_presentation, g, budget)
        if not first.is_yes:
            continue
        yes_count += 1
        second = dec.regular_normal_form(toy_presentation, first.witness, budget)
        assert second.is_yes
        assert second.witness == first.witness
    assert yes_count > 0

    # uniqueness within budget: no input admits two distinct certified
    # regular equivalents inside the bounded scan
    for g in [parse_word(t, 3) for t in ["x2 x1", "x1^2", "x1 x2", ""]]:
        accepted = []
        for u in map(encode, iter_regular_words(3, 16)):
            out = dec.equals_in_G(toy_presentation, u, g, budget)
            if out.is_yes:
                accepted.append(u)
        assert len(accepted) <= 1, [word_text(a) for a in accepted]
