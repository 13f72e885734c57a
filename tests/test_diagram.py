import hashlib
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import groupby

import pytest
from conftest import degenerate_path_diagram

from filebasis import diagram as dg
from filebasis.construction import ConstructionError, build_relator
from filebasis.words import encode, invert, parse_word, relator_variants


@pytest.fixture(scope="module")
def toy_relator(toy_presentation):
    return toy_presentation.relators[0].r


@pytest.fixture(scope="module")
def toy_face(toy_relator):
    return dg.polygon_diagram(toy_relator)


def glue_second_face(d, relator, inverted=False):
    """Attach a second face along the first contour dart, reading the
    relator (or its inverse) from a rotation that fits."""
    contour = d.contours[0]
    shared = d.labels[contour[0]]
    base = invert(relator) if inverted else relator
    for k in range(len(base)):
        rot = base[k:] + base[:k]
        if rot[0] == shared:
            return dg.glue_boundary(d, rot, "f1", 1)
    raise AssertionError("no fitting rotation")


# ---------------------------------------------------------------------------
# an exhaustive oracle for the special selection, with its own run grouping


def _is_special_word(seg, n):
    runs = [(letter, len(list(group))) for letter, group in groupby(seg)]
    if len(runs) != n:
        return False
    ups = list(encode((j, 1) for j in range(1, n + 1)))
    downs = list(encode((j, -1) for j in range(n, 0, -1)))
    shape = [letter for letter, _ in runs]
    if shape not in (ups, downs):
        return False
    counts = [c for _, c in runs]
    return all(c == counts[0] for c in counts)


def scan_special_subpaths(label, n):
    """Exhaustive quadratic scan for qualifying subpaths of a code string;
    a test oracle for uniqueness on small faces."""
    k = len(label)
    doubled = label + label
    bound = Fraction(n, 2 * n - 2) if n > 1 else Fraction(1, 2)
    found = []
    for start in range(k):
        for length in range(1, k + 1):
            seg = doubled[start : start + length]
            if Fraction(length) <= bound * k:
                continue
            if _is_special_word(seg, n):
                found.append((start, length))
    return found


@pytest.fixture(scope="module")
def theorem_relator(theorem_params):
    return build_relator(theorem_params, 1, parse_word("x2 x1", 63)).r


class TestValidate:
    def test_polygon_valid(self, toy_face, toy_relator):
        report = dg.validate_diagram(toy_face, [toy_relator])
        assert report.ok
        assert report.face_matches["f0"] == (0, 1, 0)

    @pytest.mark.parametrize("offset", range(17))
    def test_match_every_toy_rotation(self, toy_relator, offset):
        # the face reads the relator from its letter `offset` on, so the
        # relator starts at rotation 17 - offset of the face label
        face = dg.polygon_diagram(toy_relator[offset:] + toy_relator[:offset])
        report = dg.validate_diagram(face, [toy_relator])
        assert report.ok
        assert report.face_matches["f0"] == (0, 1, (17 - offset) % 17)

    @pytest.mark.parametrize(
        "reading, expected",
        [("offset", (0, 1, 37755)), ("inverse", (0, -1, 0))],
        ids=["offset-2000", "inverse"],
    )
    def test_match_theorem_scale_face(self, theorem_relator, reading, expected):
        assert len(theorem_relator) == 39755
        if reading == "offset":
            label = theorem_relator[2000:] + theorem_relator[:2000]
        else:
            label = invert(theorem_relator)
        face = dg.polygon_diagram(label)
        report = dg.validate_diagram(face, [theorem_relator])
        assert report.ok
        assert report.face_matches["f0"] == expected

    def test_non_relator_face_rejected(self, toy_relator):
        d = dg.polygon_diagram(parse_word("x1 x2 x3", 3))
        report = dg.validate_diagram(d, [toy_relator])
        assert not report.ok
        assert any("face" in i.location for i in report.issues)

    def test_degenerate_contour(self, toy_relator):
        d = degenerate_path_diagram(parse_word("x1", 3))
        report = dg.validate_diagram(d, [toy_relator])
        assert report.ok
        assert not d.faces

    def test_broken_involution_located(self, toy_face, toy_relator):
        data = dg.diagram_to_dict(toy_face)
        _repoint(data, "d0+", "d1-")  # no longer involutive
        report = dg.validate_diagram(dg.diagram_from_dict(data, 3), [toy_relator])
        assert not report.ok
        assert any("d0+" in i.location or "d1-" in i.location for i in report.issues)

    def test_duplicated_dart_located(self, toy_face, toy_relator):
        contour = toy_face.contours[0] + (toy_face.faces["f0"][0],)
        bad = replace(toy_face, contours=(contour,))
        report = dg.validate_diagram(bad, [toy_relator])
        assert not report.ok
        assert any("appears 2 times" in i.message for i in report.issues)

    def test_bad_label_involution(self, toy_face, toy_relator):
        data = dg.diagram_to_dict(toy_face)
        _dart(data, "d0-")["label"] = _dart(data, "d0+")["label"]
        report = dg.validate_diagram(dg.diagram_from_dict(data, 3), [toy_relator])
        assert not report.ok

    def test_json_roundtrip(self, toy_face, toy_relator):
        data = dg.diagram_to_dict(toy_face)
        back = dg.diagram_from_dict(json.loads(json.dumps(data)), 3)
        assert dg.validate_diagram(back, [toy_relator]).ok
        assert dg.diagram_to_dict(back) == data

    def test_malformed_json(self):
        with pytest.raises(dg.DiagramError):
            dg.diagram_from_dict({"vertices": []}, 3)


class TestSpecialSelection:
    def test_toy_face(self, toy_face, toy_relator):
        sel = dg.special_selection(toy_face, 3)
        fs = sel.per_face["f0"]
        assert fs.length == 15
        assert Fraction(fs.length) > Fraction(3, 4) * len(toy_relator)
        label = "".join(toy_face.labels[d] for d in fs.darts(toy_face))
        assert label == encode([(1, 5), (2, 5), (3, 5)])

    def test_uniqueness_scan(self, toy_relator):
        hits = scan_special_subpaths(toy_relator, 3)
        assert len(hits) == 1
        assert hits[0] == (0, 15)

    def test_uniqueness_all_rotations(self, toy_relator):
        for k in range(len(toy_relator)):
            rot = toy_relator[k:] + toy_relator[:k]
            assert len(scan_special_subpaths(rot, 3)) == 1

    def test_mirror_direction(self, toy_face):
        m = dg.mirror_copy(toy_face)
        sel = dg.special_selection(m, 3)
        fs = sel.per_face["f0"]
        label = "".join(m.labels[d] for d in fs.darts(m))
        assert label == encode([(3, -5), (2, -5), (1, -5)])

    def test_no_selection_on_foreign_face(self):
        d = dg.polygon_diagram(parse_word("x1 x3 x2", 3))
        with pytest.raises(dg.PreconditionError, match="no special subpath"):
            dg.special_selection(d, 3)

    def test_empty_boundary_cycle(self, toy_face):
        # an empty face label has no special subpath (validation rejects it too)
        d = replace(toy_face, faces={**toy_face.faces, "e": ()})
        with pytest.raises(dg.PreconditionError, match="face 'e': no special subpath"):
            dg.special_selection(d, 3)

    def test_scan_agrees_on_two_face(self, toy_face, toy_relator):
        d2 = glue_second_face(toy_face, toy_relator)
        sel = dg.special_selection(d2, 3)
        for fid, fs in sel.per_face.items():
            label = d2.face_code(fid)
            assert scan_special_subpaths(label, 3) == [(fs.start, fs.length)]


class TestFaceRank:
    def test_monotone_with_length(self, toy_params, toy_presentation):
        from filebasis.construction import build_relator

        rel2 = build_relator(toy_params, 2, parse_word("x2 x1^2", 3))
        assert rel2.i > toy_presentation.relators[0].i
        assert len(rel2.r) >= len(toy_presentation.relators[0].r)


class TestCancellable:
    def test_one_face_none(self, toy_face):
        assert dg.find_immediately_cancellable(toy_face) == []
        assert not dg.find_immediately_cancellable(toy_face)

    def test_sphere_double(self, toy_relator, theorem_relator):
        for relator in (toy_relator, theorem_relator):
            s = dg.sphere_double(relator)
            assert dg.validate_diagram(s, [relator]).ok
            assert not s.contours and s.faces
            pairs = dg.find_immediately_cancellable(s)
            assert pairs == [frozenset({"back", "front"})], len(relator)

    def test_glued_same_orientation_not_cancellable(self, toy_face, toy_relator):
        d2 = glue_second_face(toy_face, toy_relator, inverted=False)
        assert dg.validate_diagram(d2, [toy_relator]).ok
        assert dg.find_immediately_cancellable(d2) == []

    def test_glued_inverse_is_cancellable(self, toy_face, toy_relator):
        d2 = glue_second_face(toy_face, toy_relator, inverted=True)
        assert dg.validate_diagram(d2, [toy_relator]).ok
        assert dg.find_immediately_cancellable(d2) == [frozenset({"f0", "f1"})]

    def test_faces_of_different_lengths_not_cancellable(self):
        # faces x1 x2 x3 and x3^-1 x1 share the edge x3; their labels cannot
        # be mutually inverse
        relators = [parse_word("x1 x2 x3", 3), parse_word("x3^-1 x1", 3)]
        d = dg.glue_boundary(dg.polygon_diagram(relators[0]), relators[1], "f1", 1)
        assert dg.validate_diagram(d, relators).ok
        assert dg.find_immediately_cancellable(d) == []


class TestRandomDiagram:
    def test_one_letter_relator_stops_after_one_face(self):
        # a one-letter contour has no proper segment to glue a face along
        relators = [parse_word("x1", 1)]
        d = dg.random_diagram(relators, 3, random.Random(0))
        assert list(d.faces) == ["f0"]
        assert dg.validate_diagram(d, relators).ok


class TestArcs:
    def test_partition(self, toy_face, toy_relator):
        d2 = glue_second_face(toy_face, toy_relator)
        arcs = dg.maximal_arcs(d2)
        covered = [dart for arc in arcs for dart in arc]
        assert len(covered) == len(set(covered))
        # one dart per edge
        assert len(covered) == d2.edge_count()

    def test_intermediate_degrees(self, toy_face, toy_relator):
        d2 = glue_second_face(toy_face, toy_relator)
        for arc in dg.maximal_arcs(d2):
            for dart in arc[1:]:
                assert len(d2.out_darts[d2.origin[dart]]) == 2

    def test_closed_cycle_arc(self, toy_face):
        # a lone polygon is a closed degree-2 cycle: one closed arc
        arcs = dg.maximal_arcs(toy_face)
        assert len(arcs) == 1
        assert len(arcs[0]) == toy_face.edge_count()


class TestConditions:
    def test_condition_B_toy_report(self, toy_face, toy_params):
        sel = dg.special_selection(toy_face, 3)
        reports = dg.check_condition_B(toy_face, sel, toy_params.lambda1, toy_params.lambda2)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.b0
        # 15 < (1 - 1/15) * 17: the small-alphabet face fails the length bound
        assert not rep.b1
        assert rep.b2

    def test_condition_B_degenerate(self, toy_params):
        d = degenerate_path_diagram(parse_word("x1", 3))
        sel = dg.Selection({})
        assert dg.check_condition_B(d, sel, toy_params.lambda1, toy_params.lambda2) == []

    def test_condition_X_one_face(self, toy_face, toy_params):
        sel = dg.special_selection(toy_face, 3)
        ok, met = dg.check_condition_X(toy_face, sel, toy_params.mu)
        assert ok
        assert met == dg.DiagramMetrics(S=15, Sigma=17, E=17, F=1)

    def test_condition_X_rejects_non_semisimple(self, toy_relator):
        d = degenerate_path_diagram(parse_word("x1", 3))
        with pytest.raises(dg.PreconditionError, match="not semisimple"):
            dg.check_condition_X(d, dg.Selection({}), Fraction(1, 2))

    def test_main_lemma_theorem_scale_face(self, theorem_params):
        from filebasis.construction import build_relator

        rel = build_relator(theorem_params, 1, parse_word("x2 x1", 63))
        d = dg.polygon_diagram(rel.r)
        sel = dg.special_selection(d, 63)
        fs = sel.per_face["f0"]
        assert fs.length == 63 * 631
        # strengthened per-face bound holds at full parameter scale
        assert Fraction(fs.length) >= (1 - theorem_params.lambda1) * len(rel.r)
        ok, met = dg.check_main_lemma(d, sel, theorem_params)
        assert ok
        assert met.S == 63 * 631
        assert Fraction(met.S) >= (1 - 2 * theorem_params.mu) * met.Sigma

    def test_main_lemma_too_many_contours(self, toy_face, toy_params):
        quad = replace(toy_face, contours=toy_face.contours * 4)
        with pytest.raises(dg.PreconditionError, match="more than 3 contours") as info:
            dg.check_main_lemma(quad, dg.Selection({}), toy_params)
        assert [rep.face for rep in info.value.reports] == ["f0"]

    def test_letter_budget_single_letter(self, toy_face):
        sel = dg.special_selection(toy_face, 3)
        ok, counts = dg.check_letter_budget(toy_face, sel, {1}, 3)
        assert ok
        assert counts["count"] == 5
        assert Fraction(5) < Fraction(1, 3) * 17

    def test_letter_budget_all_letters(self, toy_face):
        sel = dg.special_selection(toy_face, 3)
        ok, counts = dg.check_letter_budget(toy_face, sel, {1, 2, 3}, 3)
        assert ok
        assert counts["count"] == 15 < 17

    def test_letter_budget_empty_set(self, toy_face):
        sel = dg.special_selection(toy_face, 3)
        with pytest.raises(dg.DiagramError):
            dg.check_letter_budget(toy_face, sel, set(), 3)


class TestSubmaps:
    def test_semisimple_map_single_component(self, toy_face):
        subs = dg.maximal_semisimple_submaps(toy_face)
        with_faces = [s for s in subs if s.faces]
        assert len(with_faces) == 1
        assert with_faces[0].faces == frozenset({"f0"})

    def test_degenerate_components_are_vertices(self):
        d = degenerate_path_diagram(parse_word("x1 x2", 3))
        subs = dg.maximal_semisimple_submaps(d)
        assert all(not s.faces and not s.darts for s in subs)
        assert sum(len(s.vertices) for s in subs) == len(d.vertices)

    def test_every_face_in_exactly_one(self, toy_face, toy_relator):
        d2 = glue_second_face(toy_face, toy_relator)
        subs = dg.maximal_semisimple_submaps(d2)
        counts = {}
        for s in subs:
            for f in s.faces:
                counts[f] = counts.get(f, 0) + 1
        assert counts == {"f0": 1, "f1": 1}

    def test_composition_identity(self, toy_presentation, toy_params, rng):
        # the whole-map count S decomposes over maximal semisimple submaps
        rels = toy_presentation.relator_words()
        for _ in range(25):
            d = dg.random_diagram(rels, rng.randrange(1, 5), rng)
            sel = dg.special_selection(d, 3)
            met = dg.metrics(d, sel)
            subs = dg.maximal_semisimple_submaps(d)
            total_sigma = sum(
                dg.submap_condition_X(d, s, sel, toy_params.mu)[1].Sigma
                for s in subs
            )
            assert total_sigma == met.Sigma

    def test_whole_map_X_is_the_one_submap_X(self, toy_presentation, toy_params, rng):
        # on a semisimple one-component map, condition X over the whole map
        # and over its single submap are the same count
        rels = toy_presentation.relator_words()
        compared = 0
        for _ in range(50):
            d = dg.random_diagram(rels, rng.randrange(1, 7), rng)
            subs = dg.maximal_semisimple_submaps(d)
            if not dg.is_semisimple(d) or len(subs) != 1:
                continue
            for sel in (dg.special_selection(d, 3), dg.Selection({})):
                whole = dg.check_condition_X(d, sel, toy_params.mu)
                assert whole == dg.submap_condition_X(d, subs[0], sel, toy_params.mu)
            compared += 1
        assert compared == 50


class TestMirror:
    def test_involution(self, toy_face):
        assert dg.mirror_copy(dg.mirror_copy(toy_face)) == toy_face

    def test_reads_inverse(self, toy_face, toy_relator):
        m = dg.mirror_copy(toy_face)
        report = dg.validate_diagram(m, [toy_relator])
        assert report.ok
        assert report.face_matches["f0"][1] == -1

    def test_mirror_of_glued(self, toy_face, toy_relator):
        d2 = glue_second_face(toy_face, toy_relator)
        m = dg.mirror_copy(d2)
        assert dg.validate_diagram(m, [toy_relator]).ok


class TestRandomCorpus:
    def test_corpus_valid(self, toy_presentation, rng):
        rels = toy_presentation.relator_words()
        for _ in range(50):
            d = dg.random_diagram(rels, rng.randrange(1, 7), rng)
            assert dg.validate_diagram(d, rels).ok

    def test_corpus_euler(self, toy_presentation, rng):
        rels = toy_presentation.relator_words()
        for _ in range(20):
            d = dg.random_diagram(rels, rng.randrange(1, 7), rng)
            chi = len(d.vertices) - d.edge_count() + len(d.faces) + len(d.contours)
            assert chi == 2

    @pytest.mark.parametrize(
        "relator",
        ["x1 x2 x3^2 x1^-1", "x1^5 x2^5 x3^5 x1^-1 x2^-1", "x2^-1 x1^3 x3 x2"],
        ids=["conjugate", "toy", "other"],
    )
    def test_faces_read_variants(self, relator):
        # a relator that is not cyclically reduced has rotations that are not
        # freely reduced; every face reads one of them unchanged, which is
        # what the face check accepts
        relators = [parse_word(relator, 3)]
        variants = {variant for variant, _ in relator_variants(relators)}
        rng = random.Random(1)
        for _ in range(200):
            d = dg.random_diagram(relators, rng.randrange(1, 7), rng)
            assert dg.validate_diagram(d, relators).ok
            assert {d.face_code(fid) for fid in d.faces} <= variants


# ---------------------------------------------------------------------------
# exact condition counts on the acceptance corpus (60 weakly reduced discs,
# random.Random(7)), recorded before the whole-map and submap counts were
# merged.  One line a disc: metrics "S Sigma E F"; condition X and its
# counts where the map is semisimple; the same for each maximal semisimple
# submap; and per face, condition B's b0 b1 b2 and its double-selected arc
# lengths.  The discs not listed read ONE_FACE.

ONE_FACE = "15 17 17 1 | X+ 15 17 17 1 | sub+ 15 17 17 1 | f0 +-+ []"

COUNTS_GOLDEN = {
    2: "26 34 32 2 | X+ 26 34 32 2 | sub+ 26 34 32 2 | f0 +-+ [2] | f1 +-+ [2]",
    9: "29 34 33 2 | X+ 29 34 33 2 | sub+ 29 34 33 2 | f0 +-+ [] | f1 +-+ []",
    12: "26 34 32 2 | X+ 26 34 32 2 | sub+ 26 34 32 2 | f0 +-+ [2] | f1 +-+ [2]",
    37: "29 34 33 2 | X+ 29 34 33 2 | sub+ 29 34 33 2 | f0 +-+ [] | f1 +-+ []",
    43: "24 34 31 2 | X+ 24 34 31 2 | sub+ 24 34 31 2 | f0 +-+ [3] | f1 +-+ [3]",
    45: (
        "33 51 45 3 | X+ 33 51 45 3 | sub+ 33 51 45 3 "
        "| f0 +-+ [3, 3] | f1 +-+ [3] | f2 +-+ [3]"
    ),
    46: "26 34 32 2 | X+ 26 34 32 2 | sub+ 26 34 32 2 | f0 +-+ [2] | f1 +-+ [2]",
    48: "26 34 32 2 | X+ 26 34 32 2 | sub+ 26 34 32 2 | f0 +-+ [2] | f1 +-+ [2]",
    51: "28 34 33 2 | X+ 28 34 33 2 | sub+ 28 34 33 2 | f0 +-+ [1] | f1 +-+ [1]",
    55: "26 34 32 2 | X+ 26 34 32 2 | sub+ 26 34 32 2 | f0 +-+ [2] | f1 +-+ [2]",
}


def _counts_line(d, params):
    def counts(met):
        return f"{met.S} {met.Sigma} {met.E} {met.F}"

    def sign(ok):
        return "+" if ok else "-"

    sel = dg.special_selection(d, params.n)
    parts = [counts(dg.metrics(d, sel))]
    if dg.is_semisimple(d):
        ok, met = dg.check_condition_X(d, sel, params.mu)
        parts.append(f"X{sign(ok)} {counts(met)}")
    for sub in dg.maximal_semisimple_submaps(d):
        ok, met = dg.submap_condition_X(d, sub, sel, params.mu)
        parts.append(f"sub{sign(ok)} {counts(met)}")
    for rep in dg.check_condition_B(d, sel, params.lambda1, params.lambda2):
        arcs = re.search(r"double-selected arc lengths = (\[[^]]*\])", rep.detail).group(1)
        parts.append(f"{rep.face} {sign(rep.b0)}{sign(rep.b1)}{sign(rep.b2)} {arcs}")
    return " | ".join(parts)


def test_condition_counts_golden(toy_presentation, toy_params):
    rels = toy_presentation.relator_words()
    rng = random.Random(7)
    corpus = []
    while len(corpus) < 60:
        d = dg.random_diagram(rels, rng.randrange(1, 7), rng)
        if not dg.find_immediately_cancellable(d):
            corpus.append(d)
    assert [_counts_line(d, toy_params) for d in corpus] == [
        COUNTS_GOLDEN.get(k, ONE_FACE) for k in range(60)
    ]

# ---------------------------------------------------------------------------
# exact builder output, recorded from the builders before they shared one
# path helper: every dart id, vertex id, endpoint, label, cycle and contour.
# Darts are listed in `diagram_to_dict` order, two to a line (each dart
# with its inverse).

BUILT = {
    "polygon x1 x2 x3": (
        "v0 v1 v2",
        """
        d0+ d0- v0 v1 x1 | d0- d0+ v1 v0 x1^-1
        d1+ d1- v1 v2 x2 | d1- d1+ v2 v1 x2^-1
        d2+ d2- v2 v0 x3 | d2- d2+ v0 v2 x3^-1
        """,
        [
            ("f0", "d0+ d1+ d2+"),
        ],
        [
            "d2- d1- d0-",
        ],
    ),
    "path x1 x2": (
        "v0 v1 v2",
        """
        d0+ d0- v0 v1 x1 | d0- d0+ v1 v0 x1^-1
        d1+ d1- v1 v2 x2 | d1- d1+ v2 v1 x2^-1
        """,
        [],
        [
            "d0+ d1+ d1- d0-",
        ],
    ),
    "path empty": (
        "v0",
        "",
        [],
        [],
    ),
    "sphere toy": (
        "v0 v1 v10 v11 v12 v13 v14 v15 v16 v2 v3 v4 v5 v6 v7 v8 v9",
        """
        d0+ d0- v0 v1 x1 | d0- d0+ v1 v0 x1^-1
        d1+ d1- v1 v2 x1 | d1- d1+ v2 v1 x1^-1
        d10+ d10- v10 v11 x3 | d10- d10+ v11 v10 x3^-1
        d11+ d11- v11 v12 x3 | d11- d11+ v12 v11 x3^-1
        d12+ d12- v12 v13 x3 | d12- d12+ v13 v12 x3^-1
        d13+ d13- v13 v14 x3 | d13- d13+ v14 v13 x3^-1
        d14+ d14- v14 v15 x3 | d14- d14+ v15 v14 x3^-1
        d15+ d15- v15 v16 x1^-1 | d15- d15+ v16 v15 x1
        d16+ d16- v16 v0 x2^-1 | d16- d16+ v0 v16 x2
        d2+ d2- v2 v3 x1 | d2- d2+ v3 v2 x1^-1
        d3+ d3- v3 v4 x1 | d3- d3+ v4 v3 x1^-1
        d4+ d4- v4 v5 x1 | d4- d4+ v5 v4 x1^-1
        d5+ d5- v5 v6 x2 | d5- d5+ v6 v5 x2^-1
        d6+ d6- v6 v7 x2 | d6- d6+ v7 v6 x2^-1
        d7+ d7- v7 v8 x2 | d7- d7+ v8 v7 x2^-1
        d8+ d8- v8 v9 x2 | d8- d8+ v9 v8 x2^-1
        d9+ d9- v9 v10 x2 | d9- d9+ v10 v9 x2^-1
        """,
        [
            ("back", (
                "d16- d15- d14- d13- d12- d11- d10- d9- d8- d7- d6- d5- d4- d3- d2- d1- "
                "d0-"
            )),
            ("front", (
                "d0+ d1+ d2+ d3+ d4+ d5+ d6+ d7+ d8+ d9+ d10+ d11+ d12+ d13+ d14+ d15+ "
                "d16+"
            )),
        ],
        [],
    ),
    "two faces": (
        (
            "f1_v0 f1_v1 f1_v10 f1_v11 f1_v12 f1_v13 f1_v14 f1_v2 f1_v3 f1_v4 f1_v5 f1_v6 "
            "f1_v7 f1_v8 f1_v9 v0 v1 v10 v11 v12 v13 v14 v15 v16 v2 v3 v4 v5 v6 v7 v8 v9"
        ),
        """
        d0+ d0- v0 v1 x1 | d0- d0+ v1 v0 x1^-1
        d1+ d1- v1 v2 x1 | d1- d1+ v2 v1 x1^-1
        d10+ d10- v10 v11 x3 | d10- d10+ v11 v10 x3^-1
        d11+ d11- v11 v12 x3 | d11- d11+ v12 v11 x3^-1
        d12+ d12- v12 v13 x3 | d12- d12+ v13 v12 x3^-1
        d13+ d13- v13 v14 x3 | d13- d13+ v14 v13 x3^-1
        d14+ d14- v14 v15 x3 | d14- d14+ v15 v14 x3^-1
        d15+ d15- v15 v16 x1^-1 | d15- d15+ v16 v15 x1
        d16+ d16- v16 v0 x2^-1 | d16- d16+ v0 v16 x2
        d2+ d2- v2 v3 x1 | d2- d2+ v3 v2 x1^-1
        d3+ d3- v3 v4 x1 | d3- d3+ v4 v3 x1^-1
        d4+ d4- v4 v5 x1 | d4- d4+ v5 v4 x1^-1
        d5+ d5- v5 v6 x2 | d5- d5+ v6 v5 x2^-1
        d6+ d6- v6 v7 x2 | d6- d6+ v7 v6 x2^-1
        d7+ d7- v7 v8 x2 | d7- d7+ v8 v7 x2^-1
        d8+ d8- v8 v9 x2 | d8- d8+ v9 v8 x2^-1
        d9+ d9- v9 v10 x2 | d9- d9+ v10 v9 x2^-1
        f1_d1+ f1_d1- v16 f1_v0 x2 | f1_d1- f1_d1+ f1_v0 v16 x2^-1
        f1_d10+ f1_d10- f1_v8 f1_v9 x1^-1 | f1_d10- f1_d10+ f1_v9 f1_v8 x1
        f1_d11+ f1_d11- f1_v9 f1_v10 x2^-1 | f1_d11- f1_d11+ f1_v10 f1_v9 x2
        f1_d12+ f1_d12- f1_v10 f1_v11 x1 | f1_d12- f1_d12+ f1_v11 f1_v10 x1^-1
        f1_d13+ f1_d13- f1_v11 f1_v12 x1 | f1_d13- f1_d13+ f1_v12 f1_v11 x1^-1
        f1_d14+ f1_d14- f1_v12 f1_v13 x1 | f1_d14- f1_d14+ f1_v13 f1_v12 x1^-1
        f1_d15+ f1_d15- f1_v13 f1_v14 x1 | f1_d15- f1_d15+ f1_v14 f1_v13 x1^-1
        f1_d16+ f1_d16- f1_v14 v0 x1 | f1_d16- f1_d16+ v0 f1_v14 x1^-1
        f1_d2+ f1_d2- f1_v0 f1_v1 x2 | f1_d2- f1_d2+ f1_v1 f1_v0 x2^-1
        f1_d3+ f1_d3- f1_v1 f1_v2 x2 | f1_d3- f1_d3+ f1_v2 f1_v1 x2^-1
        f1_d4+ f1_d4- f1_v2 f1_v3 x2 | f1_d4- f1_d4+ f1_v3 f1_v2 x2^-1
        f1_d5+ f1_d5- f1_v3 f1_v4 x3 | f1_d5- f1_d5+ f1_v4 f1_v3 x3^-1
        f1_d6+ f1_d6- f1_v4 f1_v5 x3 | f1_d6- f1_d6+ f1_v5 f1_v4 x3^-1
        f1_d7+ f1_d7- f1_v5 f1_v6 x3 | f1_d7- f1_d7+ f1_v6 f1_v5 x3^-1
        f1_d8+ f1_d8- f1_v6 f1_v7 x3 | f1_d8- f1_d8+ f1_v7 f1_v6 x3^-1
        f1_d9+ f1_d9- f1_v7 f1_v8 x3 | f1_d9- f1_d9+ f1_v8 f1_v7 x3^-1
        """,
        [
            ("f0", (
                "d0+ d1+ d2+ d3+ d4+ d5+ d6+ d7+ d8+ d9+ d10+ d11+ d12+ d13+ d14+ d15+ "
                "d16+"
            )),
            ("f1", (
                "d16- f1_d1+ f1_d2+ f1_d3+ f1_d4+ f1_d5+ f1_d6+ f1_d7+ f1_d8+ f1_d9+ "
                "f1_d10+ f1_d11+ f1_d12+ f1_d13+ f1_d14+ f1_d15+ f1_d16+"
            )),
        ],
        [
            (
                "d15- d14- d13- d12- d11- d10- d9- d8- d7- d6- d5- d4- d3- d2- d1- d0- "
                "f1_d16- f1_d15- f1_d14- f1_d13- f1_d12- f1_d11- f1_d10- f1_d9- f1_d8- "
                "f1_d7- f1_d6- f1_d5- f1_d4- f1_d3- f1_d2- f1_d1-"
            ),
        ],
    ),
}


def _build(name, relator):
    if name == "polygon x1 x2 x3":
        return dg.polygon_diagram(parse_word("x1 x2 x3", 3))
    if name == "path x1 x2":
        return degenerate_path_diagram(parse_word("x1 x2", 3))
    if name == "path empty":
        return degenerate_path_diagram("")
    if name == "sphere toy":
        return dg.sphere_double(relator)
    return glue_second_face(dg.polygon_diagram(relator), relator)


def _rendered(data):
    """diagram_to_dict output in the layout of BUILT."""
    assert list(data) == ["vertices", "darts", "faces", "contours"]
    darts = []
    for item in data["darts"]:
        assert list(item) == ["id", "inv", "from", "to", "label"]
        darts.append(" ".join(item.values()))
    assert len(darts) % 2 == 0
    return (
        " ".join(data["vertices"]),
        [" | ".join(darts[j : j + 2]) for j in range(0, len(darts), 2)],
        [(face["id"], " ".join(face["cycle"])) for face in data["faces"]],
        [" ".join(contour) for contour in data["contours"]],
    )


class TestBuilderOutput:
    @pytest.mark.parametrize("name", list(BUILT))
    def test_exact_dict(self, toy_relator, name):
        vertices, darts, faces, contours = BUILT[name]
        lines = [line.strip() for line in darts.splitlines() if line.strip()]
        assert _rendered(dg.diagram_to_dict(_build(name, toy_relator))) == (
            vertices, lines, faces, contours
        )

    def test_random_corpus_digest(self, toy_presentation):
        rels = toy_presentation.relator_words()
        rng = random.Random(20261018)
        data = [
            dg.diagram_to_dict(dg.random_diagram(rels, rng.randrange(1, 7), rng))
            for _ in range(50)
        ]
        digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        assert digest == "1c44d6047bf7314bc189728baf5468af68031f1c27782ec87db849063e08ccc8"


# ---------------------------------------------------------------------------
# exact validation reports of broken maps, each a mutation of the JSON dict
# of a two-face disc; recorded from the dict-keyed diagram core.  Every
# mutation keeps each dart's "to" equal to its inverse's "from", so the
# breakage reaches validation instead of being rejected on load.


def _two_face_dict():
    d = dg.polygon_diagram(parse_word("x1 x2 x3", 3))
    d = dg.glue_boundary(d, parse_word("x3^-1 x1^2", 3), "f1", 1)
    return dg.diagram_to_dict(d)


def _dart(data, dart_id):
    return next(item for item in data["darts"] if item["id"] == dart_id)


def _repoint(data, dart_id, image):
    """Point the dart's involution at `image`, keeping "to" consistent."""
    _dart(data, dart_id)["inv"] = image
    _dart(data, dart_id)["to"] = _dart(data, image)["from"]


def _move_origin(data, dart_id, vertex):
    _dart(data, dart_id)["from"] = vertex
    _dart(data, _dart(data, dart_id)["inv"])["to"] = vertex


def _swap_first_two(cycle):
    cycle[0], cycle[1] = cycle[1], cycle[0]


BROKEN = {
    "valid": lambda data: None,
    "image missing": lambda data: _dart(data, "d0+").update(inv="zz"),
    "not involutive": lambda data: _repoint(data, "d0+", "d1-"),
    "fixed point": lambda data: _repoint(data, "f1_d1-", "f1_d1-"),
    "origin not a vertex": lambda data: _move_origin(data, "d1+", "v9"),
    "empty boundary": lambda data: data["faces"][1]["cycle"].clear(),
    "empty contour": lambda data: data["contours"][0].clear(),
    "unknown darts": lambda data: (
        data["faces"][1]["cycle"].insert(1, "zz"), data["contours"][0].append(7)
    ),
    "cycle breaks": lambda data: _swap_first_two(data["faces"][0]["cycle"]),
    "repeated and missing": lambda data: (
        data["contours"][0].append("d0+"), data["contours"][0].remove("d1-")
    ),
    "not connected": lambda data: data["vertices"].append("v9"),
    "euler": lambda data: data["contours"].clear(),
    "edgeless": lambda data: data.update(
        vertices=["v0", "v1"], darts=[], faces=[{"id": "f0", "cycle": []}], contours=[]
    ),
    "bare vertex": lambda data: data.update(vertices=["v0"], darts=[], faces=[], contours=[]),
    "inverse label": lambda data: _dart(data, "d1-").update(label="x2"),
    "no relator match": lambda data: (
        _dart(data, "d1+").update(label="x3"), _dart(data, "d1-").update(label="x3^-1")
    ),
}


GOLDEN = {
    "valid": (
        [],
        {
            "f0": {"relator": 0, "sign": 1, "rotation": 0},
            "f1": {"relator": 1, "sign": 1, "rotation": 1},
        },
    ),
    "image missing": (
        [
            ("dart 'd0+'", "involution image missing"),
            ("dart 'd0-'", "involution is not involutive"),
        ],
        {},
    ),
    "not involutive": (
        [
            ("dart 'd0+'", "involution is not involutive"),
            ("dart 'd0-'", "involution is not involutive"),
        ],
        {},
    ),
    "fixed point": (
        [
            ("dart 'f1_d1+'", "involution is not involutive"),
            ("dart 'f1_d1-'", "involution has a fixed point"),
        ],
        {},
    ),
    "origin not a vertex": (
        [
            ("dart 'd1+'", "origin is not a vertex"),
        ],
        {},
    ),
    "empty boundary": (
        [
            ("face 'f1'", "empty boundary cycle"),
            ("dart 'd2-'", "appears 0 times (nowhere), expected once"),
            ("dart 'f1_d1+'", "appears 0 times (nowhere), expected once"),
            ("dart 'f1_d2+'", "appears 0 times (nowhere), expected once"),
        ],
        {},
    ),
    "empty contour": (
        [
            ("contour 0", "empty contour"),
            ("dart 'd0-'", "appears 0 times (nowhere), expected once"),
            ("dart 'd1-'", "appears 0 times (nowhere), expected once"),
            ("dart 'f1_d1-'", "appears 0 times (nowhere), expected once"),
            ("dart 'f1_d2-'", "appears 0 times (nowhere), expected once"),
        ],
        {},
    ),
    "unknown darts": (
        [
            ("face 'f1'", "unknown dart 'zz'"),
            ("contour 0", "unknown dart 7"),
        ],
        {},
    ),
    "cycle breaks": (
        [
            ("face 'f0'", "cycle breaks between darts 'd1+' and 'd0+'"),
            ("face 'f0'", "cycle breaks between darts 'd0+' and 'd2+'"),
            ("face 'f0'", "cycle breaks between darts 'd2+' and 'd1+'"),
        ],
        {},
    ),
    "repeated and missing": (
        [
            ("contour 0", "cycle breaks between darts 'f1_d1-' and 'd0+'"),
            ("dart 'd0+'", "appears 2 times (face 'f0', contour 0), expected once"),
            ("dart 'd1-'", "appears 0 times (nowhere), expected once"),
        ],
        {},
    ),
    "not connected": (
        [
            ("map", "underlying complex is not connected"),
            ("map", "Euler characteristic 3 != 2"),
        ],
        {},
    ),
    "euler": (
        [
            ("dart 'd0-'", "appears 0 times (nowhere), expected once"),
            ("dart 'd1-'", "appears 0 times (nowhere), expected once"),
            ("dart 'f1_d1-'", "appears 0 times (nowhere), expected once"),
            ("dart 'f1_d2-'", "appears 0 times (nowhere), expected once"),
            ("map", "Euler characteristic 1 != 2"),
        ],
        {},
    ),
    "edgeless": (
        [
            ("face 'f0'", "empty boundary cycle"),
            ("map", "underlying complex is not connected"),
            ("map", "edgeless map must be a single bare vertex"),
        ],
        {},
    ),
    "bare vertex": (
        [],
        {},
    ),
    "inverse label": (
        [
            ("dart 'd1+'", "inverse dart label is not the inverse letter"),
            ("dart 'd1-'", "inverse dart label is not the inverse letter"),
        ],
        {},
    ),
    "no relator match": (
        [
            ("face 'f0'", "label matches no relator in any rotation"),
        ],
        {
            "f0": None,
            "f1": {"relator": 1, "sign": 1, "rotation": 1},
        },
    ),
}

@pytest.mark.parametrize("name", list(BROKEN))
def test_validation_report_golden(name):
    data = _two_face_dict()
    BROKEN[name](data)
    d = dg.diagram_from_dict(json.loads(json.dumps(data)), 3)
    relators = [parse_word("x1 x2 x3", 3), parse_word("x1^2 x3^-1", 3)]
    issues, face_matches = GOLDEN[name]
    assert dg.validate_diagram(d, relators).as_dict() == {
        "ok": not issues,
        "issues": [{"location": where, "message": message} for where, message in issues],
        "face_matches": face_matches,
    }


# ---------------------------------------------------------------------------
# argument guards: each call is rejected with its own message


def _x(text):
    return parse_word(text, 3)


GUARDS = {
    "empty polygon": (
        lambda pres, r1: dg.polygon_diagram(""),
        dg.DiagramError,
        "cannot build a polygon on the empty word",
    ),
    "glue on a sphere": (
        lambda pres, r1: dg.glue_boundary(dg.sphere_double(r1), r1, "f1", 1),
        dg.DiagramError,
        "gluing expects a disc diagram",
    ),
    "glue overlap 0": (
        lambda pres, r1: dg.glue_boundary(dg.polygon_diagram(r1), r1, "f1", 0),
        dg.DiagramError,
        "overlap must be a proper nonempty boundary segment",
    ),
    "glue overlap whole face": (
        lambda pres, r1: dg.glue_boundary(dg.polygon_diagram(r1), r1, "f1", len(r1)),
        dg.DiagramError,
        "overlap must be a proper nonempty boundary segment",
    ),
    "glue overlap past contour": (
        lambda pres, r1: dg.glue_boundary(
            dg.polygon_diagram(_x("x1 x2")), _x("x1^-1 x2 x3 x1 x2"), "f1", 3
        ),
        dg.DiagramError,
        "overlap exceeds contour length",
    ),
    "glue first letter mismatch": (
        lambda pres, r1: dg.glue_boundary(dg.polygon_diagram(r1), _x("x1 x2 x3"), "f1", 1),
        dg.DiagramError,
        "overlap letter 0 mismatch: contour side reads x2, new face needs x1",
    ),
    "rotate a sphere": (
        lambda pres, r1: dg.rotate_contour(dg.sphere_double(r1), 1),
        dg.DiagramError,
        "contour rotation expects a disc diagram",
    ),
    "random with no faces": (
        lambda pres, r1: dg.random_diagram([r1], 0, random.Random(0)),
        dg.DiagramError,
        "need at least one face",
    ),
    "letter budget on a path": (
        lambda pres, r1: dg.check_letter_budget(
            degenerate_path_diagram(_x("x1 x2")), dg.Selection({}), {1}, 3
        ),
        dg.DiagramError,
        "degenerate diagram",
    ),
    "relator index 0": (
        lambda pres, r1: build_relator(pres.params, 0, _x("x2 x1")),
        ConstructionError,
        "relator index must be positive, got 0",
    ),
    "relator length": (
        lambda pres, r1: build_relator(pres.params, 1, _x("x2 x3")),
        ConstructionError,
        "relator length does not match n*m + |w|",
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_message(name, toy_presentation, toy_relator):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as raised:
        call(toy_presentation, toy_relator)
    assert str(raised.value) == message
