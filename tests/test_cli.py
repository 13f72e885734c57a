import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import degenerate_path_diagram
from hypothesis import example, given, settings, strategies as st

from filebasis import decision
from filebasis.cli import main
from filebasis.construction import Presentation
from filebasis.words import MAX_WORD_LETTERS


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        out = json.loads(captured.out) if captured.out.strip() else None
        return code, out

    return invoke


@pytest.fixture()
def pres_file(tmp_path, toy_presentation):
    path = tmp_path / "pres.json"
    path.write_text(toy_presentation.dumps())
    return str(path)


class TestValidate:
    def test_theorem_scale(self, run):
        code, out = run("validate", "--n", "63", "--lambda1", "1/315", "--N", "315")
        assert code == 0
        assert out["report"]["all_passed"]
        assert out["report"]["theorem_scale"]
        assert out["derived"]["q"] == "105/71"

    def test_failing_params(self, run):
        code, out = run("validate", "--n", "63", "--lambda1", "1/2", "--N", "315")
        assert code == 1
        assert not out["report"]["all_passed"]

    def test_small_alphabet_still_validates(self, run):
        code, out = run("validate", "--n", "2", "--lambda1", "1/10", "--N", "5")
        assert out["report"]["theorem_scale"] is False

    def test_bad_rational(self, run):
        code, _ = run("validate", "--n", "3", "--lambda1", "zzz", "--N", "2")
        assert code == 64

    def test_usage_error(self, run):
        code, _ = run("validate", "--n", "3")
        assert code == 64


class TestGen:
    def test_toy_deterministic(self, run):
        code1, out1 = run("gen", "--n", "3", "--lambda1", "1/15", "--N", "2", "--count", "1")
        code2, out2 = run("gen", "--n", "3", "--lambda1", "1/15", "--N", "2", "--count", "1")
        assert code1 == code2 == 0
        assert out1 == out2
        rel = out1["presentation"]["relators"][0]
        assert rel["r"] == "x1^5 x2^5 x3^5 x1^-1 x2^-1"
        assert rel["m"] == 5
        assert "truncated" not in out1["presentation"]
        assert not Presentation.from_dict(out1["presentation"]).truncated

    def test_truncation_exit(self, run):
        code, out = run(
            "gen", "--n", "3", "--lambda1", "1/15", "--N", "2", "--count", "2",
            "--max-edges", "40", "--max-len", "25", "--max-states", "50",
        )
        assert code == 2
        assert out["truncated"]
        assert Presentation.from_dict(out["presentation"]).truncated


class TestEq:
    def test_trivial_pair(self, run, pres_file):
        code, out = run("eq", "x1 x1^-1", "", "--presentation", pres_file)
        assert code == 0
        assert out["outcome"] == "yes"

    def test_distinct(self, run, pres_file):
        code, out = run("eq", "x1", "x2", "--presentation", pres_file)
        assert code == 1
        assert out["outcome"] == "no"

    def test_witness_flag(self, run, pres_file):
        code, out = run(
            "eq", "x1^5 x2^5 x3^5", "x2 x1", "--presentation", pres_file, "--witness"
        )
        assert code == 0
        assert out["witness"]["kind"] == "filling"

    def test_rewrite_engine(self, run, pres_file):
        code, out = run(
            "eq", "x1^5 x2^5 x3^5", "x2 x1", "--presentation", pres_file,
            "--engine", "rewrite", "--witness",
        )
        assert code == 0
        assert out["witness"]["kind"] == "rewriting"

    def test_edge_cap_is_not_no(self, run, pres_file):
        # one edge cannot hold the 4-letter contour, but only a search to the true bound says no
        code, out = run("eq", "x1 x2", "x2 x1", "--presentation", pres_file, "--max-edges", "1")
        assert code == 2
        assert out == {"outcome": "budget-exceeded"}

    def test_bad_word(self, run, pres_file):
        code, _ = run("eq", "x9", "x1", "--presentation", pres_file)
        assert code == 65

    def test_missing_file(self, run):
        code, _ = run("eq", "x1", "x1", "--presentation", "/nonexistent.json")
        assert code == 65


class TestUnexpectedExceptions:
    """A crash never exits 0, 1 or 2 as an answer would, except that running
    out of memory or of recursion depth is reported as budget-exceeded."""

    @pytest.fixture()
    def raising(self, monkeypatch):
        def install(exc):
            def equals_in_G(*args, **kwargs):
                raise exc

            monkeypatch.setattr(decision, "equals_in_G", equals_in_G)

        return install

    @pytest.mark.parametrize(
        "exc, reason",
        [
            (MemoryError(), "MemoryError"),
            (RecursionError("maximum recursion depth exceeded"), "maximum recursion depth exceeded"),
        ],
        ids=["MemoryError", "RecursionError"],
    )
    def test_resource_exhaustion_is_budget_exceeded(self, capsys, pres_file, raising, exc, reason):
        raising(exc)
        code = main(["eq", "x1", "x2", "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"outcome": "budget-exceeded", "reason": reason}
        assert captured.err == ""

    def test_other_exception_is_an_internal_error(self, capsys, pres_file, raising):
        raising(ZeroDivisionError("division by zero"))
        code = main(["eq", "x1", "x2", "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 70
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ZeroDivisionError: division by zero"
        assert error["traceback"].startswith("Traceback")


class TestNf:
    def test_regular_input(self, run, pres_file):
        code, out = run("nf", "x1^2", "--presentation", pres_file)
        assert code == 0
        assert out["normal_form"] == "x1^2"

    def test_relator_word(self, run, pres_file):
        code, out = run("nf", "x2 x1", "--presentation", pres_file, "--max-states", "20000")
        assert code == 0
        assert out["normal_form"] == "x1^5 x2^5 x3^5"

    def test_scan_cut_by_max_len(self, run, pres_file):
        # the input is regular, but the scan stops at length 3 < |x1^3 x2|
        code, out = run("nf", "x1^3 x2", "--presentation", pres_file, "--max-len", "3")
        assert code == 2
        assert out["outcome"] == "budget-exceeded"


class TestConj:
    def test_shift(self, run, pres_file):
        code, out = run(
            "conj", "x1 x2", "x2 x1", "--presentation", pres_file,
            "--max-len", "30", "--max-states", "2000",
        )
        assert code == 0
        assert out["witness"]["kind"] == "conjugacy"

    def test_obstructed(self, run, pres_file):
        code, out = run(
            "conj", "x1", "x2", "--presentation", pres_file,
            "--max-len", "30", "--max-states", "2000",
        )
        assert code == 1

    def test_certificate_lemmas(self, run, tmp_path):
        # the certificate inserts a face of the trivial word [x1^2, x2],
        # which the commutator relator alone does not give
        path = tmp_path / "commutator.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "lambda1": "1/15",
                    "N": 2,
                    "relators": [{"i": 1, "w": "", "m": 1, "r": "x1 x2 x1^-1 x2^-1"}],
                }
            )
        )
        code, out = run(
            "conj", "x1 x2 x1^-2 x2^-1", "x1^4 x2 x1^-1 x2^-2 x1 x2 x1^-5",
            "--presentation", str(path), "--witness", "--max-len", "14", "--max-states", "600",
        )
        assert code == 0
        lemmas = out["witness"]["lemmas"]
        assert lemmas and all(lemma["kind"] == "filling" for lemma in lemmas)
        faces = {step["face_label"] for step in out["witness"]["certificate"]["trace"]}
        assert "x1^-2 x2 x1^2 x2^-1" in faces


class TestCheckDiagram:
    @pytest.fixture()
    def diagram_file(self, tmp_path, toy_presentation):
        from filebasis import diagram as dg

        d = dg.polygon_diagram(toy_presentation.relators[0].r)
        path = tmp_path / "face.json"
        path.write_text(json.dumps(dg.diagram_to_dict(d)))
        return str(path)

    def test_valid(self, run, pres_file, diagram_file):
        code, out = run("check-diagram", diagram_file, "--presentation", pres_file)
        assert code == 0
        assert out["validation"]["ok"]

    def test_condition_X(self, run, pres_file, diagram_file):
        code, out = run(
            "check-diagram", diagram_file, "--presentation", pres_file, "--condition", "X"
        )
        assert code == 0
        assert out["condition_X"]["passed"]
        assert out["condition_X"]["metrics"] == {"S": 15, "Sigma": 17, "E": 17, "F": 1}

    def test_condition_B_toy_fails_length(self, run, pres_file, diagram_file):
        code, out = run(
            "check-diagram", diagram_file, "--presentation", pres_file, "--condition", "B"
        )
        assert code == 1  # the toy face cannot meet the per-face length bound
        rep = out["condition_B"][0]
        assert rep["b0"] and not rep["b1"]

    def test_main_lemma_precondition_fails(self, run, pres_file, diagram_file):
        code, out = run(
            "check-diagram", diagram_file, "--presentation", pres_file, "--condition", "main-lemma"
        )
        assert code == 1  # valid data outside the lemma's hypotheses: a no, not exit 65
        rep = out["condition_B"][0]
        assert rep["b0"] and not rep["b1"]
        assert out["main_lemma"]["passed"] is False
        assert out["main_lemma"]["precondition"].startswith("face 'f0' fails")

    def test_condition_X_precondition_fails(self, capsys, pres_file, tmp_path):
        from filebasis import diagram as dg
        from filebasis.words import parse_word

        # a valid face-free path: not semisimple, so outside condition X's hypotheses
        path = tmp_path / "path.json"
        path.write_text(json.dumps(dg.diagram_to_dict(degenerate_path_diagram(parse_word("x1", 3)))))
        code = main(["check-diagram", str(path), "--presentation", pres_file, "--condition", "X"])
        captured = capsys.readouterr()
        assert code == 1  # a no, not exit 65
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["validation"]["ok"]
        assert out["condition_X"] == {"passed": False, "precondition": "map is not semisimple"}

    def test_main_lemma_passes(self, run, tmp_path, toy_presentation, diagram_file):
        # lambda1 = 1/5 lets the toy face meet condition B, so the lemma applies
        data = toy_presentation.as_dict()
        data["lambda1"] = "1/5"
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(data))
        code, out = run(
            "check-diagram", diagram_file, "--presentation", str(path), "--condition", "main-lemma"
        )
        assert code == 0
        assert out["main_lemma"] == {
            "passed": True, "metrics": {"S": 15, "Sigma": 17, "E": 17, "F": 1}
        }

    @pytest.mark.parametrize(
        "condition, key", [("B", "condition_B"), ("X", "condition_X"), ("main-lemma", "main_lemma")]
    )
    def test_selection_precondition_fails(self, capsys, tmp_path, condition, key):
        from filebasis import diagram as dg
        from filebasis.words import parse_word

        # the face's special subpath x1 x2 x3 is too short for the n/(2n-2) bound
        relator = "x1 x2 x3 x1^-1 x2^-1"
        pres = {
            "n": 3, "lambda1": "1/15", "N": 2,
            "relators": [{"i": 1, "w": "x2 x1", "m": 1, "r": relator}],
        }
        pres_path, face_path = tmp_path / "pres.json", tmp_path / "face.json"
        pres_path.write_text(json.dumps(pres))
        face_path.write_text(json.dumps(dg.diagram_to_dict(dg.polygon_diagram(parse_word(relator, 3)))))
        argv = ["check-diagram", str(face_path), "--presentation", str(pres_path)]
        assert main(argv) == 0
        capsys.readouterr()
        code = main([*argv, "--condition", condition])
        captured = capsys.readouterr()
        assert code == 1  # a no, not exit 65
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["validation"]["ok"]
        assert out[key] == {
            "passed": False,
            "precondition": "face 'f0': special subpath of length 3 fails the bound "
            "over boundary length 5",
        }
        assert set(out) == {"validation", key}

    def test_invalid_diagram(self, run, pres_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": ["v0"], "darts": [], "faces": [], "contours": []}))
        code, out = run("check-diagram", str(bad), "--presentation", pres_file)
        assert code == 0  # an edgeless vertex is a legitimate degenerate map
        # now actually malformed data
        bad.write_text("{}")
        code, _ = run("check-diagram", str(bad), "--presentation", pres_file)
        assert code == 65

    @pytest.mark.parametrize("cycle", ["face", "contour"])
    def test_unknown_darts_reported(self, capsys, tmp_path, pres_file, toy_presentation, cycle):
        from filebasis import diagram as dg

        data = dg.diagram_to_dict(dg.polygon_diagram(toy_presentation.relators[0].r))
        darts = data["faces"][0]["cycle"] if cycle == "face" else data["contours"][0]
        darts.insert(1, "zz")
        darts.insert(4, "yy")
        path = tmp_path / "face.json"
        path.write_text(json.dumps(data))
        code = main(["check-diagram", str(path), "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        messages = [issue["message"] for issue in json.loads(captured.out)["validation"]["issues"]]
        assert "unknown dart 'zz'" in messages
        assert "unknown dart 'yy'" in messages


class TestEnumWords:
    FIRST = ["", "x1", "x1^-1", "x2", "x2^-1", "x3", "x3^-1", "x1^2", "x1 x2"]

    def test_first_words(self, run):
        code, out = run("enum-words", "--n", "3", "--count", "9")
        assert code == 0
        assert out["words"] == self.FIRST

    @pytest.mark.parametrize("count", [8, 0])
    def test_count_is_exact(self, run, count):
        # the scan stops after exactly --count words
        code, out = run("enum-words", "--n", "3", "--count", str(count))
        assert code == 0
        assert out["words"] == self.FIRST[:count]

    def test_roundtrip_parse(self, run):
        from filebasis.words import parse_word, word_text

        _, out = run("enum-words", "--n", "2", "--count", "30")
        for text in out["words"]:
            assert word_text(parse_word(text, 2)) == text


class TestTrustBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            [command, *words, flag, "0"]
            for command, words in [
                ("gen", ["--n", "3", "--lambda1", "1/15", "--N", "2"]),
                ("eq", ["x1", "x2"]),
                ("nf", ["x2 x1"]),
                ("conj", ["x1", "x2"]),
            ]
            for flag in ("--max-len", "--max-states", "--max-edges")
        ]
        + [["enum-words", "--n", "0"], ["enum-words", "--n", "-2"], ["eq", "x1", "x2", "--max-len", "-1"]]
        + [
            ["gen", "--n", "3", "--lambda1", "1/15", "--N", "2", "--count", "-3"],
            ["enum-words", "--n", "3", "--count", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_positive_ints_are_usage_errors(self, run, pres_file, argv):
        if argv[0] in ("eq", "nf", "conj"):
            argv = [*argv, "--presentation", pres_file]
        code, out = run(*argv)
        assert code == 64
        assert out is None

    def test_word_over_the_letter_cap_is_a_data_error(self, capsys, pres_file):
        # one letter more than words.MAX_WORD_LETTERS, rejected before it is spelled
        code = main(["eq", "x1^16777217", "x1", "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "more than 16777216 letters" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize(
        "u, v",
        [("x\u0661", "x1"), ("x1^\u0663", "x1 x1 x1"), ("x\uff12", "x2")],
        ids=["arabic-indic index", "arabic-indic exponent", "fullwidth index"],
    )
    def test_non_ascii_digits_are_data_errors(self, capsys, pres_file, u, v):
        # int() reads these digits; the grammar takes ASCII ones only
        code = main(["eq", u, v, "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == f"bad token {u!r}"

    UNREADABLE = {
        "directory": None,
        "utf-16 byte order mark": b"\xff\xfe{\x00}\x00",
        "deep nesting": b"[" * 200000 + b"]" * 200000,
        "5000-digit integer": b'{"n": ' + b"7" * 5000 + b"}",
    }

    @pytest.mark.parametrize("command", ["eq", "check-diagram"])
    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_unreadable_file_is_a_data_error(self, capsys, tmp_path, pres_file, command, case):
        path = tmp_path / "unreadable"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(self.UNREADABLE[case])
        if command == "eq":
            argv = ["eq", "x1", "x1", "--presentation", str(path)]
        else:
            argv = ["check-diagram", str(path), "--presentation", pres_file]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "error" in json.loads(captured.err)

    @pytest.mark.parametrize(
        "case",
        [
            "n not a number",
            "relator beyond x_n",
            "lambda1 of 2",
            "a list",
            "n infinite",
            "lambda1 infinite",
            "lambda1 of 1/0",
            "w not text",
            "r not text",
        ],
    )
    def test_malformed_presentation_is_a_data_error(
        self, capsys, tmp_path, toy_presentation, case
    ):
        data = toy_presentation.as_dict()
        if case == "n not a number":
            data["n"] = "abc"
        elif case == "relator beyond x_n":
            data["relators"][0]["w"] = "x9"
        elif case == "lambda1 of 2":
            data["lambda1"] = "2"
        elif case == "a list":
            data = [1, 2]
        elif case == "n infinite":
            data["n"] = float("inf")
        elif case == "lambda1 infinite":
            data["lambda1"] = float("inf")
        elif case == "lambda1 of 1/0":
            data["lambda1"] = "1/0"
        elif case == "w not text":
            data["relators"][0]["w"] = 5
        else:
            data["relators"][0]["r"] = 5
        path = tmp_path / "pres.json"
        path.write_text(json.dumps(data))
        code = main(["eq", "x1", "x1", "--presentation", str(path)])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "error" in json.loads(captured.err)

    @pytest.mark.parametrize("label", ["y3", "q5^-1", "x0", "x1^2", "x4", "x4^-1", "x1 x2", "", 5])
    def test_bad_dart_label(self, capsys, tmp_path, pres_file, toy_presentation, label):
        from filebasis import diagram as dg

        data = dg.diagram_to_dict(dg.polygon_diagram(toy_presentation.relators[0].r))
        data["darts"][0]["label"] = label
        path = tmp_path / "face.json"
        path.write_text(json.dumps(data))
        code = main(["check-diagram", str(path), "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "error" in json.loads(captured.err)

    @pytest.mark.parametrize("where", ["inv", "from", "face cycle", "contour"])
    @pytest.mark.parametrize("value", [["d0-"], {"id": "d0-"}], ids=["list", "object"])
    def test_non_scalar_dart_id(self, capsys, tmp_path, pres_file, toy_presentation, where, value):
        from filebasis import diagram as dg

        data = dg.diagram_to_dict(dg.polygon_diagram(toy_presentation.relators[0].r))
        if where in ("inv", "from"):
            data["darts"][1][where] = value
        elif where == "face cycle":
            data["faces"][0]["cycle"][1] = value
        else:
            data["contours"][0][1] = value
        path = tmp_path / "face.json"
        path.write_text(json.dumps(data))
        code = main(["check-diagram", str(path), "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "error" in json.loads(captured.err)

    @pytest.mark.parametrize("kind", ["dart", "vertex", "face"])
    def test_repeated_id(self, capsys, tmp_path, pres_file, toy_presentation, kind):
        from filebasis import diagram as dg

        data = dg.diagram_to_dict(dg.polygon_diagram(toy_presentation.relators[0].r))
        if kind == "dart":
            # a first entry for d0+ with another label, which a later entry
            # for the same id would silently replace if repeats were read
            data["darts"].insert(0, dict(data["darts"][0], label="x2"))
            repeated = "d0+"
        elif kind == "vertex":
            data["vertices"].append("v3")
            repeated = "v3"
        else:
            data["faces"].append(dict(data["faces"][0]))
            repeated = "f0"
        path = tmp_path / "face.json"
        path.write_text(json.dumps(data))
        code = main(["check-diagram", str(path), "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": f"{kind} id {repeated!r} appears more than once"}

    def test_inconsistent_to(self, capsys, tmp_path, pres_file, toy_presentation):
        from filebasis import diagram as dg

        data = dg.diagram_to_dict(dg.polygon_diagram(toy_presentation.relators[0].r))
        assert data["darts"][0]["id"] == "d0+" and data["darts"][1]["from"] == "v1"
        data["darts"][0]["to"] = "v5"
        path = tmp_path / "face.json"
        path.write_text(json.dumps(data))
        code = main(["check-diagram", str(path), "--presentation", pres_file])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "dart 'd0+' ends at 'v5', but its inverse 'd0-' starts at 'v1'"
        }


class TestPinnedWitnesses:
    """Exact stdout of witness-carrying answers; the witnesses depend on the
    variant order and the heap's tie-breaks, which must not drift."""

    CASES = {
        "planted pair, diagram engine": (
            ["eq", "x2 x3^-1", "x2 x1^5 x2^5 x3^5 x1^-1 x2^-1 x3^-1", "--witness"],
            {
                "outcome": "yes",
                "witness": {
                    "kind": "filling",
                    "contour": "x2^2 x1 x3^-5 x2^-5 x1^-5 x2^-1",
                    "trace": [{"position": 7, "face_label": "x1^-1 x2^-1 x1^5 x2^5 x3^5"}],
                    "edges": 19,
                    "area": 17,
                },
            },
        ),
        "planted pair, rewrite engine": (
            [
                "eq", "x2 x3^-1", "x2 x1^5 x2^5 x3^5 x1^-1 x2^-1 x3^-1", "--witness",
                "--engine", "rewrite", "--max-len", "40", "--max-states", "3000",
            ],
            {
                "outcome": "yes",
                "witness": {
                    "kind": "rewriting",
                    "meeting_point": "x2 x1^5 x2^5 x3^5 x1^-1 x2^-1 x3^-1",
                    "steps_from_u": ["x2 x3^-1", "x2 x1^5 x2^5 x3^5 x1^-1 x2^-1 x3^-1"],
                    "steps_from_v": ["x2 x1^5 x2^5 x3^5 x1^-1 x2^-1 x3^-1"],
                },
            },
        ),
        "rotation-zero conjugate pair": (
            [
                "conj", "x1 x2^-1", "x1 x2^-1 x1^5 x2^5 x3^5 x1^-1 x2^-1", "--witness",
                "--max-len", "30", "--max-states", "100",
            ],
            {
                "outcome": "yes",
                "witness": {
                    "kind": "conjugacy",
                    "conjugator": "",
                    "certificate": {
                        "kind": "filling",
                        "contour": "x1^2 x3^-5 x2^-5 x1^-5 x2 x1^-1",
                        "trace": [{"position": 7, "face_label": "x1^-1 x2^-1 x1^5 x2^5 x3^5"}],
                        "edges": 18,
                        "area": 17,
                    },
                },
            },
        ),
        "two-face filling": (
            [
                "eq", "x1^5 x2^5 x3^5 x2 x1", "x2 x1 x1^5 x2^5 x3^5", "--witness",
                "--max-len", "40", "--max-states", "3000",
            ],
            {
                "outcome": "yes",
                "witness": {
                    "kind": "filling",
                    "contour": "x1^5 x2^5 x3^5 x2 x1 x3^-5 x2^-5 x1^-6 x2^-1",
                    "trace": [
                        {"position": 12, "face_label": "x1^-5 x2 x1 x3^-5 x2^-5"},
                        {"position": 7, "face_label": "x1^-1 x2^-1 x1^5 x2^5 x3^5"},
                    ],
                    "edges": 34,
                    "area": 34,
                },
            },
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exact_stdout(self, capsys, pres_file, case):
        argv, expected = self.CASES[case]
        code = main([*argv[:3], "--presentation", pres_file, *argv[3:]])
        assert code == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


class TestHandEditedPresentation:
    """Exact stdout over a relator that is not cyclically reduced, recorded
    before insertion cancelled at the seams only: the rotations of such a
    relator are not freely reduced."""

    RELATOR = "x1 x2 x3^2 x1^-1"

    CASES = {
        "eq, diagram engine": (
            ["eq", "x3^2", "x2^-1", "--witness", "--engine", "diagram"],
            {
                "outcome": "yes",
                "witness": {
                    "kind": "filling",
                    "contour": "x3^2 x2",
                    "trace": [{"position": 0, "face_label": "x3^-2 x2^-1"}],
                    "edges": 4,
                    "area": 5,
                },
            },
        ),
        "eq, rewrite engine": (
            ["eq", "x3^2", "x2^-1", "--witness", "--engine", "rewrite"],
            {
                "outcome": "yes",
                "witness": {
                    "kind": "rewriting",
                    "meeting_point": "x2^-1",
                    "steps_from_u": ["x3^2", "x2^-1"],
                    "steps_from_v": ["x2^-1"],
                },
            },
        ),
        "conj": (
            [
                "conj", "x3^2", "x1 x2^-1 x1^-1", "--witness",
                "--max-len", "30", "--max-states", "100",
            ],
            {
                "outcome": "yes",
                "witness": {
                    "kind": "conjugacy",
                    "conjugator": "x1",
                    "certificate": {
                        "kind": "filling",
                        "contour": "x1 x3^2 x2 x1^-1",
                        "trace": [{"position": 0, "face_label": "x3^-2 x2^-1"}],
                        "edges": 5,
                        "area": 5,
                    },
                },
            },
        ),
    }

    @pytest.fixture()
    def hand_file(self, tmp_path):
        data = {
            "n": 3, "lambda1": "1/15", "N": 2,
            "relators": [{"i": 1, "w": "x2", "m": 5, "r": self.RELATOR}],
        }
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("case", list(CASES))
    def test_exact_stdout(self, capsys, hand_file, case):
        argv, expected = self.CASES[case]
        code = main([*argv[:3], "--presentation", hand_file, *argv[3:]])
        assert code == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


class TestDependentRelators:
    """Exact stdout over four relators whose abelian images are dependent.
    Their lattice excludes x1 - x2 and the image (3, 2, 1), so each query is
    a `no` by the abelian obstruction."""

    RELATORS = ["x1^2", "x2^2", "x3^2", "x1^2 x2^2 x3^2"]

    CASES = {
        "eq": (
            ["eq", "x1", "x2", "--witness"],
            {"outcome": "no", "witness": "abelianized obstruction"},
        ),
        "conj": (["conj", "x1", "x2"], {"outcome": "no"}),
        "eq, trivial word": (
            ["eq", "x1 x2 x3 x1 x2", "", "--max-states", "200"],
            {"outcome": "no"},
        ),
    }

    @pytest.fixture()
    def four_file(self, tmp_path):
        data = {
            "n": 3, "lambda1": "1/15", "N": 2,
            "relators": [
                {"i": i, "w": "", "m": 2, "r": r} for i, r in enumerate(self.RELATORS, 1)
            ],
        }
        path = tmp_path / "four.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("case", list(CASES))
    def test_exact_stdout(self, capsys, four_file, case):
        argv, expected = self.CASES[case]
        code = main([*argv[:3], "--presentation", four_file, *argv[3:]])
        assert code == 1
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


class TestWordTextFuzz:
    """Word text read by `eq`, `nf` and `conj` either gets an answer or is
    rejected with its exit code; no input makes the CLI crash (exit 70)."""

    EXPONENTS = st.one_of(
        st.none(),
        st.integers(-3, 3).map(str),
        st.integers(MAX_WORD_LETTERS + 1, 10**30).map(str),
        st.integers(-(10**30), -MAX_WORD_LETTERS - 1).map(str),
        st.just("9" * 5000),  # more digits than int() converts
    )
    # ASCII digits mixed with digits that int() reads but the grammar rejects
    NUMERALS = st.text("0123456789\u0661\u0663\u06f2\uff11", min_size=1, max_size=2)
    LETTERS = st.builds(
        lambda i, e: f"x{i}" if e is None else f"x{i}^{e}",
        st.integers(0, 5) | NUMERALS,
        EXPONENTS | NUMERALS,
    )
    JUNK = st.sampled_from(
        ["x", "x1^", "y2", "x-1", "x1^+1", "^2", "x1^2^3", "x1x2", "X1", "x\u0661", "-x1", "--"]
    ) | st.text(max_size=4)
    WORDS = st.lists(LETTERS | JUNK, max_size=3).map(" ".join)

    @pytest.fixture(scope="class")
    def toy_file(self, tmp_path_factory, toy_presentation):
        path = tmp_path_factory.mktemp("fuzz") / "pres.json"
        path.write_text(toy_presentation.dumps())
        return str(path)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["eq", "nf", "conj"]), WORDS, WORDS)
    @example("eq", "x1^" + "9" * 5000, "x1")
    @example("eq", "x1^\u0663", "x1 x1 x1")
    def test_exit_codes(self, toy_file, command, u, v):
        words = [u] if command == "nf" else [u, v]
        argv = [command, *words, "--presentation", toy_file, "--max-states", "20", "--max-len", "12"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2, 64, 65), err.getvalue()[-500:]
        if not "".join(" ".join(words).split()).isascii():
            # a token with a non-ASCII character never parses (65), unless
            # argparse took a word such as "-x1" for an option first (64)
            assert code in (64, 65)
