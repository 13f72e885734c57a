"""The scripts under scripts/ run to completion from a checkout."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def assert_golden(records, name):
    """Compare each record's argv, exit code and stdout digest with the line
    of tests/golden/<name>.jsonl recorded from `scripts/diff_toy_queries.py`
    output, so that a changed answer fails and names its query."""
    lines = (GOLDEN / f"{name}.jsonl").read_text().splitlines()
    assert len(records) == len(lines)
    for record, line in zip(records, lines):
        digest = hashlib.sha256(record["stdout"].encode()).hexdigest()
        assert [record["argv"], record["code"], digest] == json.loads(line), record["argv"]


def test_check_theorem_scale(tmp_path):
    proc = run_script("check_theorem_scale.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "valid: True" in proc.stdout
    assert "global inequality S >= (1-2mu)*Sigma: True" in proc.stdout
    assert "semisimple inequality: True" in proc.stdout


def test_build_toy_presentation(tmp_path):
    out = tmp_path / "p.json"
    proc = run_script("build_toy_presentation.py", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()


def test_diff_toy_queries(tmp_path):
    proc = run_script("diff_toy_queries.py", "--workloads", "toy-eq", "--seeds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 270  # 54 blocks of 5 queries at --seconds 20
    for record in records:
        assert (record["workload"], record["seed"]) == ("toy-eq", 1)
        assert record["argv"][0] == "eq"
        assert "<work>/presentation.json" in record["argv"]
        assert record["code"] in (0, 1)
        assert json.loads(record["stdout"])["outcome"] in ("yes", "no")
    assert_golden(records, "toy-eq-1")


def test_diff_toy_nf_queries(tmp_path):
    proc = run_script("diff_toy_queries.py", "--workloads", "toy-nf", "--seeds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 24
    for record in records:
        assert (record["workload"], record["seed"]) == ("toy-nf", 1)
        assert record["argv"][0] == "nf"
        assert record["code"] in (0, 1, 2)
    assert_golden(records, "toy-nf-1")


def test_diff_toy_conj_queries(tmp_path):
    proc = run_script(
        "diff_toy_queries.py", "--workloads", "toy-conj", "--seeds", "1", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 40
    for record in records:
        assert (record["workload"], record["seed"]) == ("toy-conj", 1)
        assert record["argv"][0] == "conj"
        assert "--witness" in record["argv"]
        assert record["code"] in (0, 1, 2)
    assert_golden(records, "toy-conj-1")


def test_diff_theorem_diagram_queries(tmp_path):
    proc = run_script(
        "diff_toy_queries.py", "--workloads", "theorem-diagram", "--seeds", "1", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 9  # 3 blocks of one query on each of 3 discs at --seconds 20
    conditions = set()
    for record in records:
        assert (record["workload"], record["seed"]) == ("theorem-diagram", 1)
        assert record["argv"][0] == "check-diagram"
        assert "<work>/presentation.json" in record["argv"]
        assert record["code"] == 0
        assert json.loads(record["stdout"])["validation"]["ok"]
        conditions.add(record["argv"][-1])
    assert conditions == {"B", "X", "main-lemma"}
    assert_golden(records, "theorem-diagram-1")


def test_diff_length3_queries(tmp_path):
    proc = run_script("diff_toy_queries.py", "--workloads", "length3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 930  # 5 queries on each of the 186 words of length 1-3
    words = {record["argv"][1] for record in records}
    assert len(words) == 186
    kinds = Counter()
    for record in records:
        assert (record["workload"], record["seed"]) == ("length3", None)
        assert "<work>/presentation.json" in record["argv"]
        assert record["code"] in (0, 1, 2)
        argv = record["argv"]
        if argv[0] != "nf":
            assert argv[2] == "x2 x1"
        kinds[argv[0], argv[argv.index("--engine") + 1] if "--engine" in argv else None] += 1
    assert kinds == {
        ("nf", None): 186,
        ("eq", "diagram"): 186,
        ("eq", "both"): 186,
        ("eq", "rewrite"): 186,
        ("conj", None): 186,
    }
    assert_golden(records, "length3")


def test_diff_enum_queries(tmp_path):
    proc = run_script("diff_toy_queries.py", "--workloads", "enum", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(record["argv"][0], record["code"]) for record in records] == [
        *[("enum-words", 0)] * 4,
        ("gen", 0),
        ("gen", 2),  # the second step runs out of --max-states 50
        ("gen", 0),
    ]
    for record in records:
        assert (record["workload"], record["seed"]) == ("enum", None)
    for record, n in zip(records, (1, 2, 3, 63)):
        out = json.loads(record["stdout"])
        assert out["n"] == n
        assert len(out["words"]) == 3000
        assert out["words"][:2] == ["", "x1"]
    relators = [json.loads(record["stdout"])["presentation"]["relators"] for record in records[4:]]
    assert [[rel["w"] for rel in rels] for rels in relators] == [["x2 x1"]] * 3
    assert_golden(records, "enum")


def test_diff_disc_queries(tmp_path):
    proc = run_script("diff_toy_queries.py", "--workloads", "discs", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 244  # 4 queries on each of 30 discs, 30 mirrors and one sphere
    kinds = Counter()
    for record in records:
        assert (record["workload"], record["seed"]) == ("discs", None)
        argv = record["argv"]
        assert argv[0] == "check-diagram"
        assert "<work>/presentation.json" in argv
        condition = argv[argv.index("--condition") + 1] if "--condition" in argv else None
        kinds[condition, record["code"]] += 1
        assert json.loads(record["stdout"])["validation"]["ok"]
    # the toy faces fail condition B's length bound, which the main lemma requires
    assert kinds == {(None, 0): 61, ("B", 1): 61, ("X", 0): 61, ("main-lemma", 1): 61}
    assert len({record["argv"][1] for record in records}) == 61
    assert_golden(records, "discs")
