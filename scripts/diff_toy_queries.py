"""Answer the benchmark's query plans and print every answer, one JSON line
per query, so that two checkouts can be compared byte for byte.

    python3 scripts/diff_toy_queries.py > new.jsonl
    python3 scripts/diff_toy_queries.py --workloads toy-eq --seeds 1
    python3 scripts/diff_toy_queries.py --workloads theorem-diagram --seeds 1009

Each line holds the workload, the seed, the argv (with the plan's work
directory written as <work>), the exit code and the stdout of one query.
The plans are those of `perfbench/workloads.py` at `--seconds` (20 by
default); the queries run in-process through `cli.main` of the checkout
this script sits in.  Run the script in two checkouts and compare the two
files with `cmp`.

By default the three toy workloads run: 3340 queries over seeds 1-10.
`--workloads theorem-diagram` runs the check-diagram queries on the
39,755-edge theorem-scale disc, 9 a seed at `--seconds 20`; it is not in
the default set because its set-up writes 22 MB of disc files a seed.

`--workloads length3` is not a benchmark workload: it asks, of each of
the 186 nonempty reduced words w of length <= 3 on the toy instance,
`nf w`, `eq w "x2 x1" --witness` under each of the three engines and
`conj w "x2 x1" --witness`, with the budgets of toy-nf, toy-eq and
toy-conj: 930 queries, the same for every seed, so they run once and
their records carry seed null.  It is the one identity check that runs
the rewriting engine.

`--workloads enum` is not a benchmark workload either: it runs every
consumer of the deg-lex enumeration, `enum-words --count 3000` for
n = 1, 2, 3 and 63, toy `gen --count 1`, toy `gen --count 2` under small
budgets, and theorem-scale `gen --count 1`: 7 queries, seed null.

`--workloads discs` is not a benchmark workload either: it runs
`check-diagram` with no condition and with `--condition B`, `X` and
`main-lemma` on toy diagrams written through `diagram_to_dict`: 30 discs
of 1 to 6 faces from `random_diagram` under `random.Random(7)`, their 30
`mirror_copy`s, and `sphere_double` of the toy relator r1.  That is 244
queries, seed null; the diagrams are built by the checkout's own diagram
module.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import freegroup as fg  # noqa: E402
import workloads as wl  # noqa: E402

TOY = ("toy-nf", "toy-eq", "toy-conj")
UNSEEDED = ("length3", "enum", "discs")
LENGTH3_PARTNER = "x2 x1"
DISC_SEED, DISC_COUNT = 7, 30
ENUM_QUERIES = [
    *(["enum-words", "--n", str(n), "--count", "3000"] for n in (1, 2, 3, 63)),
    ["gen", *wl.TOY, "--count", "1"],
    ["gen", *wl.TOY, "--count", "2", "--max-edges", "40", "--max-len", "25", "--max-states", "50"],
    ["gen", *wl.THEOREM, "--count", "1"],
]


def _length3_queries(pres_file: str) -> list:
    """argv of the length3 set, word by word in length-then-letter order."""
    budget = {name: wl.WORKLOADS[f"toy-{name}"].budget for name in ("nf", "eq", "conj")}
    pres = ["--presentation", pres_file]
    letters = [(i, s) for i in (1, 2, 3) for s in (1, -1)]
    queries = []
    for length in (1, 2, 3):
        for word in itertools.product(letters, repeat=length):
            if fg.reduce(word) != word:
                continue
            w = fg.text(word)
            queries.append(["nf", w, *pres, *budget["nf"]])
            for engine in ("diagram", "both", "rewrite"):
                queries.append(
                    ["eq", w, LENGTH3_PARTNER, *pres, "--engine", engine, "--witness", *budget["eq"]]
                )
            queries.append(["conj", w, LENGTH3_PARTNER, *pres, "--witness", *budget["conj"]])
    return queries


def _disc_queries(pres_file: str, workdir: str) -> list:
    """argv of the discs set, diagram by diagram, four conditions each."""
    wl.load_cli()  # imports filebasis from this checkout's src/, or exits
    from filebasis import diagram as dg
    from filebasis.construction import Presentation

    relators = Presentation.from_dict(json.loads(Path(pres_file).read_text())).relator_words()
    rng = random.Random(DISC_SEED)
    corpus = [dg.random_diagram(relators, rng.randrange(1, 7), rng) for _ in range(DISC_COUNT)]
    queries = []
    for k, d in enumerate([*corpus, *map(dg.mirror_copy, corpus), dg.sphere_double(relators[0])]):
        path = Path(workdir) / f"diagram{k}.json"
        path.write_text(json.dumps(dg.diagram_to_dict(d)))
        argv = ["check-diagram", str(path), "--presentation", pres_file]
        queries += [argv, *([*argv, "--condition", c] for c in ("B", "X", "main-lemma"))]
    return queries


def _plan_queries(name: str, seed: int | None, seconds: float, workdir: str) -> list:
    if name == "enum":
        return ENUM_QUERIES
    if name in ("length3", "discs"):
        code, out, err = wl.call_cli(wl.load_cli(), ["gen", *wl.TOY, "--count", "1"])
        if code != 0:
            raise RuntimeError(f"gen exited {code}: {err.strip()}")
        pres_file = Path(workdir) / "presentation.json"
        pres_file.write_text(json.dumps(json.loads(out)["presentation"]))
        if name == "discs":
            return _disc_queries(str(pres_file), workdir)
        return _length3_queries(str(pres_file))
    workload = wl.WORKLOADS[name]
    plan = wl.prepare(workload, seed, seconds, Path(workdir))
    return [wl.argv_of(workload, plan, query) for block in plan["blocks"] for query in block]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", nargs="+", choices=[*TOY, "theorem-diagram", *UNSEEDED], default=list(TOY)
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    cli = wl.load_cli()
    for name in args.workloads:
        for seed in [None] if name in UNSEEDED else args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                for argv in _plan_queries(name, seed, args.seconds, workdir):
                    code, out, _ = wl.call_cli(cli, argv)
                    record = {
                        "workload": name,
                        "seed": seed,
                        "argv": [arg.replace(workdir, "<work>") for arg in argv],
                        "code": code,
                        "stdout": out,
                    }
                    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
