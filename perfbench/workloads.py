"""Workload definitions and set-up: the presentation, the input files and
the seeded query plan of one run.

Every workload is a list of blocks.  A block has a fixed composition by
query class, so that runs with different seeds do the same mix of work;
the seed only draws the words (or offsets) inside each class.  A run does
`blocks_for(seconds)` blocks, sized from the block time measured when the
benchmark was defined, so the amount of work is fixed by `--seconds` and
is identical on two commits that are compared.

Run as a script, this module is the set-up probe: a fresh interpreter that
prepares one run's inputs and prints `ready` when the first query could
start.  run.py times it to get `setup_s`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import freegroup as fg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TOY = ("--n", "3", "--lambda1", "1/15", "--N", "2")
THEOREM = ("--n", "63", "--lambda1", "1/315", "--N", "315")


@dataclass(frozen=True)
class Workload:
    name: str
    instance: tuple  # flags of `filebasis gen`
    budget: tuple  # flags appended to every query
    blocks: tuple  # query classes of each block; a run cycles through them
    block_seconds: float  # one block's wall time at the defining commit, 2-core Xeon
    setup_repeats: int  # fresh-interpreter set-ups timed per run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy-nf",
            instance=TOY,
            budget=("--max-states", "1500", "--max-len", "40"),
            blocks=tuple(
                ("regular",) * 2 + ("light",) * 7 + ("medium", f"heavy-{half}", f"heaviest-{half}")
                for half in ("lo", "hi")
            ),
            block_seconds=11.2,
            setup_repeats=5,
        ),
        Workload(
            name="toy-eq",
            instance=TOY,
            budget=("--max-states", "3000", "--max-len", "40"),
            blocks=(("planted",) * 3 + ("obstructed",) * 2,),
            block_seconds=0.37,
            setup_repeats=5,
        ),
        Workload(
            name="toy-conj",
            instance=TOY,
            budget=("--max-states", "100", "--max-len", "30"),
            blocks=(("rotation-long", "rotation-zero", "shuffle") * 2 + ("random",) * 4,),
            block_seconds=5.0,
            setup_repeats=5,
        ),
        Workload(
            name="theorem-diagram",
            instance=THEOREM,
            budget=(),
            blocks=(("disc",) * 3,),  # one query on each disc; see _theorem_blocks
            block_seconds=7.8,
            setup_repeats=3,
        ),
    )
}

# theorem-diagram: the face cycle of an offset disc starts `d` letters before
# the relator's first letter, so face matching tries d rotations before it
# hits.  d is drawn in a narrow window around each anchor, so every seed
# does about the same work while the matcher's cost still shows.  The
# anchors are far enough apart (about 1 s of matching) that the three discs
# do not overlap in time, so the run's median is a query on the middle disc.
OFFSET_ANCHORS = (2000, 4000)
OFFSET_JITTER = 100
CONDITIONS = ("B", "X", "main-lemma")


def blocks_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.block_seconds))


# ---------------------------------------------------------------------------
# the program under test


def load_cli():
    """Import filebasis.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "filebasis" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from filebasis import cli

    if Path(cli.__file__).resolve().parent != SRC / "filebasis":
        raise SystemExit(f"benchmark: filebasis imported from {cli.__file__}, not {SRC}")
    return cli


def call_cli(cli, argv) -> tuple:
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# query classes


NF_WORK = Path(__file__).resolve().parent / "nf_work.json"


def _nf_classes() -> dict:
    """Nonempty reduced words of length <= 4 over 3 letters, by the work nf
    does on them.

    nf_work.json holds, for every non-regular such word, the number of
    `_canon_cyclic` calls (children generated by the filling search) that
    nf made at the commit that defined the benchmark (survey_nf.py).  The
    counts fall into four separate groups; the two heaviest are split at
    their median, so that a run draws one word from each half.
    """
    work = json.loads(NF_WORK.read_text())["canon_calls"]
    regular = []
    groups: dict = {"light": [], "medium": [], "heavy": [], "heaviest": []}
    letters = [(i, s) for i in (1, 2, 3) for s in (1, -1)]
    for length in range(1, 5):
        for word in itertools.product(letters, repeat=length):
            if fg.reduce(word) != word:
                continue
            if fg.is_regular(word):
                regular.append(word)
                continue
            calls = work[fg.text(word)]
            group = ("light" if calls < 3000 else "medium" if calls < 20000
                     else "heavy" if calls < 110000 else "heaviest")
            groups[group].append((calls, word))
    classes = {"regular": regular}
    for group, members in groups.items():
        if group in ("light", "medium"):
            classes[group] = [w for _, w in members]
        else:
            members.sort()
            half = len(members) // 2
            classes[f"{group}-lo"] = [w for _, w in members[:half]]
            classes[f"{group}-hi"] = [w for _, w in members[half:]]
    return classes


def _random_cyclic(rng, length: int, n: int) -> tuple:
    while True:
        w = fg.random_reduced(rng, length, n)
        if fg.cyclic_reduce(w) == w:
            return w


def _obstructed_pair(rng, lattice, lo, hi, cyclic=False) -> tuple:
    """Two random words whose abelian images differ modulo the relator lattice."""
    draw = _random_cyclic if cyclic else fg.random_reduced
    while True:
        u = draw(rng, rng.randint(lo, hi), 3)
        v = draw(rng, rng.randint(lo, hi), 3)
        diff = [a - b for a, b in zip(fg.abelian(u, 3), fg.abelian(v, 3))]
        if not fg.in_lattice(diff, lattice):
            return u, v


def _query(command: str, cls: str, words: tuple, expect: str | None) -> dict:
    return {"command": command, "class": cls, "words": [fg.text(w) for w in words], "expect": expect}


def _nf_word(cls):
    def draw(rng, toy):
        g = rng.choice(toy["nf_classes"][cls])
        # a regular word of length <= 4 is its own normal form: any other
        # regular word whose abelian image lies in the same lattice coset has
        # at least 9 letters
        return _query("nf", cls, (g,), "nf-self" if cls == "regular" else None)

    return draw


def _eq_planted(rng, toy):
    u = fg.random_reduced(rng, rng.randint(0, 8), 3)
    a = fg.random_reduced(rng, rng.randint(0, 2), 3)
    return _query("eq", "planted", (u, fg.reduce(u + a + toy["r1"] + fg.inverse(a))), "yes")


def _eq_obstructed(rng, toy):
    # both words have 8 letters: the rewrite engine's work grows with length,
    # and equal lengths keep the slow end of the run steady
    return _query("eq", "obstructed", _obstructed_pair(rng, toy["lattice"], 8, 8), "not-yes")


def _conj_rotation(cls):
    def draw(rng, toy):
        r1 = toy["r1"]
        while True:
            # u is not a square: conjugators of a square x^2 can be shortened
            # by powers of x, and the search would find one
            u = _random_cyclic(rng, 2, 3)
            w = fg.reduce(u + r1)
            if u[0] != u[1] and len(w) == len(u) + len(r1) and fg.cyclic_reduce(w) == w:
                break
        if cls == "rotation-zero":
            v = w
        else:
            # start inside r1, so every conjugator has at least 4 letters
            j = rng.randint(len(u) + 4, len(w) - 4)
            v = w[j:] + w[:j]
        return _query("conj", cls, (u, v), "not-no")

    return draw


def _conj_shuffle(rng, toy):
    # a letter shuffle keeps the abelian image; free conjugates are skipped,
    # since the free-group fast path answers them before any search
    while True:
        u = _random_cyclic(rng, 4, 3)
        v = list(u)
        rng.shuffle(v)
        v = tuple(v)
        if fg.reduce(v) == v and not fg.is_rotation(u, fg.cyclic_reduce(v)):
            return _query("conj", "shuffle", (u, v), None)


def _conj_random(rng, toy):
    return _query("conj", "random", _obstructed_pair(rng, toy["lattice"], 2, 4, cyclic=True), "not-yes")


DRAW = {
    **{
        cls: _nf_word(cls)
        for cls in ("regular", "light", "medium", "heavy-lo", "heavy-hi", "heaviest-lo", "heaviest-hi")
    },
    "planted": _eq_planted,
    "obstructed": _eq_obstructed,
    "rotation-long": _conj_rotation("rotation-long"),
    "rotation-zero": _conj_rotation("rotation-zero"),
    "shuffle": _conj_shuffle,
    "random": _conj_random,
}


def _theorem_blocks(nblocks: int, rng, discs: list) -> list:
    """Latin-square blocks: over any three consecutive blocks every disc meets
    every condition once."""
    blocks = []
    for b in range(nblocks):
        if b % 3 == 0:
            shifts = [0, 1, 2]
            rng.shuffle(shifts)
        shift = shifts[b % 3]
        block = []
        for i, disc in enumerate(discs):
            cond = CONDITIONS[(i + shift) % 3]
            block.append(
                {
                    "command": "check-diagram",
                    "class": f"{disc['name']}/{cond}",
                    "disc": disc["file"],
                    "condition": cond,
                    "rotation": disc["rotation"],
                    "expect": "ok",
                }
            )
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _label(letter) -> str:
    return f"x{letter[0]}" if letter[1] > 0 else f"x{letter[0]}^-1"


def disc_dict(relator: tuple, d: int) -> dict:
    """One-face disc whose face reads the relator; the face cycle starts d
    letters before the relator's first letter."""
    k = len(relator)
    darts = []
    for j, letter in enumerate(relator):
        darts.append(
            {"id": f"d{j}+", "inv": f"d{j}-", "from": f"v{j}", "to": f"v{(j + 1) % k}", "label": _label(letter)}
        )
        darts.append(
            {"id": f"d{j}-", "inv": f"d{j}+", "from": f"v{(j + 1) % k}", "to": f"v{j}",
             "label": _label((letter[0], -letter[1]))}
        )
    cycle = [f"d{j}+" for j in range(k)]
    cycle = cycle[k - d :] + cycle[: k - d] if d else cycle
    return {
        "vertices": [f"v{j}" for j in range(k)],
        "darts": darts,
        "faces": [{"id": "f0", "cycle": cycle}],
        "contours": [[f"d{j}-" for j in reversed(range(k))]],
    }


# ---------------------------------------------------------------------------
# set-up


def prepare(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Generate the presentation with the CLI, write the input files and the
    query plan into workdir, and return the plan."""
    cli = load_cli()
    workdir.mkdir(parents=True, exist_ok=True)
    code, out, err = call_cli(cli, ["gen", *workload.instance, "--count", "1"])
    if code != 0:
        raise RuntimeError(f"gen exited {code}: {err.strip()}")
    presentation = json.loads(out)["presentation"]
    pres_file = workdir / "presentation.json"
    pres_file.write_text(json.dumps(presentation))
    relators = [fg.parse(item["r"]) for item in presentation["relators"]]
    n = presentation["n"]
    lattice = [fg.abelian(r, n) for r in relators]

    rng = random.Random(f"{workload.name}:{seed}")
    nblocks = blocks_for(workload, seconds)
    if workload.name == "theorem-diagram":
        discs = [{"name": "as-built", "rotation": 0}]
        for anchor in OFFSET_ANCHORS:
            d = anchor + rng.randint(-OFFSET_JITTER, OFFSET_JITTER)
            discs.append({"name": f"offset-{anchor}", "rotation": d})
        for disc in discs:
            disc["file"] = str(workdir / f"{disc['name']}.json")
            Path(disc["file"]).write_text(
                json.dumps(disc_dict(relators[0], disc["rotation"]), separators=(",", ":"))
            )
        blocks = _theorem_blocks(nblocks, rng, discs)
    else:
        toy = {"r1": relators[0], "lattice": lattice}
        if workload.name == "toy-nf":
            toy["nf_classes"] = _nf_classes()
        blocks = []
        for b in range(nblocks):
            block = [DRAW[cls](rng, toy) for cls in workload.blocks[b % len(workload.blocks)]]
            rng.shuffle(block)
            blocks.append(block)
    plan = {
        "workload": workload.name,
        "seed": seed,
        "presentation": str(pres_file),
        "presentation_data": presentation,
        "blocks": blocks,
    }
    (workdir / "plan.json").write_text(json.dumps(plan))
    return plan


def argv_of(workload: Workload, plan: dict, query: dict) -> list:
    pres = ["--presentation", plan["presentation"]]
    command = query["command"]
    if command == "check-diagram":
        return [command, query["disc"], *pres, "--condition", query["condition"]]
    flags = {"eq": ["--engine", "both", "--witness"], "conj": ["--witness"], "nf": []}[command]
    return [command, *query["words"], *pres, *flags, *workload.budget]


def query_key(query: dict) -> str:
    """Identifies a query across runs and seeds, for the recorded verdicts."""
    if query["command"] == "check-diagram":
        return f"check-diagram {query['condition']} rotation={query['rotation']}"
    return " | ".join([query["command"], *query["words"]])


def main() -> int:
    parser = argparse.ArgumentParser(description="Set-up probe: prepare one run's inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    prepare(WORKLOADS[args.workload], args.seed, args.seconds, Path(args.dir))
    # CLOCK_MONOTONIC is shared by all processes, so the parent can subtract
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
