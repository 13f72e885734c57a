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
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as wl  # noqa: E402

TOY = ("toy-nf", "toy-eq", "toy-conj")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", nargs="+", choices=[*TOY, "theorem-diagram"], default=list(TOY)
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    cli = wl.load_cli()
    for name in args.workloads:
        workload = wl.WORKLOADS[name]
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                plan = wl.prepare(workload, seed, args.seconds, Path(workdir))
                for block in plan["blocks"]:
                    for query in block:
                        argv = wl.argv_of(workload, plan, query)
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
