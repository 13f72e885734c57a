"""Re-run the survey behind toy-nf's query classes and rewrite nf_work.json.

    python3 perfbench/survey_nf.py   # about 15 minutes on a 2-core Xeon

Answers `nf` for every non-regular reduced word of length <= 4 over 3
letters with toy-nf's budget, counting the `_canon_cyclic` calls each query
makes (one per child the filling search generates).  Rewriting the table
changes toy-nf's query classes, so do it only in a change that redefines
the benchmark.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

import freegroup as fg
import spans
import workloads as wl


def main() -> int:
    cli = wl.load_cli()
    workload = wl.WORKLOADS["toy-nf"]
    letters = [(i, s) for i in (1, 2, 3) for s in (1, -1)]
    words = [
        w for length in range(1, 5) for w in itertools.product(letters, repeat=length)
        if fg.reduce(w) == w and not fg.is_regular(w)
    ]
    counts = {}
    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        _, out, _ = wl.call_cli(cli, ["gen", *workload.instance, "--count", "1"])
        pres = Path(tmp) / "presentation.json"
        pres.write_text(json.dumps(json.loads(out)["presentation"]))
        tracer.install()
        try:
            for g in words:
                before = tracer.calls["decision.kernel.canon"]
                wl.call_cli(cli, ["nf", fg.text(g), "--presentation", str(pres), *workload.budget])
                counts[fg.text(g)] = tracer.calls["decision.kernel.canon"] - before
                print(fg.text(g), counts[fg.text(g)], flush=True)
        finally:
            tracer.uninstall()
    wl.NF_WORK.write_text(json.dumps({"canon_calls": counts}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
