"""Merge the decided verdicts of finished runs into perfbench/verdicts.json.

    python3 perfbench/record_verdicts.py

Every untraced run writes its decided verdicts (yes, no, ok, fail) to
perfbench/_work/verdicts/<workload>-seed<n>.json.  This script folds them
into verdicts.json, keyed by workload and query, and lists the seeds they
came from.  run.py then counts a query as failed when its decided verdict
differs from the recorded one; a query that used to exceed its budget and
is now decided is not a failure.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "_work" / "verdicts"
TARGET = HERE / "verdicts.json"


def main() -> int:
    data = json.loads(TARGET.read_text()) if TARGET.is_file() else {"seeds": {}, "verdicts": {}}
    conflicts = []
    for path in sorted(SOURCE.glob("*-seed*.json")):
        workload, seed = re.fullmatch(r"(.+)-seed(\d+)", path.stem).groups()
        known = data["verdicts"].setdefault(workload, {})
        for key, verdict in json.loads(path.read_text()).items():
            if known.setdefault(key, verdict) != verdict:
                conflicts.append(f"{workload} {key}: {known[key]} vs {verdict} (seed {seed})")
        seeds = set(data["seeds"].get(workload, [])) | {int(seed)}
        data["seeds"][workload] = sorted(seeds)
    if conflicts:
        print("\n".join(conflicts))
        return 1
    for workload in data["verdicts"]:
        data["verdicts"][workload] = dict(sorted(data["verdicts"][workload].items()))
    TARGET.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print({w: len(v) for w, v in data["verdicts"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
