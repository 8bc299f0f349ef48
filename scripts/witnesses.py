#!/usr/bin/env python3
"""Run the witness jobs of the open ROADMAP items and print how each ends.

Usage:
    python scripts/witnesses.py [ID ...]

tests/data/witnesses.json holds one row per witness: its id, the ROADMAP
item that owns it, the job, `now` (the outcome the code gives today: the
exit code, plus the failing checks with their witness text or the error
class) and `target` (the outcome the item wants).  Every row runs, the
ones marked slow too, or only the rows named; each prints as one line:
id, item, now, target and seconds, with "CHANGED" where the outcome is not
the recorded `now`.  The exit code is 1 when some row changed, else 0.  A
change that moves a row records the new `now` in the file.  The package is
imported from the src/ next to this script.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mustab.jobs import run_job  # noqa: E402

ROWS = ROOT / "tests" / "data" / "witnesses.json"


def outcome(report: dict, code: int) -> dict:
    """A row's `now`: the exit code, the class of the first error if any,
    and each failing check with its witness text."""
    now: dict = {"exit": code}
    if report["errors"]:
        now["error"] = report["errors"][0]["type"]
    failing = {name: report["witnesses"].get(name, "") for name, v in report["checks"].items() if v == "fail"}
    if failing:
        now["failing"] = failing
    return now


def main(argv: list[str]) -> int:
    rows = json.loads(ROWS.read_text())
    if argv:
        rows = [row for row in rows if row["id"] in argv]
    changed = 0
    for row in rows:
        start = time.perf_counter()
        now = outcome(*run_job(row["job"]))
        seconds = time.perf_counter() - start
        mark = "" if now == row["now"] else "  CHANGED"
        changed += bool(mark)
        print(f"{row['id']}  item {row['item']}  now {json.dumps(now)}  target {row['target']}  {seconds:.2f}s{mark}", flush=True)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
