"""The witnesses of the open ROADMAP items, as data: every row of
tests/data/witnesses.json not marked slow ends exactly as its `now`
records, so a change that moves a witness shows here and records the new
outcome in the file.  scripts/witnesses.py runs every row, the slow ones
too, and defines the outcome read here."""

import importlib.util
import json
from pathlib import Path

import pytest

from mustab.jobs import run_job

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("witnesses", ROOT / "scripts" / "witnesses.py")
witnesses = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(witnesses)
ROWS = json.loads(witnesses.ROWS.read_text())


def test_rows_are_complete_and_named_once():
    assert len({row["id"] for row in ROWS}) == len(ROWS)
    for row in ROWS:
        assert {"id", "item", "job", "now", "target"} <= set(row), row["id"]
        assert set(row["now"]) <= {"exit", "error", "failing"}, row["id"]


@pytest.mark.parametrize("row", [row for row in ROWS if not row.get("slow")], ids=lambda row: row["id"])
def test_witness_ends_as_recorded(row):
    assert witnesses.outcome(*run_job(row["job"])) == row["now"]
