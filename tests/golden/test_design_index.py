"""Docs sync: DESIGN.md's experiment index lists exactly the registered
experiment ids, and names the claim rows of each id that has any."""

import pathlib
import re

from repro.analysis.experiments import experiment_ids
from tests.golden.claims import claims_for

DOC = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"
SECTION = "## 3. Experiment index"


def index_rows():
    """``(id, last cell)`` for each table row of DESIGN.md §3."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split(SECTION, 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        match = re.match(r"\| `(\w+)` \|", line)
        if match:
            rows.append((match.group(1), line.rstrip(" |").rsplit("|", 1)[1]))
    return rows


def test_index_lists_exactly_the_registered_ids():
    assert sorted(name for name, _ in index_rows()) == experiment_ids()


def test_index_names_each_ids_claim_rows():
    for name, checked_in in index_rows():
        named = f"`{name}.*`" in checked_in
        assert named == bool(claims_for(name)), (
            f"DESIGN.md §3 row {name!r}: the last column should name "
            f"`{name}.*` exactly when tests/golden/claims.py has rows "
            f"for it")
