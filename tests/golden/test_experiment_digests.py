"""Golden digests: every experiment id's quick-mode output, pinned.

``experiments.json`` holds two sha256 digests per registered id, one of
``run_experiment(id, quick=True).text`` and one of ``.data`` (hashed by
:func:`tests.support.value_digest`).  They are the output contract: a
change that alters any table, figure or data value fails here, whatever
knob or data path produced it.  The ``HEAVY`` ids run only under
``REPRO_PARITY_FULL=1``.

After an intended output change, rerecord (all 21 ids, about a minute)::

    PYTHONPATH=src python -m tests.golden.test_experiment_digests
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import experiment_ids, run_experiment
from tests.support import HEAVY, PARITY_FULL, value_digest

GOLDEN = Path(__file__).with_name("experiments.json")


def digests(name):
    """The ``{"text", "data"}`` sha256 pair of one experiment id."""
    out = run_experiment(name, quick=True, jobs=1, cache=False)
    return {"text": hashlib.sha256(out.text.encode()).hexdigest(),
            "data": value_digest(out.data)}


def test_every_experiment_has_a_golden():
    assert sorted(json.loads(GOLDEN.read_text())) == experiment_ids()


@pytest.mark.parametrize("name", experiment_ids())
def test_experiment_matches_golden(name):
    if name in HEAVY and not PARITY_FULL:
        pytest.skip("heavy experiment; set REPRO_PARITY_FULL=1 to run")
    assert digests(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    golden = {name: digests(name) for name in experiment_ids()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")
