"""Golden digests and paper claims: every experiment id's quick-mode
output, pinned and checked.

``experiments.json`` holds two sha256 digests per registered id, one of
``run_experiment(id, quick=True).text`` and one of ``.data`` (hashed by
:func:`tests.support.value_digest`).  They are the output contract: a
change that alters any table, figure or data value fails here, whatever
knob produced it.  The same run checks the id's rows of the
paper-claims table (:mod:`tests.golden.claims`), so a claim costs no
simulation of its own.

The recorder (:func:`run`) is the reference: serial, no cache.  The
test reads each id's run from the session's ``quick_run`` fixture
(``tests/conftest.py``): two jobs through one result cache shared by
every id, so a sweep point that an earlier id already ran (Figs. 3 and 4
are rungs of the ``opt_steps`` ladder) is read back, not re-run.
Matching the serially recorded digests thus also proves that the worker
pool and the cache leave every output bit-identical; the parity test in
``tests/integration/test_parallel_cache.py`` reads the same run.

After an intended output change, rerecord (all 21 ids, serial)::

    PYTHONPATH=src python -m tests.golden.test_experiment_digests
"""

import json
from pathlib import Path

import pytest

from repro.analysis.experiments import experiment_ids, run_experiment
from tests.golden.claims import CLAIMS, Claim, _rows, approx, claims_for
from tests.support import output_digests

GOLDEN = Path(__file__).with_name("experiments.json")


def run(name):
    """One experiment id's quick-mode output, computed fresh."""
    return run_experiment(name, quick=True, jobs=1, cache=False)


def test_every_experiment_has_a_golden():
    assert sorted(json.loads(GOLDEN.read_text())) == experiment_ids()


def test_every_claim_reads_a_registered_experiment():
    ids = set(experiment_ids())
    for claim in CLAIMS.values():
        assert (claim.experiment is None) == (claim.extract is None), \
            claim.quantity
        assert claim.experiment is None or claim.experiment in ids, \
            claim.quantity


def test_claim_miss_names_the_row():
    claim = Claim("x.y", 2.0, None, None, approx(2.0, rel=0.1))
    assert claim.miss(2.1) is None
    assert claim.miss([1.9, 2.1]) is None
    assert claim.miss(2.5).startswith("x.y = 2.5, needs ≈ 2.0 (rel 0.1)")
    with pytest.raises(AssertionError, match=r"x\.y = \[2\.0, 3\.0\]"):
        claim.check([2.0, 3.0])


def test_duplicate_claim_quantity_rejected():
    name, claim = next(iter(CLAIMS.items()))
    with pytest.raises(ValueError, match="duplicate claim quantity"):
        _rows(claim.experiment,
              (name.split(".", 1)[1], None, claim.extract, claim.bound),
              prefix=name.split(".", 1)[0])
    assert CLAIMS[name] is claim


@pytest.mark.parametrize("name", experiment_ids())
def test_experiment_matches_golden(name, quick_run):
    out, got = quick_run(name)
    misses = [m for c in claims_for(name)
              if (m := c.miss(c.extract(out.data)))]
    assert not misses, "paper claims missed:\n" + "\n".join(misses)
    assert got == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    golden = {name: output_digests(run(name)) for name in experiment_ids()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")
