"""Fixtures shared across the test packages."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.cache import ResultCache
from tests.support import output_digests


@pytest.fixture(scope="session")
def quick_run(tmp_path_factory):
    """``quick_run(id)`` -> ``(output, digests)`` of the session's one
    quick-mode run of an experiment id: two jobs, through one result
    cache shared by every id.

    The golden test and the serial/parallel parity test read the same
    run, so the suite runs each id once.  The digests are taken as the
    run returns, before any test reads the output.
    """
    cache = ResultCache(tmp_path_factory.mktemp("quick") / "cache")
    runs = {}

    def get(name):
        if name not in runs:
            out = run_experiment(name, quick=True, jobs=2, cache=cache)
            runs[name] = out, output_digests(out)
        return runs[name]
    return get
