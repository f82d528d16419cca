"""Shared fixtures: one on-disk table cache for the whole session.

Critical-point tables up to n=4000 are reused by several modules; building
each once and letting the disk cache serve repeats keeps the suite fast.
"""

import pytest

from annealed_ising import log_g_table


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("gtables"))


@pytest.fixture(scope="session")
def get_table(cache_dir):
    """Memoized (d, n, beta) -> log_g_table(...), backed by the session cache."""
    memo = {}

    def get(d, n, beta):
        key = (d, n, float(beta))
        if key not in memo:
            memo[key] = log_g_table(d, n, float(beta), cache_dir=cache_dir)
        return memo[key]

    return get
