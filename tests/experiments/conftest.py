"""One experiment cache for the whole test session.

Experiments are deterministic and the tests only read their results,
so each registered experiment runs at most once per session no matter
how many test modules ask for it.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment


@pytest.fixture(scope="session")
def results():
    """``results(name)``: experiment ``name``'s result, run once."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_experiment(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def all_results(results):
    """Every registered experiment's result, keyed by name."""
    return {name: results(name) for name in sorted(EXPERIMENTS)}
