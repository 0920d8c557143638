import os

import pytest

from pezzo.store import Store

# the CLI's --cache-dir defaults to PEZZO_CACHE_DIR: a user's setting must not
# point the suite's commands at their cache; a test that needs it sets it
os.environ.pop("PEZZO_CACHE_DIR", None)


@pytest.fixture(scope="session")
def store():
    """Shared in-memory store with the bundled fixtures loaded."""
    return Store(cache_dir=None)


@pytest.fixture(scope="session")
def bare_store():
    """Store without fixtures, for empty-store behaviour."""
    return Store(cache_dir=None, load_fixtures=False)


class ExplodingStore(Store):
    """Store that fails on any access; proves a code path needs no data."""

    def __init__(self):
        super().__init__(cache_dir=None, load_fixtures=False)

    def get_or_compute(self, key):
        raise AssertionError(f"unexpected store access: {key}")

    def lookup(self, key):
        raise AssertionError(f"unexpected store access: {key}")


@pytest.fixture
def exploding_store():
    return ExplodingStore()
