from functools import lru_cache

import pytest

from delzant.corpus import load
from delzant.prepared import Prepared


@lru_cache(maxsize=None)
def _prepare(name: str) -> Prepared:
    return Prepared(load(name)).require_delzant()


@pytest.fixture(scope="session")
def prepare():
    """Session-cached loader: name -> the corpus member's Delzant ``Prepared``."""
    return _prepare
