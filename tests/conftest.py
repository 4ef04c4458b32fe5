"""Shared fixtures."""

import pytest

import wbext


@pytest.fixture
def fresh_caches():
    """Every wbext cache empty when the test starts, and again when it ends,
    whether it passed or not, so what it built or patched reaches no other
    test."""
    wbext.clear_caches()
    yield
    wbext.clear_caches()
