"""Fixtures shared by every test module."""

import pytest

import chromaladder.ladder as ladder_module


@pytest.fixture(autouse=True)
def fresh_dp_graphs():
    """Start each test with no compiled DP graph, so that no test inherits
    another's graph solve counts or kernels (``ladder._compile`` keeps graphs
    for the whole process)."""
    ladder_module._compile.cache_clear()
    yield
