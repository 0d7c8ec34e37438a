"""Shared fixtures: the paper's examples and a few schema families.

Also registers the ``slow`` marker: long-running stress tests carry
``@pytest.mark.slow`` and a quick pass deselects them with
``-m "not slow"`` (``make test-fast``)."""

from __future__ import annotations

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running stress tests (deselect with -m \"not slow\")",
    )

from repro.workloads.paper import (
    example1,
    example2,
    example2_extended,
    example3,
    intro_university,
)
from repro.workloads.schemas import chain_schema, star_schema, triangle_schema


@pytest.fixture
def ex1():
    return example1()


@pytest.fixture
def ex2():
    return example2()


@pytest.fixture
def ex2_extended():
    return example2_extended()


@pytest.fixture
def ex3():
    return example3()


@pytest.fixture
def intro():
    return intro_university()


@pytest.fixture
def chain5():
    return chain_schema(5)


@pytest.fixture
def star4():
    return star_schema(4)


@pytest.fixture
def triangle2():
    return triangle_schema(2)


@pytest.fixture
def no_io_backoff(monkeypatch):
    """A failed shard WAL or snapshot write retries without sleeping."""
    from repro.weak.sharded import ShardedWeakInstanceService

    monkeypatch.setattr(ShardedWeakInstanceService, "IO_BACKOFF", 0.0)


@pytest.fixture
def one_io_retry(no_io_backoff, monkeypatch):
    """A persistent I/O error quarantines its shard after one immediate
    retry (what the failover tests wait on)."""
    from repro.weak.sharded import ShardedWeakInstanceService

    monkeypatch.setattr(ShardedWeakInstanceService, "IO_RETRIES", 1)
