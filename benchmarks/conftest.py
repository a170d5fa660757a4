"""Shared benchmark fixtures: cached campus and mall worlds."""

from __future__ import annotations

import pytest

from repro.bench.scenarios import bench_mall, bench_tippers


@pytest.fixture(scope="session")
def campus_mysql():
    return bench_tippers("mysql")


@pytest.fixture(scope="session")
def campus_postgres():
    return bench_tippers("postgres")


@pytest.fixture(scope="session")
def mall_postgres():
    return bench_mall("postgres")
