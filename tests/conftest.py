"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture(params=[1, 2], ids=["inline", "pool"])
def cpus(request, monkeypatch):
    """Runs the test with one usable CPU (every map inline) and with two (a
    map of two or more items in forked worker processes). A test may ask
    for other counts with `@pytest.mark.parametrize("cpus", [...], indirect=True)`."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param
