"""Shared pytest plumbing.

``--update-goldens`` regenerates every committed golden trace instead of
asserting against it (the golden-update policy is in DESIGN §8: update
only alongside the schema or model change that motivated it, and review
the diff).

Every ``@given`` test runs under one hypothesis profile without a
per-example deadline: examples build meshes and run exchanges whose host
time varies with machine load, and a wall-clock limit would make the
correctness suite flaky.
"""

import pytest
from hypothesis import settings

settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite committed golden trace files from the current code "
        "instead of asserting byte-equality against them",
    )


@pytest.fixture
def update_goldens(request):
    return request.config.getoption("--update-goldens")
