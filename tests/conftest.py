import os
from pathlib import Path

import pytest

import blowup
from blowup.norms import make_norm_table
from blowup.scenarios import default_exponents
from blowup.timemap import make_profile


@pytest.fixture(scope="session")
def profile3():
    return make_profile(3.0)


@pytest.fixture(scope="session")
def profile2():
    return make_profile(2.0)


@pytest.fixture(scope="session")
def table3():
    q1, q2, r1, r2 = default_exponents(3.0)
    return make_norm_table(3.0, q1, q2, r1, r2)


@pytest.fixture(scope="session")
def child_env():
    """Environment for child interpreters, which must import this tree's package."""
    src = str(Path(blowup.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
