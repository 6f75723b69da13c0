import pytest

import siot.isogeny
from siot import det_rng, gen_params, preset
from siot.isogeny import velu_step


@pytest.fixture(scope="session")
def p431():
    return preset("p431")


@pytest.fixture(scope="session")
def p2591():
    return preset("p2591")


@pytest.fixture(scope="session")
def set3():
    """Twin of p431 with the roles swapped: side A on the 3-power tower."""
    return gen_params(3, 3, 2, 4, rng=det_rng(b"tests/set3"))


@pytest.fixture
def velu_steps(monkeypatch):
    """The steps ``isogeny_chain`` takes during the test, in order."""
    steps = []

    def record(*args):
        steps.append(velu_step(*args))
        return steps[-1]
    monkeypatch.setattr(siot.isogeny, "velu_step", record)
    return steps
