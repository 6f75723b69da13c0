import threading

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
def p102():
    """2^51*3^32 - 1: 51- and 32-step walks."""
    return gen_params(2, 51, 3, 32, rng=det_rng(b"tests/p102"))


@pytest.fixture(scope="session")
def p434():
    """2^216*3^137 - 1, the SIKE-sized prime."""
    return gen_params(2, 216, 3, 137, rng=det_rng(b"tests/p434"))


@pytest.fixture(scope="session")
def set71():
    """2^71*3^38*f - 1: n_A = 2^71 is past 2^64, and past the 2^63 - 1
    elements a population of ``random.sample`` may hold."""
    return gen_params(2, 71, 3, 38, rng=det_rng(b"big"))


@pytest.fixture(scope="session")
def set3():
    """Twin of p431 with the roles swapped: side A on the 3-power tower."""
    return gen_params(3, 3, 2, 4, rng=det_rng(b"tests/set3"))


@pytest.fixture
def velu_steps(monkeypatch):
    """The steps ``isogeny_chain`` takes during the test, in order, each
    as (domain, kernel, codomain) with the kernel list ``velu_step``
    takes."""
    steps = []

    def record(E, kernel):
        steps.append((E, tuple(kernel), velu_step(E, kernel)))
        return steps[-1][2]
    monkeypatch.setattr(siot.isogeny, "velu_step", record)
    return steps


@pytest.fixture
def counter(monkeypatch):
    """counter(owner, name) wraps owner.name for the test and returns a
    one-item list holding its call count."""
    def install(owner, name):
        calls = [0]
        lock = threading.Lock()   # an online pair counts from two threads
        orig = getattr(owner, name)

        def counted(*args, **kwargs):
            with lock:
                calls[0] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls
    return install
