"""The chain and what it rests on, on small shapes with ell up to 11.

Each shape is built by ``oracles.shape_params``.  Every
layer is compared with its oracle in ``tests/oracles.py``, and a whole
session runs once per bit.
"""

import pytest

from oracles import (SHAPES, affine_add, cyclic_subgroup, expand_kernel,
                     naive_chain, naive_evaluate, naive_order, reference_step,
                     shape_id, shape_params, walk_kernel)
from siot import SessionConfig, det_rng, run_local
from siot.errors import InvalidKernelError, InvalidPointError
from siot.field import Fp2
from siot.isogeny import evaluate, isogeny_chain, kernel_generator, velu_step

@pytest.fixture(scope="module", params=SHAPES, ids=shape_id)
def shape(request):
    return shape_params(request.param)


def test_chain_matches_naive_schedule(shape, velu_steps):
    """Each recorded step's domain, kernel and codomain, the chain's
    codomain and the pushed images of the walk equal a fresh scalar
    multiple per step, for r in {0, 1, n - 1, seeded}."""
    rng = det_rng(b"shape-chain")
    E = shape.curve
    for own, other in map(shape.sides, "AB"):
        G, H = own.basis
        ell, e, n = own.ell, own.e, own.n
        for r in (0, 1, n - 1, rng.randrange(n)):
            K = kernel_generator(E, G, r, H)
            velu_steps.clear()
            codomain, images = isogeny_chain(E, K, ell, e, other.basis)
            want = naive_chain(E, K, ell, e)
            assert len(velu_steps) == len(want)
            for (D, kernel, F), step in zip(velu_steps, want):
                assert (D, expand_kernel(D, kernel), F) \
                    == (step.domain, step.kernel_points, step.codomain)
            assert codomain == want[-1].codomain
            assert images == [naive_evaluate(want, P)
                              for P in other.basis]


def test_step_matches_the_oracle_step(shape):
    """A seeded K of order ell on each side, its kernel listed the way
    the walk lists it: ``velu_step`` equals the one-shot quotient, and
    ``evaluate`` equals the per-point translate on both bases, seeded
    points and the kernel's own points, which go to O."""
    rng = det_rng(b"shape-step")
    E = shape.curve
    for own in (shape.side_a, shape.side_b):
        G, H = own.basis
        ell, n = own.ell, own.n
        K = E.mul(n // ell, kernel_generator(E, G, rng.randrange(n), H))
        kernel = walk_kernel(E, K, ell)
        step = reference_step(E, K, ell)
        assert velu_step(E, kernel) == step.codomain
        pts = [*shape.side_a.basis, *shape.side_b.basis,
               *(E.random_point(rng) for _ in range(4))]
        for P in pts:
            assert evaluate(E, kernel, P) == naive_evaluate(step, P)
        for Q in step.kernel_points:
            assert evaluate(E, kernel, Q).infinity


def test_chain_inverts_once_per_step(shape, counter):
    """One batched inversion per step, pushed points included: the
    kernel points [2]K, ..., [ell//2]K of ell >= 5 join that batch."""
    calls = counter(Fp2, "inv")
    E = shape.curve
    for own, other in map(shape.sides, "AB"):
        G, H = own.basis
        K = kernel_generator(E, G, 1, H)
        calls[0] = 0
        isogeny_chain(E, K, own.ell, own.e, other.basis)
        assert calls[0] <= own.e


def _multiples(E, K, m):
    """[1]K, ..., [m-1]K by repeated chord-tangent addition."""
    out, R = [], K
    for _ in range(m - 1):
        out.append(R)
        R = affine_add(E, R, K)
    return tuple(out)


def test_subgroup_and_order_match_the_oracles(shape):
    """``cyclic_subgroup`` lists what repeated ``affine_add`` lists and
    rejects a wrong order either way; ``has_exact_order`` agrees with
    ``naive_order`` at every exponent."""
    E = shape.curve
    for own in (shape.side_a, shape.side_b):
        G, H = own.basis
        ell, e, n = own.ell, own.e, own.n
        for K in (G, H, E.mul(ell, G), E.mul(n // ell, H)):
            m = naive_order(E, K, n)
            assert cyclic_subgroup(E, K, m) == _multiples(E, K, m)
            with pytest.raises(InvalidKernelError,
                               match="divides .* improperly"):
                cyclic_subgroup(E, K, ell * m)
            with pytest.raises(InvalidKernelError,
                               match="does not have order"):
                cyclic_subgroup(E, K, m // ell)
            for f in range(1, e + 1):
                if ell ** f % m:
                    with pytest.raises(InvalidPointError):
                        E.has_exact_order(K, ell, f)
                else:
                    assert E.has_exact_order(K, ell, f) == (ell ** f == m)


@pytest.mark.parametrize("b", [0, 1])
def test_session_delivers_the_chosen_input(shape, b):
    out = run_local(SessionConfig(shape, seed=b"shape-session", b=b,
                                  x0=b"zero", x1=b"one"))
    assert out["output"] == (b"zero", b"one")[b]
    assert out["sender_j"][b] == out["receiver_j"]
