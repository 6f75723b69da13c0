"""The chain and what it rests on, on small shapes with ell up to 11.

Each shape is built by ``oracles.shape_params``.  Every
layer is compared with its oracle in ``tests/oracles.py``, and a whole
session runs once per bit.  The walk is also held to the naive schedule
on p431, p2591, set3 and p102, and to its cost model on p431, p2591 and
p102.
"""

import pytest

import siot.curve
import siot.isogeny
from oracles import (SHAPES, cyclic_subgroup, expand_kernel, naive_chain,
                     naive_evaluate, naive_order, reference_step, shape_id,
                     shape_params, velu_codomain, walk_counts, walk_kernel)
from siot import SessionConfig, det_rng, run_local
from siot.errors import InvalidKernelError, InvalidPointError
from siot.curve import INFINITY
from siot.field import Fp2
from siot.isogeny import _translate, evaluate, isogeny_chain, kernel_generator

@pytest.fixture(scope="module", params=SHAPES, ids=shape_id)
def shape(request):
    return shape_params(request.param)


def _named(shape) -> str:
    return shape if type(shape) is str else shape_id(shape)


@pytest.mark.parametrize("shape", [*SHAPES, "p431", "p2591", "set3", "p102"],
                         ids=_named)
def test_chain_matches_naive_schedule(shape, request, velu_steps):
    """The balanced traversal quotients out the same point at every step
    as a fresh scalar multiple would, on every shape and on p431, p2591,
    set3 and p102: each recorded step's domain, kernel and codomain, the
    chain's codomain and the image of the other side's basis are all
    identical, for r in {0, 1, n - 1, seeded}."""
    if type(shape) is str:
        params = request.getfixturevalue(shape)
        rng = det_rng(b"naive-chain/" + shape.encode())
    else:
        params, rng = shape_params(shape), det_rng(b"shape-chain")
    E = params.curve
    for own, other in map(params.sides, "AB"):
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
        assert velu_codomain(E, kernel) == step.codomain
        pts = [*shape.side_a.basis, *shape.side_b.basis,
               *(E.random_point(rng) for _ in range(4))]
        for P in pts:
            assert evaluate(E, kernel, P) == naive_evaluate(step, P)
        for Q in step.kernel_points:
            assert evaluate(E, kernel, Q) == INFINITY


def _rescaled(T, z: Fp2):
    """The Jacobian triple (X*z^2, Y*z^3, Z*z) of the same point."""
    (xa, xb), (ya, yb), (za, zb) = T
    ctx = z.ctx
    X, Y, Z = (Fp2(ctx, xa, xb) * z * z, Fp2(ctx, ya, yb) * z * z * z,
               Fp2(ctx, za, zb) * z)
    return (X.a, X.b), (Y.a, Y.b), (Z.a, Z.b)


def test_translate_takes_jacobian_inputs(shape):
    """The walk hands ``_translate`` kernel points and points whose Z is
    not 1.  Rescaled by random nonzero Z, with O (as (z^2, z^3, 0)),
    every kernel point and repeats among the points, it returns the same
    affine kernel and images as at Z = 1, and those images equal the
    per-point translate."""
    rng = det_rng(b"shape-jacobian")
    E, ctx = shape.curve, shape.curve.ctx

    def nonzero():
        while True:
            z = Fp2(ctx, rng.randrange(ctx.p), rng.randrange(ctx.p))
            if z:
                return z
    for own in (shape.side_a, shape.side_b):
        G, H = own.basis
        ell, n = own.ell, own.n
        K = E.mul(n // ell, kernel_generator(E, G, rng.randrange(n), H))
        kernel = walk_kernel(E, K, ell)
        step = reference_step(E, K, ell)
        pts = [*shape.side_a.basis, *shape.side_b.basis,
               *(E.random_point(rng) for _ in range(3)),
               *step.kernel_points, INFINITY]
        pts += [pts[0], pts[-2], pts[3]]
        want = _translate(ctx, kernel, pts)
        assert want[0] == list(kernel)
        assert want[1] == [naive_evaluate(step, P) for P in pts]
        for _ in range(3):
            got = _translate(
                ctx, [_rescaled(Q, nonzero()) for Q in kernel],
                [_rescaled(P, nonzero()) for P in pts])
            assert got == want


@pytest.mark.parametrize("shape", [*SHAPES, "p431", "p2591", "p102"],
                         ids=_named)
def test_chain_inverts_once_per_step(shape, request, counter):
    """One batched inversion per step, pushed points included: the
    kernel points [2]K, ..., [ell//2]K of ell >= 5 join that batch.  A
    chain's doublings, triplings, Velu steps and inversions depend on its
    shape alone, and equal ``oracles.walk_counts`` on both sides of every
    shape and of p431, p2591 and p102, pushing nothing and pushing the
    other side's basis."""
    params = request.getfixturevalue(shape) if isinstance(shape, str) \
        else shape_params(shape)
    names = ("jac_double", "jac_triple", "velu_step", "inv")
    calls = [counter(siot.curve, "jac_double"),
             counter(siot.curve, "jac_triple"),
             counter(siot.isogeny, "velu_step"), counter(Fp2, "inv")]
    for own, other in map(params.sides, "AB"):
        G, H = own.basis
        K = kernel_generator(params.curve, G, own.n // 3 + 1, H)
        for push in ((), other.basis):
            for c in calls:
                c[0] = 0
            isogeny_chain(params.curve, K, own.ell, own.e, push)
            assert dict(zip(names, (c[0] for c in calls))) \
                == walk_counts(own.ell, own.e, len(push))


def test_subgroup_and_order_match_the_oracles(shape):
    """``cyclic_subgroup``, by repeated chord-tangent addition, lists
    the package's multiples [1]K, ..., [m-1]K (``E.mul``) and rejects a
    wrong order either way; ``has_exact_order`` agrees with
    ``naive_order`` at every exponent."""
    E = shape.curve
    for own in (shape.side_a, shape.side_b):
        G, H = own.basis
        ell, e, n = own.ell, own.e, own.n
        for K in (G, H, E.mul(ell, G), E.mul(n // ell, H)):
            m = naive_order(E, K, n)
            assert cyclic_subgroup(E, K, m) \
                == tuple(E.mul(i, K) for i in range(1, m))
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
