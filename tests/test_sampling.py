"""Samplers: distribution sanity, determinism, and invariant preservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon.sampling import (
    haar_unitary,
    random_mixed,
    random_mixed_stack,
    random_product_pure,
    random_product_pure_stack,
    random_pure,
    random_pure_stack,
    random_separable,
)
from entmon.states import Dims, partial_transpose, projector_stack


def test_haar_unitary_is_unitary():
    u = haar_unitary(4, np.random.default_rng(0))
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_random_pure_unit_norm():
    psi = random_pure(Dims(2, 3), np.random.default_rng(1))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_random_mixed_rank():
    rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(2))
    ev = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(ev > 1e-10) == 2


def test_random_separable_is_ppt():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = random_separable(Dims(2, 2), 4, rng)
        assert np.linalg.eigvalsh(partial_transpose(rho, "A"))[0] >= -1e-9


def test_fixed_seed_is_bit_identical():
    a = random_pure(Dims(2, 2), np.random.default_rng(42))
    b = random_pure(Dims(2, 2), np.random.default_rng(42))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    ma = random_mixed(Dims(2, 2), 3, np.random.default_rng(42))
    mb = random_mixed(Dims(2, 2), 3, np.random.default_rng(42))
    assert np.array_equal(ma.matrix, mb.matrix)


def test_samplers_hold_invariants_over_many_draws():
    # Type invariants are enforced at construction, so surviving the
    # constructor is the check; 10k consecutive draws must all pass.
    rng = np.random.default_rng(2024)
    dims = Dims(2, 3)
    for i in range(10_000):
        if i % 3 == 0:
            random_pure(dims, rng)
        elif i % 3 == 1:
            random_mixed(dims, 1 + i % 6, rng)
        else:
            random_separable(dims, 1 + i % 4, rng)


def test_product_pure_reduction_is_pure():
    psi = random_product_pure(Dims(2, 2), np.random.default_rng(9))
    from entmon.states import partial_trace

    red = partial_trace(psi.density(), "A")
    assert red.is_pure()


# The stack samplers must return, bit for bit, what n successive per-state
# draws on the same generator return, and leave it in the same state.  The
# per-state draws are those of the public samplers and of the references
# below, which draw and build one state at a time (per-state Ginibre
# matrices, one norm per vector, np.kron for products).
STACK_DIMS = st.sampled_from([(2, 2), (2, 3), (3, 3)])
STACK_SEEDS = st.integers(0, 2**32 - 1)


def _reference_pure(dims, rng):
    v = (rng.standard_normal((dims.total, 1)) + 1j * rng.standard_normal((dims.total, 1)))[:, 0]
    return v / np.linalg.norm(v)


def _reference_projector(dims, rng):
    v = _reference_pure(dims, rng)
    return np.outer(v, v.conj())


def _reference_mixed(dims, rank, rng):
    n = dims.total
    rank = n if rank is None else rank
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m


def _reference_product(dims, rng):
    amps = np.ones(1, dtype=complex)
    for d in dims.factors:
        v = (rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1)))[:, 0]
        amps = np.kron(amps, v / np.linalg.norm(v))
    return amps


def _same_stream(stack_draw, per_state_draws, seed, n):
    r_stack = np.random.default_rng(seed)
    stack = stack_draw(r_stack, n)
    for draw in per_state_draws:
        r_loop = np.random.default_rng(seed)
        loop = np.stack([draw(r_loop) for _ in range(n)])
        assert stack.shape == loop.shape
        assert np.array_equal(stack, loop)
        assert r_stack.bit_generator.state == r_loop.bit_generator.state


class TestStackSamplersMatchPerStateDraws:
    @settings(max_examples=60, deadline=None)
    @given(seed=STACK_SEEDS, dims=STACK_DIMS, n=st.integers(1, 8))
    def test_pure(self, seed, dims, n):
        dims = Dims(*dims)
        _same_stream(lambda r, k: random_pure_stack(dims, k, r),
                     [lambda r: random_pure(dims, r).amplitudes,
                      lambda r: _reference_pure(dims, r)], seed, n)
        _same_stream(lambda r, k: projector_stack(random_pure_stack(dims, k, r)),
                     [lambda r: random_pure(dims, r).density().matrix,
                      lambda r: _reference_projector(dims, r)], seed, n)

    @settings(max_examples=60, deadline=None)
    @given(seed=STACK_SEEDS, dims=STACK_DIMS, n=st.integers(1, 8), data=st.data())
    def test_mixed(self, seed, dims, n, data):
        dims = Dims(*dims)
        rank = data.draw(st.sampled_from([None] + list(range(1, dims.total + 1))))
        _same_stream(lambda r, k: random_mixed_stack(dims, rank, k, r),
                     [lambda r: random_mixed(dims, rank, r).matrix,
                      lambda r: _reference_mixed(dims, rank, r)], seed, n)

    @settings(max_examples=60, deadline=None)
    @given(seed=STACK_SEEDS, dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]),
           n=st.integers(1, 8))
    def test_product(self, seed, dims, n):
        dims = Dims(*dims)
        _same_stream(lambda r, k: random_product_pure_stack(dims, k, r),
                     [lambda r: random_product_pure(dims, r).amplitudes,
                      lambda r: _reference_product(dims, r)], seed, n)

    def test_mixed_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            random_mixed_stack(Dims(2, 2), 5, 3, np.random.default_rng(0))


@pytest.mark.parametrize("n_cols", [1, 2, 3, 4, 6, 8, 9, 16, 27])
def test_unit_rows_divide_by_each_rows_own_norm(n_cols):
    # The stacked row norms are the ones np.linalg.norm takes row by row,
    # bit for bit, on stacks as large as a strict sweep's 100 states and
    # larger.
    from entmon.sampling import _unit_rows

    z = np.random.default_rng(n_cols).standard_normal((300, 2, n_cols))
    v = z[:, 0] + 1j * z[:, 1]
    reference = np.stack([row / np.linalg.norm(row) for row in v])
    assert np.array_equal(_unit_rows(z), reference)
