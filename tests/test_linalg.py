"""Dense linear algebra helpers: kron_all, partial trace, expm, kernels."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat import (
    DimensionLimitError,
    HermiticityError,
    herm_expm,
    kron_all,
    trace_distance,
)
from spinheat.linalg import (
    check_dense_dim,
    components,
    hermitize,
    svd_kernel,
)
from dense_reference import blocks_of, dense_expm, op_at, sparsity, whole
from test_ri import partial_trace  # test-side reference, kept next to JointEngine

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identity_blocks():
    a = np.arange(4, dtype=complex).reshape(2, 2)
    out = kron_all([np.eye(2), a])
    assert np.array_equal(out[:2, :2], a)
    assert np.array_equal(out[2:, 2:], a)
    assert np.all(out[:2, 2:] == 0)


def test_kron_zz():
    assert np.array_equal(kron_all([SZ, SZ]), np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_factorizes_on_product_vectors():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    y = rng.normal(size=2) + 1j * rng.normal(size=2)
    lhs = kron_all([a, b]) @ np.kron(x, y)
    rhs = np.kron(a @ x, b @ y)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_kron_all_matches_chained():
    rng = np.random.default_rng(4)
    for count in range(1, 5):
        for dims in itertools.product(range(1, 5), repeat=count):
            mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
            expected = mats[0]
            for m in mats[1:]:
                expected = np.kron(expected, m)
            assert np.array_equal(kron_all(mats), expected), dims


def test_kron_all_checks_the_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DimensionLimitError):
            kron_all([np.eye(2)] * 13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_kron_all_needs_a_factor():
    with pytest.raises(ValueError):
        kron_all([])


def test_single_factor_products_are_fresh_arrays():
    # an in-place update of the result must not write into the caller's factor
    a = np.arange(9, dtype=complex).reshape(3, 3)
    for out in (kron_all([a]), op_at(a, 0, [3])):
        assert out is not a
        out += 1.0
        assert np.array_equal(a, np.arange(9, dtype=complex).reshape(3, 3))


def test_partial_trace_separable():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a + a.conj().T
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = b + b.conj().T
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, (2, 3), [0]), np.trace(b) * a, atol=1e-12)
    assert np.allclose(partial_trace(rho, (2, 3), [1]), np.trace(a) * b, atol=1e-12)


def test_partial_trace_bell_state_is_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, (2, 2), [0]), np.eye(2) / 2, atol=1e-14)
    assert np.allclose(partial_trace(rho, (2, 2), [1]), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_three_factors_index_oracle():
    # keep two of three slots, compare against an explicit index contraction
    rng = np.random.default_rng(6)
    d = 8
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    got = partial_trace(rho, (2, 2, 2), [0, 2])
    t = rho.reshape(2, 2, 2, 2, 2, 2)
    expected = np.einsum("ajbcjd->abcd", t).reshape(4, 4)
    assert np.allclose(got, expected, atol=1e-13)


def test_partial_trace_keep_all_and_none():
    rng = np.random.default_rng(7)
    rho = rng.normal(size=(4, 4)) + 0j
    assert np.allclose(partial_trace(rho, (2, 2), [0, 1]), rho)
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 2), [])


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 2), [0])


def test_herm_expm_zero_time():
    rng = np.random.default_rng(8)
    h = rng.normal(size=(4, 4))
    h = h + h.T
    assert np.allclose(herm_expm(h, 0.0), np.eye(4), atol=1e-14)


def test_herm_expm_pauli_x_rotation():
    # exp(-i (pi/2) sx) = -i sx
    u = herm_expm(SX, np.pi / 2)
    assert np.allclose(u, -1j * SX, atol=1e-13)


def test_herm_expm_unitary_and_group_property():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = h + h.conj().T
    u1 = herm_expm(h, 0.3)
    u2 = herm_expm(h, 0.7)
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(6))) < 1e-12
    assert np.allclose(u1 @ u2, herm_expm(h, 1.0), atol=1e-12)


def test_herm_expm_rejects_nonhermitian():
    with pytest.raises(HermiticityError):
        herm_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
def test_herm_expm_rejects_non_finite_entries(bad):
    # the bad entry sits in its own block, apart from a valid one
    h = np.diag([1.0, -1.0, 0.0]).astype(complex)
    h[2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        herm_expm(h, 1.0)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_herm_expm_rejects_non_square_input(shape):
    with pytest.raises(ValueError, match="square"):
        herm_expm(np.zeros(shape), 1.0)


@st.composite
def permuted_block_hermitians(draw):
    """A Hermitian matrix with random blocks (1 x 1 ones too), empty rows, permuted; with labels.

    Entries of two indices with different labels are zero.  A scale of 0
    gives the zero matrix.
    """
    size = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=size - 1))) if size > 1 else []
    empty = sorted(draw(st.sets(st.integers(0, size - 1), max_size=3)))
    scale = draw(st.sampled_from([0.0, 1.0, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = np.zeros((size, size), dtype=complex)
    labels = np.zeros(size, dtype=int)
    for label, (lo, hi) in enumerate(zip([0] + cuts, cuts + [size])):
        a = rng.normal(size=(hi - lo, hi - lo)) + 1j * rng.normal(size=(hi - lo, hi - lo))
        m[lo:hi, lo:hi] = scale * (a + a.conj().T) / 2
        labels[lo:hi] = label
    m[empty, :] = 0
    m[:, empty] = 0
    labels[empty] = -1 - np.arange(len(empty))  # each empty row is its own component
    perm = rng.permutation(size)
    return m[perm][:, perm], labels[perm], draw(st.floats(-3.0, 3.0))


@settings(max_examples=30, deadline=None)
@given(case=permuted_block_hermitians())
def test_herm_expm_runs_per_component(case):
    h, labels, t = case
    u = herm_expm(h, t)
    assert np.max(np.abs(u - dense_expm(h, t))) <= 1e-13
    assert np.all(u[labels[:, None] != labels[None, :]] == 0)
    assert np.max(np.abs(u @ u.conj().T - np.eye(len(h)))) <= 1e-13


def test_svd_kernel_zero_matrix():
    basis, _ = svd_kernel([whole(np.zeros((3, 3)))])
    assert basis.shape == (3, 3)
    assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-13)


def test_svd_kernel_rank_deficient_diagonal():
    basis, singulars = svd_kernel([whole(np.diag([1.0, 1.0, 1.0, 0.0]))])
    assert basis.shape == (4, 1)
    assert singulars.shape == (4,)
    v = basis[:, 0]
    assert abs(abs(v[3]) - 1.0) < 1e-13
    assert np.max(np.abs(v[:3])) < 1e-13


def test_svd_kernel_of_dependent_columns():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(5, 5))
    m[:, 2] = m[:, 0] + m[:, 1]  # columns dependent, so m^T has a kernel
    basis, _ = svd_kernel([whole(m.T)])
    assert basis.shape == (5, 1)
    assert np.max(np.abs(m.T @ basis)) < 1e-10


def test_svd_kernel_raises_on_full_rank():
    from spinheat import KernelError

    with pytest.raises(KernelError):
        svd_kernel([whole(np.eye(3))])


def test_components_of_a_one_way_pattern():
    # each edge is given in one direction only; a lone vertex is its own block
    m = np.zeros((5, 5), dtype=complex)
    m[1, 0] = 1j
    m[2, 3] = -2.0
    groups = components(*sparsity(m), 5)
    assert [g.tolist() for g in groups] == [[[4]], [[0, 1], [2, 3]]]


def test_svd_kernel_pools_block_singular_values():
    # the 1e-12 block is kernel against the largest singular value of the
    # whole matrix, though not against its own
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1e-12, 0.0], [1.0, 0.0, 1.0]])
    groups = components(*sparsity(m), 3)
    basis, singulars = svd_kernel([(idx, *np.linalg.svd(blocks_of(m, idx))[1:]) for idx in groups])
    full, full_singulars = svd_kernel([whole(m)])
    assert basis.shape == full.shape == (3, 2)
    assert np.allclose(singulars, full_singulars, atol=1e-15)
    assert np.allclose(basis @ basis.conj().T, full @ full.conj().T, atol=1e-13)


def test_trace_distance_basics():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(rho, rho)) < 1e-15
    assert abs(trace_distance(rho, sig) - 1.0) < 1e-13
    # symmetric
    assert np.isclose(trace_distance(rho, sig), trace_distance(sig, rho))


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(11)

    def random_state():
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        return rho / np.trace(rho)

    a, b, c = random_state(), random_state(), random_state()
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_hermitian_checks():
    fixed = hermitize(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(fixed, fixed.conj().T)
    assert np.isclose(fixed[0, 1], 1.0)


def test_dense_dim_guard():
    check_dense_dim(4096)
    with pytest.raises(DimensionLimitError):
        check_dense_dim(4097)
