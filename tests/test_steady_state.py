"""Steady-state extraction: unique kernels, degenerate kernels, block solves."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import fields, replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinheat import (
    BathSpec,
    ChainSpec,
    CollisionEngine,
    KernelError,
    Liouvillian,
    RIConfig,
    SteadyState,
    build_hamiltonian,
    build_liouvillian,
    jump_ops,
    ri_fixed_point,
    solve_steady,
    steady_for,
    unvec,
    vec,
)
from spinheat import lindblad, steady_state
from spinheat.lindblad import KEPT_PATTERNS
from spinheat.linalg import components, svd_kernel
from spinheat.steady_state import HERMITICITY_BOUND, _Plan
from dense_reference import (
    blocks_of,
    dense,
    from_dense,
    from_jumps_reference,
    lindblad_action,
    liouvillian_matrix,
    mp_steady_state,
    sparsity,
    whole,
)

ROOT = Path(__file__).resolve().parents[1]

SPIN_PAIR = [
    BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
    BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8),
]
BOSON_PAIR = [
    BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
    BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3),
]


def svd_reference(liou):
    """Full-SVD kernel and its projection of the maximally mixed state."""
    basis, _ = svd_kernel([whole(dense(liou))])
    w = basis @ (basis.conj().T @ vec(np.eye(liou.dim) / liou.dim))
    rho = unvec(w, liou.dim)
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real, basis.shape[1]


def dense_path(spec, baths):
    """The solve on the nonzero entries of the dense reference generator."""
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    return solve_steady(from_dense(liouvillian_matrix(h, jumps), spec.dim))


def same_path(state, ref):
    assert (state.solver, state.nullspace_dim, state.largest_block) == \
        (ref.solver, ref.nullspace_dim, ref.largest_block)


def check_state(spec, baths, state):
    rho = state.rho
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert state.min_eig >= -1e-9
    assert np.max(np.abs(lindblad_action(spec, baths, rho))) < 1e-9


def test_single_driven_qubit():
    # one spin against one bath relaxes to diag((1+f)/2, (1-f)/2); realized
    # here as a 2-site chain with the right coupling switched off
    f = 0.37
    spec = ChainSpec(kind="xxz", n=2)
    baths = [BathSpec(side="L", f=f, gamma=1.0), BathSpec(side="R", f=0.0, gamma=0.0)]
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou)
    left = np.einsum("ijkj->ik", state.rho.reshape(2, 2, 2, 2))
    assert np.allclose(left, np.diag([(1 + f) / 2, (1 - f) / 2]), atol=1e-10)


def test_xxz_unique_steady_state():
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5, delta=0.2, h=0.1)
    state = steady_for(spec, SPIN_PAIR)
    assert state.nullspace_dim == 1
    assert state.solver == "bordered"
    check_state(spec, SPIN_PAIR, state)


def test_ising_bosonic_two_sites_maximally_mixed():
    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    state = steady_for(spec, BOSON_PAIR)
    assert state.nullspace_dim == 1
    assert np.max(np.abs(state.rho - np.eye(4) / 4)) < 1e-10
    check_state(spec, BOSON_PAIR, state)


def test_near_singular_bordered_solve_is_refused_quietly():
    # couplings of 5e-247 leave an LU pivot that small: the probe solution
    # overflows the norm, which must refuse the bordered path without a
    # warning; the SVD then sees I, x_1, x_2 and x_1 x_2 all stationary
    tiny = 5.136413182632978e-247
    spec = ChainSpec(kind="ising", n=2, field=(0.0, tiny), bond_Delta=(tiny,))
    baths = [BathSpec(side="L", kind="bosonic", beta=1.0, omega=2.0, g=1.0),
             BathSpec(side="R", kind="bosonic", beta=1.0, omega=1.0, g=1.0)]
    state = steady_for(spec, baths)
    assert (state.solver, state.nullspace_dim) == ("svd", 4)
    assert np.max(np.abs(state.rho - np.eye(4) / 4)) < 1e-10


def test_ising_bosonic_three_sites_degenerate_kernel():
    # the middle spin is never flipped, so its polarization is conserved
    spec = ChainSpec(
        kind="ising", n=3, field=(0.4, 0.3, 0.7), bond_Delta=(0.9, 1.1), Delta13=0.6
    )
    state = steady_for(spec, BOSON_PAIR)
    assert state.nullspace_dim == 2
    assert state.solver == "bordered"
    check_state(spec, BOSON_PAIR, state)
    # canonical representative: flat within each middle-spin sector
    d = np.diag(state.rho).real
    up = [0, 1, 4, 5]  # basis states with the middle spin up
    down = [2, 3, 6, 7]
    assert np.max(np.abs(d[up] - d[up][0])) < 1e-10
    assert np.max(np.abs(d[down] - d[down][0])) < 1e-10
    assert np.max(np.abs(state.rho - np.diag(np.diag(state.rho)))) < 1e-10
    # the mix of the two sectors is the maximally mixed one
    assert np.max(np.abs(state.rho - np.eye(8) / 8)) < 1e-10


def test_degenerate_kernel_projects_the_mixed_state_across_unequal_sectors():
    # the populations of levels 0 and 1 relax to their mean, h dephases their
    # coherences, and level 2 stays put: the sectors' stationary states have
    # purities 1/2 and 1, so their solutions must be weighted by
    # 1 / ||x_c||^2 to project I / 3, which lies in the kernel, onto itself
    h = np.diag([0.0, 1.0, 0.0]).astype(complex)
    flip = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    state = solve_steady(Liouvillian.from_jumps(h, [flip]))
    assert (state.solver, state.nullspace_dim) == ("bordered", 2)
    assert np.max(np.abs(state.rho - np.eye(3) / 3)) < 1e-12


def test_ising_spin_two_sites_product_state():
    from spinheat import bath_f

    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    baths = [
        BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
        BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8),
    ]
    state = steady_for(spec, baths)
    assert state.nullspace_dim == 1
    f_l, f_r = bath_f(baths[0]), bath_f(baths[1])
    rho_l = np.diag([(1 + f_l) / 2, (1 - f_l) / 2])
    rho_r = np.diag([(1 + f_r) / 2, (1 - f_r) / 2])
    assert np.max(np.abs(state.rho - np.kron(rho_l, rho_r))) < 1e-10
    check_state(spec, baths, state)


def test_ising_spin_three_sites_product_with_free_middle():
    from spinheat import bath_f

    spec = ChainSpec(
        kind="ising", n=3, field=(0.4, 0.3, 0.7), bond_Delta=(0.9, 1.1), Delta13=0.6
    )
    state = steady_for(spec, SPIN_PAIR)
    assert state.nullspace_dim == 2
    assert state.solver == "bordered"
    f_l, f_r = bath_f(SPIN_PAIR[0]), bath_f(SPIN_PAIR[1])
    rho_l = np.diag([(1 + f_l) / 2, (1 - f_l) / 2])
    rho_r = np.diag([(1 + f_r) / 2, (1 - f_r) / 2])
    expected = np.kron(np.kron(rho_l, np.eye(2) / 2), rho_r)
    assert np.max(np.abs(state.rho - expected)) < 1e-10
    check_state(spec, SPIN_PAIR, state)


def degenerate_ising(n):
    return ChainSpec(kind="ising", n=n, field=(0.4, 0.3, 0.7, -0.5, 0.2)[:n],
                     bond_Delta=(0.9, 1.1, 0.6, -0.8)[:n - 1])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("baths", [SPIN_PAIR, BOSON_PAIR], ids=["spin", "bosonic"])
def test_degenerate_ising_kernel_takes_one_bordered_lu_per_sector(n, baths):
    # the n - 2 middle spins are never flipped: one stationary state per
    # middle configuration, represented by the projection of I / d
    spec = degenerate_ising(n)
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou)
    assert state.solver == "bordered"
    assert state.nullspace_dim == 2 ** (n - 2)
    # each middle configuration's populations form a block of their own
    assert state.largest_block <= 2 ** n
    check_state(spec, baths, state)
    if n <= 4:  # the full-SVD reference costs seconds beyond that
        rho, k = svd_reference(liou)
        assert k == state.nullspace_dim
        assert np.max(np.abs(state.rho - rho)) < 1e-12


def split(liou):
    """Components of the generator's entries, checked to hold every entry of it."""
    m = dense(liou)
    groups = components(liou.rows, liou.cols, m.shape[0])
    rebuilt = np.zeros_like(m)
    for idx in groups:
        rebuilt[idx[:, :, None], idx[:, None, :]] = blocks_of(m, idx)
    assert np.array_equal(rebuilt, m)
    return groups


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_splits_into_conserved_sectors(n):
    xxz = split(build_liouvillian(ChainSpec(kind="xxz", n=n, alpha=1.0, Delta=0.5, h=0.1),
                                  SPIN_PAIR))
    # magnetization difference of |i><j| runs over -n..n; sector q holds C(2n, n + q)
    assert sum(idx.shape[0] for idx in xxz) == 2 * n + 1
    assert max(idx.shape[1] for idx in xxz) == comb(2 * n, n)
    boson = split(build_liouvillian(degenerate_ising(n), BOSON_PAIR))
    assert [idx.shape for idx in boson] == [(4 ** (n - 1), 4)]
    spin = split(build_liouvillian(degenerate_ising(n), SPIN_PAIR))
    assert sum(idx.shape[0] for idx in spin) == 9 * 4 ** (n - 2)
    for groups in (xxz, boson, spin):
        every = np.sort(np.concatenate([idx.ravel() for idx in groups]))
        assert np.array_equal(every, np.arange(4 ** n))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 4),
    alpha=st.floats(0.3, 2.0),
    Delta=st.floats(-1.5, 1.5),
    h=st.floats(-1.0, 1.0),
    f_L=st.floats(-0.95, 0.95),
    f_R=st.floats(-0.95, 0.95),
    gamma_L=st.floats(0.2, 2.0),
    gamma_R=st.floats(0.2, 2.0),
)
def test_bordered_matches_svd_projection(n, alpha, Delta, h, f_L, f_R, gamma_L, gamma_R):
    spec = ChainSpec(kind="xxz", n=n, alpha=alpha, Delta=Delta, h=h)
    baths = [BathSpec(side="L", f=f_L, gamma=gamma_L), BathSpec(side="R", f=f_R, gamma=gamma_R)]
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou)
    assert state.solver == "bordered"
    assert state.nullspace_dim == 1
    same_path(state, dense_path(spec, baths))
    rho, k = svd_reference(liou)
    assert k == 1
    assert np.max(np.abs(state.rho - rho)) < 1e-12


def grid(lo, hi, step=0.05):
    return st.integers(round(lo / step), round(hi / step)).map(lambda k: k * step)


@st.composite
def driven_chains(draw):
    # Parameters sit on a grid: a chain tuned to within ~1e-5 of an exact
    # degeneracy has a singular value just above the kernel threshold, and the
    # full SVD of the whole generator then resolves the kernel only to about
    # eps * s_max / s_next, too coarse to referee the block solve at 1e-12.
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        spec = ChainSpec(kind="xxz", n=n, alpha=draw(grid(0.3, 2.0)),
                         Delta=draw(grid(-1.5, 1.5)), h=draw(grid(-1.0, 1.0)))
    else:
        spec = ChainSpec(kind="ising", n=n,
                         field=tuple(draw(grid(-1.0, 1.0)) for _ in range(n)),
                         bond_Delta=tuple(draw(grid(-1.5, 1.5)) for _ in range(n - 1)))
    if draw(st.booleans()):
        gammas = [draw(grid(0.2, 2.0)), draw(grid(0.2, 2.0))]
        off = draw(st.sampled_from([None, 0, 1]))  # one side may be switched off
        if off is not None:
            gammas[off] = 0.0
        baths = [BathSpec(side=side, f=draw(grid(-1.0, 1.0)), gamma=g)
                 for side, g in zip("LR", gammas)]
    else:
        baths = [BathSpec(side=side, kind="bosonic", beta=draw(grid(0.3, 3.0)),
                          omega=draw(grid(0.5, 2.0)), g=draw(grid(0.2, 0.6)))
                 for side in "LR"]
    return spec, baths


@settings(max_examples=40, deadline=None)
@given(chain=driven_chains())
def test_block_solve_matches_full_svd(chain):
    spec, baths = chain
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou)
    same_path(state, dense_path(spec, baths))
    rho, k = svd_reference(liou)
    assert state.nullspace_dim == k
    assert np.max(np.abs(state.rho - rho)) < 1e-12


@st.composite
def degenerate_chains(draw):
    # Ising chains whose n - 2 middle spins no bath flips, on a grid as in
    # driven_chains.  Fields are odd multiples of 0.05 and bonds nonzero
    # multiples of 0.1, so no site's field plus its bonds' can cancel: such a
    # cancellation leaves a coherence stationary as well, and the kernel
    # larger than one state per middle configuration.
    n = draw(st.integers(3, 4))
    field = st.integers(-10, 9).map(lambda k: (2 * k + 1) * 0.05)
    bond = grid(-1.5, 1.5, 0.1).filter(bool)
    spec = ChainSpec(kind="ising", n=n, field=tuple(draw(field) for _ in range(n)),
                     bond_Delta=tuple(draw(bond) for _ in range(n - 1)),
                     Delta13=draw(grid(-1.5, 1.5)) if n == 3 and draw(st.booleans()) else 0.0)
    if draw(st.booleans()):
        baths = [BathSpec(side=side, f=draw(grid(-0.95, 0.95)), gamma=draw(grid(0.2, 2.0)))
                 for side in "LR"]
    else:
        baths = [BathSpec(side=side, kind="bosonic", beta=draw(grid(0.3, 3.0)),
                          omega=draw(grid(0.5, 2.0)), g=draw(grid(0.2, 0.6)))
                 for side in "LR"]
    return spec, baths


@settings(max_examples=30, deadline=None)
@given(chain=degenerate_chains())
def test_degenerate_kernels_take_the_bordered_path(chain):
    spec, baths = chain
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou)
    assert (state.solver, state.nullspace_dim) == ("bordered", 2 ** (spec.n - 2))
    rho, k = svd_reference(liou)
    assert k == state.nullspace_dim
    assert np.max(np.abs(state.rho - rho)) < 1e-12


def real_basis(idx, flip):
    """The unitary ``T`` of each block ``idx[k]`` that is its own adjoint: ``x = T y`` with
    ``x_r = (a_r + i b_r) / sqrt 2`` and ``x_flip(r) = (a_r - i b_r) / sqrt 2`` for ``r < flip[r]``,
    where ``a_r`` sits at the place of ``r`` and ``b_r`` at that of ``flip[r]``."""
    count, size = idx.shape
    t = np.zeros((count, size, size), dtype=complex)
    for k, block in enumerate(idx):
        place = {r: p for p, r in enumerate(block)}
        for p, r in enumerate(block):
            m = place[flip[r]]
            if m == p:
                t[k, p, p] = 1.0
            elif r < flip[r]:
                t[k, p, p], t[k, p, m] = 1 / np.sqrt(2), 1j / np.sqrt(2)
            else:
                t[k, p, m], t[k, p, p] = 1 / np.sqrt(2), -1j / np.sqrt(2)
    return t


def assert_blocks_match(liou, ref, tol):
    """The builder's components and blocks against the dense reference's.

    The plan keeps one block of each adjoint pair; the other is its
    conjugate in the mirrored index order.  The stack of a block that is its
    own adjoint holds its real matrix ``T^dag b T``, up to rounding.
    """
    groups = components(liou.rows, liou.cols, ref.shape[0])
    assert [g.tolist() for g in groups] == \
        [g.tolist() for g in components(*sparsity(ref), ref.shape[0])]
    flip = np.arange(ref.shape[0]).reshape(liou.dim, -1).ravel(order="F")
    plan = _Plan(liou.dim, liou.rows, liou.cols)
    plan.gather(liou.values, plan.groups)
    for k, g in enumerate(plan.groups):
        expected = blocks_of(ref, g.idx)
        assert np.max(np.abs(plan.blocks(liou.values, k) - expected), initial=0.0) <= tol
        if not g.real:
            assert np.array_equal(g.stack, plan.blocks(liou.values, k))
            mirrors = blocks_of(ref, flip[g.idx[g.paired]])
            assert np.max(np.abs(g.stack[g.paired].conj() - mirrors), initial=0.0) <= tol
            continue
        assert np.array_equal(np.sort(flip[g.idx], axis=1), g.idx)  # each block its own adjoint
        t = real_basis(g.idx, flip)
        rotated = t.conj().transpose(0, 2, 1) @ expected @ t
        bound = tol + 1e-15 * max(1.0, float(np.abs(ref).max(initial=0.0)))
        assert g.stack.dtype == float
        assert np.max(np.abs(rotated.imag), initial=0.0) <= bound
        assert np.max(np.abs(g.stack - rotated.real), initial=0.0) <= bound


@st.composite
def integer_generators(draw):
    """Gaussian-integer h and jumps on random nonzero patterns, whose sums are exact."""
    d = draw(st.sampled_from([2, 4, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def integers(*shape):
        density = draw(st.sampled_from([0.1, 0.3, 1.0]))
        mask = rng.random(shape) < density
        return mask * (rng.integers(-3, 4, size=shape) + 1j * rng.integers(-3, 4, size=shape))

    h = integers(d, d)
    return h + h.conj().T, integers(draw(st.integers(0, 6)), d, d)


@settings(max_examples=40, deadline=None)
@given(generator=integer_generators())
def test_builder_blocks_equal_the_dense_reference_exactly(generator):
    h, stack = generator
    assert_blocks_match(Liouvillian.from_jumps(h, stack), liouvillian_matrix(h, stack), 0.0)


@settings(max_examples=40, deadline=None)
@given(chain=driven_chains())
def test_builder_blocks_match_the_dense_reference_on_chains(chain):
    spec, baths = chain
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    assert_blocks_match(build_liouvillian(spec, baths), liouvillian_matrix(h, jumps), 1e-15)


def assert_preserves_hermiticity(liou):
    """``|L[r, c] - conj L[flip r, flip c]|`` within the solver's bound, on the dense generator."""
    m = dense(liou)
    flip = np.arange(m.shape[0]).reshape(liou.dim, -1).ravel(order="F")  # |i><j| -> |j><i|
    assert np.max(np.abs(m - m[flip][:, flip].conj())) <= HERMITICITY_BOUND * np.max(np.abs(m))


@st.composite
def lindblad_generators(draw):
    """Random Hermitian h and up to 60 random sparse complex jumps, d = 2..16."""
    d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def sparse(*shape):
        mask = rng.random(shape) < draw(st.sampled_from([0.05, 0.2, 0.6, 1.0]))
        return mask * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    h = sparse(d, d)
    return h + h.conj().T, sparse(draw(st.integers(0, 60)), d, d)


@settings(max_examples=60, deadline=None)
@given(generator=lindblad_generators())
def test_builder_generators_preserve_hermiticity(generator):
    # every Lindblad generator maps rho^dag to L(rho)^dag, entry by entry up to
    # round-off; the solve relies on it and refuses a generator that does not
    liou = Liouvillian.from_jumps(*generator)
    assert_preserves_hermiticity(liou)
    try:
        solve_steady(liou)
    except KernelError:  # a random generator may have an ill-separated kernel
        pass


def assert_entry_layout(liou):
    """Entries sorted by row, then column, none of them zero, and ``apply`` is ``L v``."""
    n = liou.dim * liou.dim
    assert np.all(np.diff(liou.rows * n + liou.cols) > 0)
    assert np.all(liou.values != 0)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = dense(liou)
    scale = np.abs(m).sum(axis=1).max(initial=0.0) * np.abs(v).max()
    assert np.max(np.abs(liou.apply(v) - m @ v)) <= 1e-13 * max(scale, 1.0)


@settings(max_examples=40, deadline=None)
@given(generator=lindblad_generators())
def test_builder_entries_are_sorted_nonzero_and_apply_as_the_matrix(generator):
    assert_entry_layout(Liouvillian.from_jumps(*generator))


def test_entry_layout_with_empty_first_and_last_rows():
    rng = np.random.default_rng(11)
    m = (rng.random((9, 9)) < 0.4) * (rng.standard_normal((9, 9)) + 1j)
    m[[0, -1]] = 0.0
    liou = from_dense(m, 3)
    assert (liou.rows.min(), liou.rows.max()) == (1, 7)
    assert_entry_layout(liou)
    assert np.array_equal(dense(liou), m)


def test_collision_generator_preserves_hermiticity():
    engine = CollisionEngine(ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.5), SPIN_PAIR,
                             RIConfig(tau=0.05))
    assert_preserves_hermiticity(engine.generator)
    assert solve_steady(engine.generator).nullspace_dim == 1


def test_generator_that_breaks_hermiticity_is_refused():
    # |0><1| feeds |1><0| but not the other way round: no Lindblad generator
    # does that, and the two blocks of that adjoint pair are not conjugate
    m = np.zeros((4, 4))
    m[1, 1] = m[2, 2] = -1.0
    m[1, 2] = 0.5
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        solve_steady(from_dense(m, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_generator_with_a_non_finite_entry_is_refused(bad):
    liou = build_liouvillian(ChainSpec(kind="xxz", n=2, alpha=1.0), SPIN_PAIR)
    values = liou.values.copy()
    values[values.size // 2] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        solve_steady(Liouvillian(liou.rows, liou.cols, values, liou.dim))


def test_entry_without_mirror_below_the_bound_joins_the_blocks():
    # a decaying qubit plus |0><0| -> |1><0| at 1e-17, whose mirror entry is
    # absent: within the bound, it counts as a zero mirror, and its mirror edge
    # joins the graph, so the components stay closed under |i><j| -> |j><i|
    decay = np.array([[0, 1], [0, 0]], dtype=complex)
    m = dense(Liouvillian.from_jumps(np.diag([0.0, 1.0]).astype(complex), [decay]))
    m[1, 0] = 1e-17
    state = solve_steady(from_dense(m, 2))
    assert (state.solver, state.nullspace_dim, state.largest_block) == ("bordered", 1, 4)
    assert np.max(np.abs(state.rho - np.diag([1.0, 0.0]))) < 1e-12


@pytest.mark.parametrize("scale", [1e-16, 1e-12])
def test_a_chain_entry_without_mirror_is_lone_and_refused_above_the_bound(scale):
    # |1><0| feeds |0><0| at scale * max|L|, and its mirror |0><1| does not:
    # the plan marks the entry lone, and its defect is the entry itself
    liou = build_liouvillian(ChainSpec(kind="xxz", n=2, alpha=1.0), SPIN_PAIR)
    keys = liou.rows * liou.dim ** 2 + liou.cols
    assert not ({1, 4} & set(keys))  # entry (0, 1) and its mirror (0, 4) are absent
    at = np.searchsorted(keys, 1)
    added = Liouvillian(np.insert(liou.rows, at, 0), np.insert(liou.cols, at, 1),
                        np.insert(liou.values, at, scale * np.abs(liou.values).max()), liou.dim)
    assert int(_Plan(added.dim, added.rows, added.cols).lone.sum()) == 1
    if scale > HERMITICITY_BOUND:
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            solve_steady(added)
        return
    state = solve_steady(added)
    assert state.solver == "bordered"
    assert np.max(np.abs(state.rho - solve_steady(liou).rho)) < 1e-15


def lu_sizes(solve, liou):
    """``solve(liou)`` and the size and dtype kind of each matrix its LUs factored, sorted."""
    seen = []
    lu = np.linalg.solve

    def record(a, b):
        seen.extend([(a.shape[-1], a.dtype.kind)] * len(a))
        return lu(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", record)
        state = solve(liou)
    return state, sorted(seen)


XXZ5 = ChainSpec(kind="xxz", n=5, alpha=1.1, h=0.0, bond_Delta=(0.3, -0.8, 1.1, 0.5))


@pytest.mark.parametrize("chain, factored", [
    # faithful: one real LU, of the q = 0 sector, which holds every |i><i|;
    # the sectors q = 1..5 miss a column and the sectors -q are their adjoints
    ((XXZ5, SPIN_PAIR), [(252, "f")]),
    # both baths pump the all-up state, min_eig 0: not faithful, so every
    # sector is factored, one complex LU of each adjoint pair
    ((XXZ5, [BathSpec(side="L", f=1.0), BathSpec(side="R", f=1.0)]),
     [(1, "c"), (10, "c"), (45, "c"), (120, "c"), (210, "c"), (252, "f")]),
    # a bosonic bath flips with x: two parity blocks, each its own adjoint;
    # the odd one has an entry in every column, so no certificate spares it
    ((ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5), [BOSON_PAIR[0], SPIN_PAIR[1]]),
     [(32, "f"), (32, "f")]),
], ids=["faithful", "pure", "odd-covers-every-column"])
def test_lus_of_the_blocks_a_faithful_state_does_not_certify(chain, factored):
    state, sizes = lu_sizes(solve_steady, build_liouvillian(*chain))
    assert (state.solver, state.nullspace_dim) == ("bordered", 1)
    assert sizes == factored
    # the kept plan has made the matrices of the factored blocks only: the
    # real stack of a block that is its own adjoint, the complex one of a pair
    made = [(g.stack.shape[-1], g.stack.dtype.kind) for g in steady_state._plans.entries[0].groups
            if g.stack is not None for _ in g.idx]
    assert sorted(made) == factored


def maybe_zero(lo, hi):
    """A grid value, or 0 in about one draw of five."""
    return st.tuples(st.integers(0, 4), grid(lo, hi)).map(lambda kv: kv[1] if kv[0] else 0.0)


@st.composite
def certificate_chains(draw):
    """xxz and ising chains of 2 to 5 sites with some couplings 0, between spin baths given
    by (beta, h) or by f alone, f = +-1 and next to it included, or bosonic baths."""
    n = draw(st.integers(2, 5))
    fields = tuple(draw(maybe_zero(-1.0, 1.0)) for _ in range(n))
    bonds = tuple(draw(maybe_zero(-1.5, 1.5)) for _ in range(n - 1))
    if draw(st.sampled_from(["xxz", "xxz", "ising"])) == "xxz":
        spec = ChainSpec(kind="xxz", n=n, alpha=draw(maybe_zero(0.3, 2.0)), bond_Delta=bonds,
                         field=fields)
    else:
        spec = ChainSpec(kind="ising", n=n, bond_Delta=bonds, field=fields)
    f = st.one_of(grid(-1.0, 1.0), st.sampled_from([-1.0, 1.0, -0.999999, 0.999999]))
    baths = [draw(st.one_of(
        st.builds(BathSpec, side=st.just(side), beta=grid(0.2, 3.0), h=grid(-1.5, 1.5),
                  gamma=grid(0.2, 2.0)),
        st.builds(BathSpec, side=st.just(side), f=f, gamma=grid(0.2, 2.0)),
        st.builds(BathSpec, side=st.just(side), kind=st.just("bosonic"), beta=grid(0.3, 3.0),
                  omega=grid(0.5, 2.0), g=grid(0.2, 0.6)),
    )) for side in "LR"]
    return spec, baths


def outcome_or_error(solve, liou):
    """``lu_sizes(solve, liou)``, with the type and text of an error in place of the state."""
    try:
        return lu_sizes(solve, liou)
    except (KernelError, ValueError) as exc:
        return (type(exc).__name__, str(exc)), None


@settings(max_examples=40, deadline=None)
@given(chain=certificate_chains())
@example(chain=(ChainSpec(kind="ising", n=2, field=(0.0, 0.0), bond_Delta=(0.0,)),
                [BOSON_PAIR[0], BathSpec(side="R", f=0.0)]))
def test_certified_blocks_are_left_out_only_of_a_unique_kernel(chain):
    # the certificate changes which LUs run, not the result.  In the example,
    # x_1 and I are both stationary (H = 0): the block of x_1 misses no
    # column, so no certificate may leave it out
    liou = build_liouvillian(*chain)
    state, sizes, all_sizes = solve_as_if_uncertified(liou)
    if sizes is not None and state.solver == "bordered" and len(sizes) < len(all_sizes):
        rho, k = svd_reference(liou)
        assert k == 1
        assert np.max(np.abs(state.rho - rho)) < 1e-10


# ising n=4 with a nearly pure state (min_eig 6.2e-8, kernel 4): the full SVD
# lands 1.3e-10 from the bordered state, which is the 60-digit state's
NEARLY_PURE = (ChainSpec(kind="ising", n=4, field=(0.0, 0.0, 0.0, 0.0),
                         bond_Delta=(0.05, 0.05, 0.0)),
               [BathSpec(side="L", f=-0.999999, gamma=0.2),
                BathSpec(side="R", beta=0.2, h=0.15, gamma=0.2)])


@settings(max_examples=30, deadline=None)
@given(chain=certificate_chains())
@example(chain=NEARLY_PURE)
def test_real_lus_keep_the_path_and_the_state(chain):
    # blocks that are their own adjoint are factored in the real basis: the
    # path and kernel dimension are those of the solve on the dense
    # reference's entries, and a bordered state is the full SVD's
    spec, baths = chain
    liou = build_liouvillian(*chain)
    state, _ = outcome_or_error(solve_steady, liou)
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    ref, _ = outcome_or_error(solve_steady, from_dense(liouvillian_matrix(h, jumps), spec.dim))
    if not isinstance(state, SteadyState):
        assert state == ref
        return
    same_path(state, ref)
    if spec.n <= 4:  # the full-SVD reference costs seconds beyond that
        rho, k = svd_reference(liou)
        assert state.nullspace_dim == k
        if state.solver == "bordered":
            off = np.max(np.abs(state.rho - rho))
            if off >= 1e-10:  # the full SVD's own error can pass the bound (NEARLY_PURE)
                off = np.max(np.abs(state.rho - mp_steady_state(spec, baths)))
            assert off < 1e-10


def test_a_nearly_pure_bordered_state_is_the_60_digit_state():
    state = in_new_thread(solve_steady, build_liouvillian(*NEARLY_PURE))
    assert (state.solver, state.nullspace_dim) == ("bordered", 4)
    assert state.min_eig < 1e-7
    assert np.max(np.abs(state.rho - mp_steady_state(*NEARLY_PURE))) < 1e-15


def solve_as_if_uncertified(liou):
    """``outcome_or_error(solve_steady, liou)`` and the LU sizes of a solve that certifies nothing.

    Every field equals that solve's, the one-off solve's too.
    """
    state, sizes = in_new_thread(outcome_or_error, solve_steady, liou)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steady_state, "_certified", lambda dim, idx: np.zeros(len(idx), dtype=bool))
        every, all_sizes = in_new_thread(outcome_or_error, solve_steady, liou)
    once, _ = outcome_or_error(steady_state._solve_once, liou)
    for other in (every, once):
        assert type(other) is type(state)
        if isinstance(state, SteadyState):
            assert np.array_equal(other.rho, state.rho)
            assert all(getattr(other, f.name) == getattr(state, f.name)
                       for f in fields(SteadyState) if f.name != "rho")
        else:
            assert other == state
    return state, sizes, all_sizes


def test_a_size_split_by_the_certificate_takes_the_svd_path_as_a_whole():
    # a d = 4 generator with three kept blocks of 4 on |i><j| (r = i + 4 j),
    # each a cycle with a stationary element: the populations, B = {2, 7, 8,
    # 13}, which has an entry in every column, and C = {1, 3, 9, 11}, which
    # misses columns 1 and 3 (its mirror is implied).  The populations and B
    # are their own adjoints, and C is one of a pair: the certificate splits C
    # from the others.  The real LU of B is singular, and the SVD path then
    # factors C too
    entries = {}
    for cycle, rate in (([0, 5, 10, 15], 1.0), ([2, 7, 8, 13], 0.7), ([1, 9, 11, 3], 0.3)):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            entries[b, a] = rate
            entries[a, a] = -rate
    flip = np.arange(16).reshape(4, 4).ravel(order="F")
    entries.update({(flip[r], flip[c]): v for (r, c), v in entries.items() if r in (1, 3, 9, 11)})
    keys = sorted(entries)
    liou = Liouvillian(np.array([r for r, _ in keys]), np.array([c for _, c in keys]),
                       np.array([entries[k] for k in keys], dtype=complex), 4)
    assert [(g.idx.shape, g.real, g.certified) for g in _Plan(4, liou.rows, liou.cols).groups] == \
        [((2, 4), True, False), ((1, 4), False, True)]
    state, sizes, _ = solve_as_if_uncertified(liou)
    assert (state.solver, state.nullspace_dim) == ("svd", 4)
    # the populations and B, in one real LU; B is singular, so C never comes to its LU
    assert sizes == [(4, "f"), (4, "f")]
    rho, k = svd_reference(liou)
    assert k == 4
    assert np.max(np.abs(state.rho - rho)) < 1e-12


def test_stationary_coherence_pair_is_refused_through_its_representative():
    # |1><2| and |2><1| are stationary, each a block of its own, and adjoint:
    # the LU of the one factored is singular, and the SVD sees both
    h = np.diag([0.0, 0.5, 0.5]).astype(complex)
    decay = np.zeros((3, 3), dtype=complex)
    decay[1, 0] = 1.0
    state = solve_steady(Liouvillian.from_jumps(h, [decay]))
    assert (state.solver, state.nullspace_dim) == ("svd", 4)
    assert np.max(np.abs(state.rho - np.diag([0.0, 0.5, 0.5]))) < 1e-12


def test_real_entries_given_as_floats_solve_as_complex_ones():
    # a generator without a Hamiltonian and with real jumps has real entries;
    # given as a float array, its real group is scattered from the same real
    # and imaginary parts as the complex array's
    decay = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    liou = Liouvillian.from_jumps(np.zeros((2, 2)), [decay, 0.6 * decay.T])
    assert not liou.values.imag.any()
    assert any(g.real for g in _Plan(2, liou.rows, liou.cols).groups)
    expected = in_new_thread(solve_outcome, liou)
    assert expected[-2] == repr("bordered")
    assert in_new_thread(solve_outcome, replace(liou, values=liou.values.real.copy())) == expected


def real_fill_terms(plan, k):
    """The number of terms ``_real_fill`` writes for group ``k`` of ``plan``."""
    index = np.arange(plan.dim ** 2)
    kind = (index < plan.flip) + 2 * (index > plan.flip)
    sel = np.flatnonzero((plan.group[plan.rows] == k) & (kind[plan.rows] != 2))
    fill = steady_state._real_fill(sel, plan.rows, plan.cols, plan.flip, kind, plan.start,
                                   plan.place)
    return sum(target.size for target, *_ in fill)


@pytest.mark.parametrize("spec, collision_real", [
    (ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.3), False),
    (ChainSpec(kind="xxz", n=3, alpha=1.0, bond_Delta=(0.3, 0.5)), False),
    (ChainSpec(kind="xxz", n=4, alpha=1.0, bond_Delta=(0.3, 0.5, 0.7)), False),
    # the traced block holds the populations alone: an entry writes one term
    (ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8), True),
], ids=["xxz2", "xxz3", "xxz4", "ising2"])
def test_a_block_denser_than_its_real_fill_keeps_the_complex_lu(spec, collision_real):
    # a group of blocks that are their own adjoints is real where its real fill
    # writes no more terms than its stack holds: the traced block of a chain's
    # generator, not the dense one of an xxz collision generator, whose one-off
    # solve equals the kept plan's all the same
    baths = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
             BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8)]
    chain = build_liouvillian(spec, baths)
    collision = CollisionEngine(spec, baths, RIConfig(tau=1e-2)).generator
    for liou, traced in ((chain, True), (collision, collision_real)):
        plan = _Plan(liou.dim, liou.rows, liou.cols)
        for k, g in enumerate(plan.groups):
            if not g.paired.any():
                assert g.real == (real_fill_terms(plan, k) <= g.idx.size * g.idx.shape[1])
        assert [g.real for g in plan.groups if g.held.size] == [traced]
    assert one_off_outcome(collision) == in_new_thread(solve_outcome, collision)


def one_off_outcome(liou):
    """``solve_outcome`` through the one-off solve of the collision fixed point."""
    try:
        state = steady_state._solve_once(liou)
    except (KernelError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return tuple(state.rho.tobytes() if f.name == "rho" else repr(getattr(state, f.name))
                 for f in fields(SteadyState))


@pytest.mark.parametrize("chain", [
    (ChainSpec(kind="xxz", n=4, alpha=1.0, Delta=0.5, h=0.1), SPIN_PAIR),  # bordered
    (ChainSpec(kind="ising", n=4, field=(0.5, 0.4, 0.6, 0.4), bond_Delta=(0.5, 0.8, 0.7)),
     BOSON_PAIR),  # stationary coherences: SVD
])
def test_one_off_solve_matches_the_kept_plan(chain):
    # the one-off solve plans afresh, on the generator's own index arrays, and
    # gathers afresh for the SVD path
    liou = build_liouvillian(*chain)
    assert one_off_outcome(liou) == in_new_thread(solve_outcome, liou)


def test_one_svd_per_adjoint_pair(monkeypatch):
    # an ising chain whose site energies repeat has stationary coherences, so
    # the SVD fallback runs; a mirror block's factors are its partner's conjugates
    spec = ChainSpec(kind="ising", n=5, field=(0.5, 0.4, 0.6, 0.8, 0.4),
                     bond_Delta=(0.5, 0.8, 0.7, 0.6))
    liou = build_liouvillian(spec, BOSON_PAIR)
    seen = []
    svd = np.linalg.svd

    def record(a, *args, **kwargs):
        seen.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", record)
    state = in_new_thread(solve_steady, liou)
    monkeypatch.undo()
    blocks = components(liou.rows, liou.cols, liou.dim ** 2)
    flip = np.arange(liou.dim ** 2).reshape(liou.dim, -1).ravel(order="F")
    total = sum(len(idx) for idx in blocks)
    own = sum(int(np.all(np.sort(flip[idx], axis=1) == idx, axis=1).sum()) for idx in blocks)
    assert state.solver == "svd"
    assert sum(seen) == own + (total - own) // 2 < total
    rho, k = svd_reference(liou)
    assert k == state.nullspace_dim
    assert np.max(np.abs(state.rho - rho)) < 1e-12


def run_fresh(code: str, **env: str) -> tuple[list[str], float]:
    """Run ``code`` in a fresh interpreter: the fields it prints and its peak resident set in MiB.

    The interpreter's environment is this process's with ``env`` set on it.

    The peak is the child's own ``VmHWM``.  Its ``ru_maxrss`` would not do:
    Linux carries the high-water mark of the process that starts the child
    across the child's exec, so it would read this test process's peak.
    """
    probe = code + ('\nprint(next(line.split()[1] for line in open("/proc/self/status")'
                    ' if line.startswith("VmHWM:")))\n')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *fields, peak_kib = proc.stdout.split()
    return fields, int(peak_kib) / 1024


def test_xxz_six_sites_solves_in_small_memory():
    # the d^2 x d^2 generator alone would take 256 MiB; its blocks take 43 MiB
    fields, peak_mib = run_fresh("""if True:
        from spinheat import BathSpec, ChainSpec, steady_for
        spec = ChainSpec(kind="xxz", n=6, alpha=1.0, Delta=0.5, h=0.1)
        baths = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
                 BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8)]
        state = steady_for(spec, baths)
        print(state.solver, state.largest_block)
    """)
    assert fields == ["bordered", "924"]
    assert peak_mib < 200


def test_hopping_free_xxz_chain_conserves_its_middle_spin():
    # alpha = 0 makes the xxz chain diagonal, like an ising chain: no
    # uniqueness is expected, and the kernel holds one state per middle spin
    spec = ChainSpec(kind="xxz", n=3, alpha=0.0, Delta=0.5)
    state = steady_for(spec, SPIN_PAIR)
    assert (state.solver, state.nullspace_dim) == ("bordered", 2)
    check_state(spec, SPIN_PAIR, state)


def test_xxz_interior_driving_is_unique_for_small_f():
    # drivings strictly inside (-1, 1) must give a one-dimensional kernel
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.3)
    baths = [BathSpec(side="L", f=0.9, gamma=2.0), BathSpec(side="R", f=-0.9, gamma=0.1)]
    state = steady_for(spec, baths)
    assert state.nullspace_dim == 1


def test_solver_rejects_kernel_free_generator():
    # a strictly contracting map shifted away from stationarity: no kernel
    m = np.eye(4) * -1.0
    with pytest.raises(KernelError, match="no null space"):
        solve_steady(from_dense(m, 2))


def test_residual_reported():
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.4, h=0.1)
    state = steady_for(spec, SPIN_PAIR)
    liou = build_liouvillian(spec, SPIN_PAIR)
    direct = float(np.linalg.norm(dense(liou) @ vec(state.rho)))
    assert state.residual == pytest.approx(direct, rel=1e-10)
    assert state.residual < 1e-10 * np.linalg.norm(dense(liou), 2)


# -- the plan of a pattern, kept per thread and reused --------------------------------


def solve_outcome(liou):
    """Every field of ``solve_steady(liou)``, bit for bit, or the type and text of its error."""
    try:
        state = solve_steady(liou)
    except (KernelError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return tuple(state.rho.tobytes() if f.name == "rho" else repr(getattr(state, f.name))
                 for f in fields(SteadyState))


def in_new_thread(fn, *args):
    """``fn(*args)`` in a thread of its own, which holds no plan yet."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


def nonzero(lo, hi):
    return grid(lo, hi).filter(lambda x: x != 0)


@st.composite
def chain_sequences(draw):
    """Driven chains, each one change away from the one before.

    A change draws new nonzero values on the same pattern, sets one coupling
    or field to exactly 0, switches one bath between spin and bosonic, or
    draws another n.
    """
    def fresh_values(n):
        return {"alpha": draw(nonzero(0.3, 2.0)),
                "bonds": [draw(nonzero(-1.5, 1.5)) for _ in range(n - 1)],
                "fields": [draw(nonzero(-1.0, 1.0)) for _ in range(n)]}

    def chain(kind, n, p, families):
        if kind == "xxz":
            spec = ChainSpec(kind="xxz", n=n, alpha=p["alpha"], bond_Delta=tuple(p["bonds"]),
                             field=tuple(p["fields"]))
        else:
            spec = ChainSpec(kind="ising", n=n, bond_Delta=tuple(p["bonds"]),
                             field=tuple(p["fields"]))
        baths = [BathSpec(side=side, f=draw(grid(-0.9, 0.9)), gamma=draw(grid(0.2, 2.0)))
                 if family == "spin" else
                 BathSpec(side=side, kind="bosonic", beta=draw(grid(0.3, 3.0)),
                          omega=draw(grid(0.5, 2.0)), g=draw(grid(0.2, 0.6)))
                 for side, family in zip("LR", families)]
        return spec, baths

    kind = draw(st.sampled_from(["xxz", "ising"]))
    n = draw(st.integers(2, 4))
    p = fresh_values(n)
    families = [draw(st.sampled_from(["spin", "bosonic"])) for _ in "LR"]
    chains = [chain(kind, n, p, families)]
    for change in draw(st.lists(st.sampled_from(["values", "zero", "bath", "n"]),
                                min_size=2, max_size=4)):
        if change == "values":
            new = fresh_values(n)
            p = {k: [v if old else 0.0 for v, old in zip(new[k], p[k])] if isinstance(p[k], list)
                 else (new[k] if p[k] else 0.0) for k in p}
        elif change == "zero":
            key = draw(st.sampled_from(["alpha", "bonds", "fields"] if kind == "xxz"
                                       else ["bonds", "fields"]))
            if key == "alpha":
                p["alpha"] = 0.0
            else:
                p[key][draw(st.integers(0, len(p[key]) - 1))] = 0.0
        elif change == "bath":
            side = draw(st.integers(0, 1))
            families[side] = "bosonic" if families[side] == "spin" else "spin"
        else:
            n = draw(st.sampled_from([m for m in (2, 3, 4) if m != n]))
            p = fresh_values(n)
        chains.append(chain(kind, n, p, families))
    return chains


@settings(max_examples=30, deadline=None)
@given(chains=chain_sequences())
def test_solves_in_sequence_match_fresh_solves(chains):
    # each solve in this thread may reuse the plan of the one before; a new
    # thread holds no plan, so its solve builds the plan afresh
    for spec, baths in chains:
        liou = build_liouvillian(spec, baths)
        assert solve_outcome(liou) == in_new_thread(solve_outcome, liou)


def test_new_values_on_the_kept_pattern_reuse_its_plan():
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5, h=0.1)
    solve_steady(build_liouvillian(spec, SPIN_PAIR))
    plan = steady_state._plans.entries[0]
    solve_steady(build_liouvillian(replace(spec, Delta=0.7, h=0.3), SPIN_PAIR))
    assert steady_state._plans.entries[0] is plan


@pytest.mark.parametrize("bad", ["nan", "hermiticity"])
def test_values_are_checked_on_a_kept_plan(bad):
    liou = build_liouvillian(ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5), SPIN_PAIR)
    expected = in_new_thread(solve_outcome, liou)
    solve_steady(liou)
    plan = steady_state._plans.entries[0]
    values = liou.values.copy()
    if bad == "nan":
        values[values.size // 2] = np.nan
        match = "non-finite entries"
    else:  # L[0, 0] (|0><0| -> |0><0|) is its own mirror, so it must be real
        values[(liou.rows == 0) & (liou.cols == 0)] *= 1 + 1e-6j
        match = "does not preserve Hermiticity"
    with pytest.raises(ValueError, match=match):
        solve_steady(Liouvillian(liou.rows, liou.cols, values, liou.dim))
    assert steady_state._plans.entries[0] is plan
    assert solve_outcome(liou) == expected


def mirrored_chains():
    """Two ising chains, one the other's mirror image: as many entries, in other rows."""
    field = (0.3, 0.7, -0.4)
    spin = BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0)
    boson = BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3)
    return (build_liouvillian(ChainSpec(kind="ising", n=3, field=field, bond_Delta=(0.8, 1.1)),
                              [spin, boson]),
            build_liouvillian(ChainSpec(kind="ising", n=3, field=field[::-1], bond_Delta=(1.1, 0.8)),
                              [replace(boson, side="L"), replace(spin, side="R")]))


def decay_and_pump():
    """A qubit relaxing to |0><0| and one pumped to |1><1|: the same rows, other columns."""
    h = np.diag([0.0, 1.0]).astype(complex)
    decay = np.array([[0, 1], [0, 0]], dtype=complex)
    return Liouvillian.from_jumps(h, [decay]), Liouvillian.from_jumps(h, [decay.T])


@pytest.mark.parametrize("pair", [mirrored_chains, decay_and_pump])
def test_a_pattern_is_fixed_and_another_of_as_many_entries_is_solved_afresh(pair):
    # the entries of a solved generator cannot be rewritten in place to the
    # other pattern; the other generator, solved next, takes a plan of its own
    a, b = pair()
    assert a.rows.size == b.rows.size and not np.array_equal(a.cols, b.cols)
    expected = in_new_thread(solve_outcome, b)
    assert solve_outcome(a) != expected
    with pytest.raises(ValueError, match="read-only"):
        a.rows[:], a.cols[:] = b.rows, b.cols
    assert solve_outcome(b) == expected
    assert steady_state._plans.entries[0].cols is b.cols


def test_a_kept_pattern_holds_one_pair_of_index_arrays():
    # the layout, every generator built on it and the plan share rows and cols
    spec = ChainSpec(kind="xxz", n=4, alpha=1.0, Delta=0.5, h=0.1)
    seen = in_new_thread(visit, [(spec, SPIN_PAIR), (replace(spec, Delta=0.8), SPIN_PAIR)])
    (a, _, layout, plan), (b, *_) = seen
    assert seen[1][2] is layout and seen[1][3] is plan
    assert a.rows is b.rows is layout.rows is plan.rows
    assert a.cols is b.cols is layout.cols is plan.cols
    for index in (a.rows, a.cols):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0


def test_index_views_are_copied_so_a_write_to_their_base_leaves_the_plan_alone():
    built = build_liouvillian(ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5), SPIN_PAIR)
    expected = in_new_thread(solve_outcome, built)

    def solve_write_solve():
        rows, cols = built.rows.copy(), built.cols.copy()
        liou = Liouvillian(rows[:], cols[:], built.values, built.dim)
        first = solve_outcome(liou)
        plan = steady_state._plans.entries[0]
        rows[:], cols[:] = rows[::-1], 0  # the bases stay writable
        again = solve_outcome(Liouvillian(built.rows, built.cols, built.values, built.dim))
        return first, again, steady_state._plans.entries[0] is plan, plan.rows is liou.rows

    assert in_new_thread(solve_write_solve) == (expected, expected, True, True)


def test_threads_solving_in_turn_match_the_serial_solves():
    # three threads solve at once, step by step, each on a pattern of its own
    # with values that change every step: each keeps its own plan throughout
    xxz4 = ChainSpec(kind="xxz", n=4, alpha=1.0, bond_Delta=(0.3, -0.8, 1.1))
    xxz3 = ChainSpec(kind="xxz", n=3, alpha=0.7, Delta=0.4, h=0.2)
    ising = ChainSpec(kind="ising", n=3, field=(0.3, 0.7, -0.4), bond_Delta=(0.8, 1.1))
    lious = [[build_liouvillian(xxz4, SPIN_PAIR),
              build_liouvillian(replace(xxz4, bond_Delta=(0.9, 0.2, -0.5)), SPIN_PAIR)],
             [build_liouvillian(xxz3, SPIN_PAIR),
              build_liouvillian(replace(xxz3, h=-0.6), SPIN_PAIR)],
             [build_liouvillian(ising, BOSON_PAIR),
              build_liouvillian(replace(ising, field=(0.5, -0.2, 0.1)), BOSON_PAIR)]]
    serial = [[in_new_thread(solve_outcome, liou) for liou in pair] for pair in lious]
    step = threading.Barrier(len(lious), timeout=60)
    seen = {k: [] for k in range(len(lious))}
    plans = {k: set() for k in range(len(lious))}

    def work(k):
        for i in range(20):
            step.wait()
            seen[k].append(solve_outcome(lious[k][i % 2]))
            plans[k].add(id(steady_state._plans.entries[0]))

    workers = [threading.Thread(target=work, args=(k,)) for k in seen]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter over often, inside a solve too
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for k in seen:
        assert seen[k] == [serial[k][i % 2] for i in range(20)]
        assert len(plans[k]) == 1


def test_collision_fixed_point_leaves_the_kept_plan_alone():
    liou = build_liouvillian(ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.5), SPIN_PAIR)
    solve_steady(liou)
    plan = steady_state._plans.entries[0]
    ri_fixed_point(ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.5), SPIN_PAIR, RIConfig(tau=0.05))
    assert steady_state._plans.entries[0] is plan


# -- the layouts and plans of a thread's most recent patterns -----------------------


def patterns(scale):
    """Chains on twelve patterns, their values scaled by ``scale``: xxz and ising chains of
    2 to 4 sites, each between spin baths and between bosonic baths."""
    chains = []
    for n in (2, 3, 4):
        xxz = ChainSpec(kind="xxz", n=n, alpha=scale, Delta=0.5 * scale, h=0.1 * scale)
        ising = ChainSpec(kind="ising", n=n, field=tuple(scale * (0.3 + 0.25 * i) for i in range(n)),
                          bond_Delta=tuple(scale * (0.8 + 0.1 * i) for i in range(n - 1)))
        chains += [(xxz, SPIN_PAIR), (xxz, BOSON_PAIR), (ising, SPIN_PAIR), (ising, BOSON_PAIR)]
    return chains


def visit(chains):
    """Build and solve each chain in turn on this thread: its generator, ``solve_outcome``, and
    the layout and the plan then in front of the kept ones."""
    seen = []
    for spec, baths in chains:
        liou = build_liouvillian(spec, baths)
        outcome = solve_outcome(liou)
        seen.append((liou, outcome, lindblad._layouts.entries[0], steady_state._plans.entries[0]))
    return seen


def assert_fresh(chains, seen):
    """Every build has the reference build's bits and every solve those of a thread's first."""
    for (spec, baths), (liou, outcome, *_) in zip(chains, seen):
        fresh = from_jumps_reference(build_hamiltonian(spec),
                                     [L for b in baths for L in jump_ops(b, spec.n)])
        for name in ("rows", "cols", "values"):
            assert getattr(liou, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert outcome == in_new_thread(solve_outcome, liou)


def test_chains_that_come_back_to_a_pattern_reuse_its_layout_and_plan():
    # A, B, C, then A, B, C on new values: each comes back to the layout and
    # the plan it kept, behind the two others
    chains = patterns(1.0)[1:4] + patterns(1.3)[1:4]
    seen = in_new_thread(visit, chains)
    assert_fresh(chains, seen)
    for (*_, layout, plan), (*_, again, plan_again) in zip(seen[:3], seen[3:]):
        assert again is layout and plan_again is plan
    assert len({id(layout) for *_, layout, _ in seen}) == 3
    assert len({id(plan) for *_, plan in seen}) == 3


def test_a_loop_over_more_patterns_than_are_kept_finds_none():
    # the oldest pattern drops out as each new one comes: on a loop over one
    # more than are kept, every pattern has dropped out when it comes back
    chains = patterns(1.0)[:KEPT_PATTERNS + 1]
    chains += patterns(1.3)[:KEPT_PATTERNS + 1]

    def loop():
        return visit(chains), len(lindblad._layouts.entries), len(steady_state._plans.entries)

    seen, layouts, plans = in_new_thread(loop)
    assert (layouts, plans) == (KEPT_PATTERNS, KEPT_PATTERNS)
    assert_fresh(chains, seen)
    assert len({id(layout) for *_, layout, _ in seen}) == len(chains)
    assert len({id(plan) for *_, plan in seen}) == len(chains)


def test_a_plan_behind_the_front_drops_its_stacks_and_makes_them_again():
    a, b = patterns(1.0)[4], patterns(1.0)[9]  # xxz n=3 with spin baths, n=4 with bosonic ones

    def solves():
        first = visit([a, b])
        plan = first[0][3]
        dropped = [g.stack for g in plan.groups]
        again = visit([a])
        return first + again, dropped, [g.stack is not None for g in plan.groups]

    seen, dropped, made = in_new_thread(solves)
    assert dropped == [None] * len(dropped)
    assert seen[2][3] is seen[0][3] and any(made)
    assert seen[2][1] == seen[0][1]
    assert_fresh([a, b, a], seen)

