"""Steady-state extraction: unique kernels, degenerate kernels, ansatz solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat import (
    BathSpec,
    ChainSpec,
    KernelError,
    Liouvillian,
    build_liouvillian,
    lindblad_action,
    solve_diagonal_ansatz,
    solve_steady,
    steady_for,
    unvec,
    vec,
)
from spinheat.linalg import svd_kernel

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
    basis, _ = svd_kernel(liou.matrix)
    w = basis @ (basis.conj().T @ vec(np.eye(liou.dim) / liou.dim))
    rho = unvec(w, liou.dim)
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real, basis.shape[1]


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


def test_ising_bosonic_three_sites_degenerate_kernel():
    # the middle spin is never flipped, so its polarization is conserved
    spec = ChainSpec(
        kind="ising", n=3, field=(0.4, 0.3, 0.7), bond_Delta=(0.9, 1.1), Delta13=0.6
    )
    state = steady_for(spec, BOSON_PAIR)
    assert state.nullspace_dim == 2
    assert state.solver == "svd"
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
    assert state.solver == "svd"
    f_l, f_r = bath_f(SPIN_PAIR[0]), bath_f(SPIN_PAIR[1])
    rho_l = np.diag([(1 + f_l) / 2, (1 - f_l) / 2])
    rho_r = np.diag([(1 + f_r) / 2, (1 - f_r) / 2])
    expected = np.kron(np.kron(rho_l, np.eye(2) / 2), rho_r)
    assert np.max(np.abs(state.rho - expected)) < 1e-10
    check_state(spec, SPIN_PAIR, state)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("baths", [SPIN_PAIR, BOSON_PAIR], ids=["spin", "bosonic"])
def test_degenerate_ising_kernel_takes_the_svd_path(n, baths):
    # the n - 2 middle spins are never flipped: one stationary state per
    # middle configuration, represented by the projection of I / d
    spec = ChainSpec(kind="ising", n=n, field=(0.4, 0.3, 0.7, -0.5)[:n],
                     bond_Delta=(0.9, 1.1, 0.6)[:n - 1])
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou)
    assert state.solver == "svd"
    rho, k = svd_reference(liou)
    assert state.nullspace_dim == k == 2 ** (n - 2)
    assert np.max(np.abs(state.rho - rho)) < 1e-12
    check_state(spec, baths, state)


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
    rho, k = svd_reference(liou)
    assert k == 1
    assert np.max(np.abs(state.rho - rho)) < 1e-12


def test_diagonal_ansatz_matches_full_solver():
    spec = ChainSpec(kind="ising", n=3, field=(0.4, 0.3, 0.7), bond_Delta=(0.9, 1.1))
    full = steady_for(spec, SPIN_PAIR)
    fast = solve_diagonal_ansatz(spec, SPIN_PAIR)
    assert np.max(np.abs(full.rho - fast.rho)) < 1e-9
    assert fast.nullspace_dim == full.nullspace_dim == 2
    assert fast.solver == "diagonal_ansatz"


def test_diagonal_ansatz_bosonic():
    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    fast = solve_diagonal_ansatz(spec, BOSON_PAIR)
    assert np.max(np.abs(fast.rho - np.eye(4) / 4)) < 1e-10


def test_diagonal_ansatz_rejects_xxz():
    with pytest.raises(ValueError):
        solve_diagonal_ansatz(ChainSpec(kind="xxz", n=2, alpha=1.0), SPIN_PAIR)


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
        solve_steady(Liouvillian(matrix=m, dim=2))


def test_residual_reported():
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.4, h=0.1)
    state = steady_for(spec, SPIN_PAIR)
    liou = build_liouvillian(spec, SPIN_PAIR)
    direct = float(np.linalg.norm(liou.matrix @ vec(state.rho)))
    assert state.residual == pytest.approx(direct, rel=1e-10)
    assert state.residual < 1e-10 * np.linalg.norm(liou.matrix, 2)
