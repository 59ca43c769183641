"""Dissipators, jump operators, and the vectorized generator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spinheat import (
    BathSpec,
    ChainSpec,
    bosonic_rates,
    build_hamiltonian,
    build_liouvillian,
    dissipator_action,
    jump_ops,
    lindblad_action,
    liouvillian_matrix,
    unvec,
    vec,
)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_vec_column_stacking():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), np.array([1.0, 3.0, 2.0, 4.0], dtype=complex))
    assert np.array_equal(unvec(vec(a)), a.astype(complex))


def test_vec_identity_superoperator_rule():
    # vec(A X B) = (B^T kron A) vec(X)
    rng = np.random.default_rng(20)
    a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_unvec_rejects_non_square_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(5))


def test_spin_jump_rates():
    b = BathSpec(side="L", f=0.3, gamma=0.8)
    ops = jump_ops(b, 1)
    assert len(ops) == 2
    raising, lowering = ops
    assert np.isclose(np.max(np.abs(raising)) ** 2, 2 * 0.8 * 1.3)
    assert np.isclose(np.max(np.abs(lowering)) ** 2, 2 * 0.8 * 0.7)


def test_spin_jump_fully_polarized_single_channel():
    ops = jump_ops(BathSpec(side="L", f=1.0, gamma=1.0), 1)
    assert len(ops) == 1  # the lowering rate vanishes at f = 1


def test_bosonic_rates_unit_occupation():
    # beta omega = ln 2 puts exactly one quantum in the mode
    b = BathSpec(side="L", kind="bosonic", beta=math.log(2.0), omega=1.0, g=1.0)
    g_minus, g_plus = bosonic_rates(b)
    assert g_minus == pytest.approx(2.0, rel=1e-13)
    assert g_plus == pytest.approx(1.0, rel=1e-13)
    (L,) = jump_ops(b, 1)
    assert np.allclose(L, math.sqrt(3.0) * np.array([[0, 1], [1, 0]]), atol=1e-13)


def test_dissipator_preserves_trace():
    rng = np.random.default_rng(21)
    for b in (
        BathSpec(side="L", beta=1.2, h=0.7, gamma=0.9),
        BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.5),
    ):
        jumps = jump_ops(b, 2)
        rho = random_state(rng, 4)
        assert abs(np.trace(dissipator_action(jumps, rho))) < 1e-13


def test_single_site_spin_fixed_point():
    # the bath drives one spin to diag((1+f)/2, (1-f)/2)
    for f in (-0.6, 0.0, 0.45):
        b = BathSpec(side="L", f=f, gamma=1.3)
        jumps = jump_ops(b, 1)
        target = np.diag([(1 + f) / 2, (1 - f) / 2]).astype(complex)
        assert np.max(np.abs(dissipator_action(jumps, target))) < 1e-14
        # and anything else moves toward it
        off = np.diag([0.9, 0.1]).astype(complex)
        d = dissipator_action(jumps, off)
        assert d[0, 0].real * (target[0, 0].real - off[0, 0].real) > 0


def test_bosonic_dissipator_depolarizes():
    b = BathSpec(side="L", kind="bosonic", beta=1.5, omega=1.0, g=0.7)
    jumps = jump_ops(b, 1)
    assert np.max(np.abs(dissipator_action(jumps, np.eye(2, dtype=complex) / 2))) < 1e-15
    # rate structure: D(rho) = (g- + g+) (x rho x - rho)
    rng = np.random.default_rng(22)
    rho = random_state(rng, 2)
    g_minus, g_plus = bosonic_rates(b)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    expected = (g_minus + g_plus) * (sx @ rho @ sx - rho)
    assert np.allclose(dissipator_action(jumps, rho), expected, atol=1e-13)


def test_diagonal_states_stay_diagonal_under_boundary_driving():
    spec = ChainSpec(kind="ising", n=2, Delta=1.0, h=0.5)
    baths = [
        BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
        BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8),
    ]
    rng = np.random.default_rng(23)
    p = rng.random(4)
    rho = np.diag(p / p.sum()).astype(complex)
    out = lindblad_action(spec, baths, rho)
    assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-14


def test_no_jumps_reduces_to_unitary_part():
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.5, h=0.3)
    baths = [
        BathSpec(side="L", f=0.2, gamma=0.0),
        BathSpec(side="R", f=-0.1, gamma=0.0),
    ]
    rng = np.random.default_rng(24)
    rho = random_state(rng, 4)
    h = build_hamiltonian(spec)
    expected = -1j * (h @ rho - rho @ h)
    assert np.allclose(lindblad_action(spec, baths, rho), expected, atol=1e-13)


def test_matrix_matches_action():
    rng = np.random.default_rng(25)
    cases = [
        (
            ChainSpec(kind="xxz", n=2, alpha=0.9, Delta=-0.4, h=0.2),
            [BathSpec(side="L", f=0.5, gamma=1.1), BathSpec(side="R", f=-0.3, gamma=0.7)],
        ),
        (
            ChainSpec(kind="ising", n=2, Delta=1.2, h=0.6),
            [
                BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
                BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3),
            ],
        ),
        (
            ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0),
            [BathSpec(side="L", beta=1.0, h=1.0), BathSpec(side="R", beta=2.0, h=-0.5)],
        ),
    ]
    for spec, baths in cases:
        liou = build_liouvillian(spec, baths)
        scale = np.linalg.norm(liou.matrix)
        for _ in range(3):
            rho = random_state(rng, spec.dim)
            lhs = liou.matrix @ vec(rho)
            rhs = vec(lindblad_action(spec, baths, rho))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def kron_reference(h, jumps):
    """The generator term by term from dense Kronecker products."""
    eye = np.eye(h.shape[0], dtype=complex)
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for L in jumps:
        LdL = L.conj().T @ L
        m += np.kron(L.conj(), L)
        m -= 0.5 * (np.kron(eye, LdL) + np.kron(LdL.T, eye))
    return m


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["xxz", "ising"])
@pytest.mark.parametrize("bath_kind", ["spin", "bosonic"])
def test_matrix_matches_kron_reference(n, kind, bath_kind):
    fields = (0.4, -0.3, 0.7, 0.2)[:n]
    bonds = (0.9, -1.1, 0.6)[:n - 1]
    if kind == "xxz":
        spec = ChainSpec(kind="xxz", n=n, alpha=0.8, field=fields, bond_Delta=bonds)
    else:
        spec = ChainSpec(kind="ising", n=n, field=fields, bond_Delta=bonds)
    if bath_kind == "spin":
        baths = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.1),
                 BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.6)]
    else:
        baths = [BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
                 BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3)]
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, n)]
    m = liouvillian_matrix(h, jumps)
    assert np.max(np.abs(m - kron_reference(h, jumps))) <= 1e-14


def test_trace_preservation_left_kernel():
    # vec(I)^dag M = 0: the generator never changes the trace
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.7, delta=0.3, h=0.2)
    baths = [BathSpec(side="L", f=0.4, gamma=1.0), BathSpec(side="R", f=-0.2, gamma=0.5)]
    liou = build_liouvillian(spec, baths)
    left = vec(np.eye(spec.dim)).conj() @ liou.matrix
    assert np.max(np.abs(left)) < 1e-12


def test_liouvillian_dimensions():
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0)
    baths = [BathSpec(side="L", f=0.1), BathSpec(side="R", f=0.0)]
    liou = build_liouvillian(spec, baths)
    assert liou.dim == 8
    assert liou.matrix.shape == (64, 64)


def test_one_bath_per_side_enforced():
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0)
    with pytest.raises(ValueError):
        build_liouvillian(
            spec, [BathSpec(side="L", f=0.1), BathSpec(side="L", f=0.2)]
        )


def test_liouvillian_matrix_standalone():
    # single decaying qubit: analytic generator written out entry by entry
    gamma = 0.6
    L = math.sqrt(gamma) * np.array([[0, 1], [0, 0]], dtype=complex)
    m = liouvillian_matrix(np.zeros((2, 2), dtype=complex), [L])
    rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    rhs = unvec(m @ vec(rho))
    expected = gamma * np.array(
        [[rho[1, 1], -rho[0, 1] / 2], [-rho[1, 0] / 2, -rho[1, 1]]]
    )
    assert np.allclose(rhs, expected, atol=1e-14)
