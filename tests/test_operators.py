"""Pauli matrices and their embeddings on a chain."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from spinheat import (
    BathSpec,
    ChainSpec,
    CollisionEngine,
    RIConfig,
    bond_energy,
    current_report,
    op_at,
    pauli,
    site_op,
    steady_for,
    two_site_op,
)


def test_pauli_matrices():
    assert np.array_equal(pauli("z"), np.diag([1, -1]).astype(complex))
    assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli("i"), np.eye(2, dtype=complex))
    assert np.array_equal(pauli("plus"), np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(pauli("minus"), np.array([[0, 0], [1, 0]], dtype=complex))


def test_pauli_algebra():
    sp, sm = pauli("plus"), pauli("minus")
    assert np.allclose(sp @ sm + sm @ sp, np.eye(2))
    assert np.allclose(sp @ sm - sm @ sp, pauli("z"))
    assert np.allclose(pauli("x") @ pauli("y") - pauli("y") @ pauli("x"), 2j * pauli("z"))
    for k in "xyz":
        assert np.allclose(pauli(k) @ pauli(k), np.eye(2))


def test_pauli_unknown_kind():
    with pytest.raises(ValueError):
        pauli("q")


def test_op_at_embedding():
    sz = pauli("z")
    assert np.allclose(op_at(sz, 0, (2, 2)), np.kron(sz, np.eye(2)))
    assert np.allclose(op_at(sz, 1, (2, 2)), np.kron(np.eye(2), sz))


def test_op_at_middle_of_three():
    a = np.arange(4, dtype=complex).reshape(2, 2)
    expected = np.kron(np.kron(np.eye(2), a), np.eye(2))
    assert np.allclose(op_at(a, 1, (2, 2, 2)), expected)


def test_op_at_mixed_dims():
    # a qutrit slot between two qubits
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    out = op_at(a, 1, (2, 3, 2))
    assert out.shape == (12, 12)
    assert np.allclose(out, np.kron(np.kron(np.eye(2), a), np.eye(2)))


def test_site_op_one_based_sites():
    n = 3
    assert np.allclose(site_op("z", 1, n), np.kron(pauli("z"), np.eye(4)))
    assert np.allclose(site_op("z", 3, n), np.kron(np.eye(4), pauli("z")))


def test_site_op_bounds():
    with pytest.raises(ValueError):
        site_op("z", 0, 3)
    with pytest.raises(ValueError):
        site_op("z", 4, 3)


def test_two_site_op_product_structure():
    n = 3
    got = two_site_op("x", 1, "y", 3, n)
    expected = np.kron(np.kron(pauli("x"), np.eye(2)), pauli("y"))
    assert np.allclose(got, expected)


def test_two_site_op_equals_product_of_site_ops():
    kinds = ("i", "x", "y", "z", "plus", "minus")
    for n in range(2, 6):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for a, b in itertools.product(kinds, repeat=2):
                assert np.array_equal(
                    two_site_op(a, i, b, j, n), site_op(a, i, n) @ site_op(b, j, n)
                ), (a, i, b, j, n)


def test_disjoint_support_commutes():
    a = site_op("x", 1, 3)
    b = site_op("y", 3, 3)
    assert np.max(np.abs(a @ b - b @ a)) < 1e-15


def test_two_site_op_same_site_rejected():
    with pytest.raises(ValueError):
        two_site_op("x", 2, "y", 2, 3)


def _no_np_kron(*args, **kwargs):
    raise AssertionError("numpy.kron called; operators must go through kron_all")


XXZ3 = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.7, delta=0.3, h=0.4)
SPIN_BATHS = [
    BathSpec(side="L", kind="spin", beta=1.0, h=0.8, gamma=1.0),
    BathSpec(side="R", kind="spin", beta=2.0, h=-0.5, gamma=0.7),
]
ISING2 = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
BOSE_BATHS = [
    BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
    BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3),
]


@pytest.mark.parametrize(
    "spec, baths", [(XXZ3, SPIN_BATHS), (ISING2, BOSE_BATHS)], ids=["xxz_n3", "ising_boson_n2"]
)
def test_rates_never_call_np_kron(monkeypatch, spec, baths):
    monkeypatch.setattr(np, "kron", _no_np_kron)
    report = current_report(spec, baths, steady_for(spec, baths))
    assert np.isfinite(report.f_energy)


def test_bond_energy_and_collision_engine_never_call_np_kron(monkeypatch):
    monkeypatch.setattr(np, "kron", _no_np_kron)
    assert bond_energy(XXZ3, 2).shape == (8, 8)
    engine = CollisionEngine(ISING2, BOSE_BATHS, RIConfig(tau=0.05, n_max=3))
    assert engine.d_sys == 4
