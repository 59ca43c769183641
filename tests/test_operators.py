"""Pauli matrices and their embeddings on a chain."""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinheat import (
    BathSpec,
    ChainSpec,
    CollisionEngine,
    RIConfig,
    bond_energy,
    current_report,
    pauli,
    site_op,
    spin_current,
    steady_for,
    two_site_op,
)
from spinheat.operators import _pauli_columns
from dense_reference import kron_pauli_string, op_at

KINDS = ("i", "x", "y", "z", "plus", "minus")


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


@st.composite
def pauli_strings(draw):
    """A chain of 2..6 sites and one or two Paulis on distinct sites of it."""
    n = draw(st.integers(2, 6))
    sites = draw(st.lists(st.integers(1, n), min_size=1, max_size=2, unique=True))
    return n, [(draw(st.sampled_from(KINDS)), site) for site in sites]


def assert_kronecker_equal(got, terms, n):
    # the nonzero entries also keep their bits; only the signs of zeros may differ
    expected = kron_pauli_string(terms, n)
    assert np.array_equal(got, expected), (terms, n)
    assert got[expected != 0].tobytes() == expected[expected != 0].tobytes(), (terms, n)


@given(pauli_strings())
def test_pauli_strings_from_the_basis_bits_equal_the_kronecker_products(drawn):
    n, terms = drawn
    got = site_op(*terms[0], n) if len(terms) == 1 else two_site_op(*terms[0], *terms[1], n)
    assert_kronecker_equal(got, terms, n)


def test_every_single_site_pauli_equals_its_kronecker_product():
    for n in range(2, 7):
        for site in range(1, n + 1):
            for kind in KINDS:
                assert_kronecker_equal(site_op(kind, site, n), [(kind, site)], n)


def test_two_site_op_equals_product_of_site_ops():
    for n in range(2, 6):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for a, b in itertools.product(KINDS, repeat=2):
                assert np.array_equal(
                    two_site_op(a, i, b, j, n), site_op(a, i, n) @ site_op(b, j, n)
                ), (a, i, b, j, n)


def test_pauli_columns_are_kept_read_only():
    # a string's columns are kept for the calls that ask for them again, so
    # no caller may write to them; the dense strings made from them are fresh
    terms = (("x", 1), ("z", 3))
    rows, values = _pauli_columns(terms, 3)
    assert _pauli_columns(terms, 3)[0] is rows
    for array in (rows, values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    op = two_site_op("x", 1, "z", 3, 3)
    op[:] = 0.0
    assert_kronecker_equal(two_site_op("x", 1, "z", 3, 3), list(terms), 3)


def test_the_strings_of_every_chain_fit_the_kept_columns():
    # one thread asks for every string chains of 2 to 6 sites use: the Hamiltonian's terms,
    # the boundary jumps and couplings, every bond's energy and spin current; none is dropped
    _pauli_columns.cache_clear()
    spin = [BathSpec(side="L", beta=1.0, h=0.8), BathSpec(side="R", beta=2.0, h=-0.5)]
    bosonic = [BathSpec(side=side, kind="bosonic", beta=1.0, omega=1.0, g=0.4) for side in "LR"]
    for n in range(2, 7):
        field = tuple(0.1 * (i + 1) for i in range(n))
        xxz = ChainSpec(kind="xxz", n=n, alpha=1.0, Delta=0.5, field=field)
        ising = ChainSpec(kind="ising", n=n, Delta=0.5, field=field,
                          Delta13=0.3 if n == 3 else 0.0)
        for spec, baths in itertools.product((xxz, ising), (spin, bosonic)):
            assert np.isfinite(current_report(spec, baths, steady_for(spec, baths)).f_energy)
        for bond in range(1, n):
            bond_energy(xxz, bond)
            spin_current(xxz, np.eye(1 << n) / (1 << n), bond)
    info = _pauli_columns.cache_info()
    assert info.misses == info.currsize == info.maxsize


def test_only_operators_maps_sites_to_basis_bits():
    # a shift is how a site becomes a bit of a basis index; every other module reads the
    # Pauli strings instead of writing that rule again
    package = Path(__file__).resolve().parents[1] / "src" / "spinheat"
    shifting = sorted(
        path.name for path in package.glob("*.py") if path.name != "operators.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, (ast.LShift, ast.RShift)))
    assert shifting == []


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
