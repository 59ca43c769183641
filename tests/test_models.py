"""Chain/bath parameter validation and Hamiltonians."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat import (
    BathSpec,
    ChainSpec,
    bath_f,
    bath_n,
    build_hamiltonian,
    with_f,
)
from spinheat import DimensionLimitError
from dense_reference import kron_hamiltonian


def test_xxz_bond_split_three_sites():
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0)
    assert spec.bond_couplings == (-1.0, 1.0)
    spec2 = ChainSpec(kind="xxz", n=3, Delta=2.0, delta=0.5)
    assert spec2.bond_couplings == (1.5, 2.5)


def test_xxz_hamiltonian_hermitian_traceless():
    spec = ChainSpec(kind="xxz", n=3, alpha=0.7, Delta=1.3, delta=0.4, h=0.9)
    h = build_hamiltonian(spec)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    assert abs(np.trace(h)) < 1e-12


def test_xxz_all_zero_couplings_gives_zero():
    spec = ChainSpec(kind="xxz", n=3)
    assert np.max(np.abs(build_hamiltonian(spec))) == 0.0


def test_xxz_two_site_explicit():
    # alpha (xx + yy) + Delta zz + (h/2)(z1 + z2), written out by hand
    alpha, Delta, h = 0.6, 1.1, 0.8
    spec = ChainSpec(kind="xxz", n=2, alpha=alpha, Delta=Delta, h=h)
    got = build_hamiltonian(spec)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2)
    expected = alpha * (np.kron(sx, sx) + np.kron(sy, sy)) + Delta * np.kron(sz, sz)
    expected += (h / 2) * (np.kron(sz, eye) + np.kron(eye, sz))
    assert np.allclose(got, expected, atol=1e-14)


@st.composite
def chain_specs(draw):
    """Chains of 2 to 6 sites with couplings of either sign and any scale, 0 and -0 included."""
    value = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    kind = draw(st.sampled_from(["xxz", "ising"]))
    n = draw(st.integers(2, 6))
    params = {"kind": kind, "n": n, "h": draw(value), "Delta": draw(value)}
    if kind == "xxz":
        params["alpha"] = draw(value)
    if draw(st.booleans()):
        params["field"] = tuple(draw(value) for _ in range(n))
    if draw(st.booleans()):
        params["bond_Delta"] = tuple(draw(value) for _ in range(n - 1))
    elif n == 3:
        params["delta"] = draw(value)
    if kind == "ising" and n == 3:
        params["Delta13"] = draw(value)
    return ChainSpec(**params)


@settings(max_examples=200, deadline=None)
@given(spec=chain_specs())
def test_hamiltonian_has_the_bits_of_the_kronecker_sum(spec):
    assert build_hamiltonian(spec).tobytes() == kron_hamiltonian(spec).tobytes()


def test_ising_two_site_diagonal():
    # no transverse part and the explicit 1/2 on the coupling
    spec = ChainSpec(kind="ising", n=2, Delta=2.0)
    h = build_hamiltonian(spec)
    assert np.allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)


def test_ising_hamiltonian_always_diagonal():
    spec = ChainSpec(
        kind="ising", n=3, field=(0.4, 0.3, 0.7), bond_Delta=(0.9, 1.1), Delta13=0.6
    )
    h = build_hamiltonian(spec)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_ising_long_range_coupling_term():
    base = ChainSpec(kind="ising", n=3, Delta=1.0)
    withlr = ChainSpec(kind="ising", n=3, Delta=1.0, Delta13=0.8)
    diff = build_hamiltonian(withlr) - build_hamiltonian(base)
    sz = np.diag([1.0, -1.0]).astype(complex)
    expected = 0.4 * np.kron(np.kron(sz, np.eye(2)), sz)
    assert np.allclose(diff, expected, atol=1e-15)


def test_per_site_field_override():
    spec = ChainSpec(kind="xxz", n=3, h=9.0, field=(0.1, 0.2, 0.3))
    assert spec.site_fields == (0.1, 0.2, 0.3)
    uniform = ChainSpec(kind="xxz", n=3, h=0.5)
    assert uniform.site_fields == (0.5, 0.5, 0.5)


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainSpec(kind="xy", n=3)
    with pytest.raises(ValueError):
        ChainSpec(kind="xxz", n=1)
    for n in (2.5, 3.0, True):  # 2.5 and 3.0 gave dim 5.66 and 8.0
        with pytest.raises(ValueError, match="number of sites must be an integer"):
            ChainSpec(kind="xxz", n=n, alpha=1.0)
    assert ChainSpec(kind="xxz", n=np.int64(3)).dim == 8
    with pytest.raises(ValueError):
        ChainSpec(kind="xxz", n=3, field=(1.0, 2.0))
    with pytest.raises(ValueError):
        ChainSpec(kind="xxz", n=3, bond_Delta=(1.0,))
    with pytest.raises(ValueError):
        ChainSpec(kind="ising", n=2, alpha=1.0)
    with pytest.raises(ValueError):
        ChainSpec(kind="ising", n=2, Delta13=0.5)
    with pytest.raises(ValueError):
        ChainSpec(kind="xxz", n=3, Delta13=0.5)
    with pytest.raises(ValueError):
        ChainSpec(kind="xxz", n=4, delta=0.5)  # the split rule is 3-site only
    with pytest.raises(DimensionLimitError):
        ChainSpec(kind="xxz", n=7)  # Liouvillian would be 16384-dimensional


def test_delta_with_explicit_bonds_allowed_on_any_length():
    spec = ChainSpec(kind="xxz", n=4, delta=0.5, bond_Delta=(1.0, 2.0, 3.0))
    assert spec.bond_couplings == (1.0, 2.0, 3.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: ChainSpec(kind="xxz", n=3, alpha=NAN),
    lambda: ChainSpec(kind="xxz", n=3, Delta=INF),
    lambda: ChainSpec(kind="xxz", n=3, delta=-INF),
    lambda: ChainSpec(kind="xxz", n=3, h=NAN),
    lambda: ChainSpec(kind="xxz", n=3, field=(0.1, NAN, 0.2)),
    lambda: ChainSpec(kind="xxz", n=3, bond_Delta=(INF, 1.0)),
    lambda: ChainSpec(kind="ising", n=3, Delta13=NAN),
    lambda: BathSpec(side="L", beta=NAN, h=1.0),
    lambda: BathSpec(side="L", beta=INF, h=1.0),
    lambda: BathSpec(side="R", beta=1.0, h=INF),
    lambda: BathSpec(side="L", beta=1.0, h=1.0, gamma=NAN),
    lambda: BathSpec(side="L", f=NAN),
    lambda: BathSpec(side="L", kind="bosonic", beta=INF, omega=1.0, g=0.5),
    lambda: BathSpec(side="L", kind="bosonic", beta=1.0, omega=INF, g=0.5),
    lambda: BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=NAN),
])
def test_specs_reject_non_finite_numbers(make):
    # a zero-temperature bath is a large finite beta, never inf
    with pytest.raises(ValueError, match="finite"):
        make()


def test_bath_validation():
    with pytest.raises(ValueError):
        BathSpec(side="M", beta=1.0, h=1.0)
    with pytest.raises(ValueError):
        BathSpec(side="L", kind="fermionic", beta=1.0, h=1.0)
    with pytest.raises(ValueError):
        BathSpec(side="L")  # spin bath with nothing given
    with pytest.raises(ValueError):
        BathSpec(side="L", beta=1.0, h=1.0, f=0.2)  # both parametrizations
    with pytest.raises(ValueError):
        BathSpec(side="L", f=1.5)
    with pytest.raises(ValueError):
        BathSpec(side="L", beta=1.0, h=1.0, gamma=-0.1)
    with pytest.raises(ValueError):
        BathSpec(side="L", kind="bosonic", beta=1.0, g=0.5)  # no omega
    with pytest.raises(ValueError):
        BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0)  # no g
    with pytest.raises(ValueError):
        BathSpec(side="L", kind="bosonic", beta=-1.0, omega=1.0, g=0.5)
    with pytest.raises(ValueError):
        BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.5, f=0.1)


@pytest.mark.parametrize("kwargs, match", [
    ({"beta": 1.0, "h": 0.5, "omega": 7.0}, "omega and g apply to bosonic baths only"),
    ({"f": 0.3, "g": 3.0}, "omega and g apply to bosonic baths only"),
    ({"kind": "bosonic", "beta": 1.0, "omega": 1.0, "g": 0.5, "h": 9.0},
     "f and h apply to spin baths only"),
    ({"kind": "bosonic", "beta": 1.0, "omega": 1.0, "g": 0.4, "gamma": 4.0},
     "gamma applies to spin baths only"),
], ids=["spin-omega", "f-only-g", "bosonic-h", "bosonic-gamma"])
def test_a_key_of_the_other_bath_kind_is_refused(kwargs, match):
    # unrefused, nothing would read it: the rates of a spin bath come from
    # (beta, h) or f and gamma, those of a bosonic bath from (beta, omega, g)
    with pytest.raises(ValueError, match=match):
        BathSpec(side="L", **kwargs)


def test_spin_bath_accepts_negative_beta():
    # population inversion is physical for a two-level reservoir
    b = BathSpec(side="L", beta=-0.5, h=1.0)
    assert bath_f(b) == pytest.approx(math.tanh(0.25))


def test_bath_f_values():
    assert bath_f(BathSpec(side="L", beta=2.0, h=0.0)) == 0.0
    assert bath_f(BathSpec(side="L", beta=2.0, h=1.0)) == pytest.approx(-math.tanh(1.0))
    assert bath_f(BathSpec(side="R", f=0.3)) == 0.3
    with pytest.raises(ValueError):
        bath_f(BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.5))


def test_bath_n_values():
    b = BathSpec(side="L", kind="bosonic", beta=math.log(2.0), omega=1.0, g=1.0)
    assert bath_n(b) == pytest.approx(1.0, rel=1e-14)
    cold = BathSpec(side="L", kind="bosonic", beta=50.0, omega=1.0, g=1.0)
    assert bath_n(cold) < 1e-20
    with pytest.raises(ValueError):
        bath_n(BathSpec(side="L", beta=1.0, h=1.0))


def test_decomposable_flag():
    assert BathSpec(side="L", beta=1.0, h=1.0).decomposable
    assert not BathSpec(side="L", f=0.2).decomposable
    assert BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.5).decomposable


def test_boundary_site():
    assert BathSpec(side="L", f=0.0).boundary_site(5) == 1
    assert BathSpec(side="R", f=0.0).boundary_site(5) == 5


def test_with_f_round_trip():
    b = BathSpec(side="L", beta=1.7, h=0.4)
    target = -0.35
    b2 = with_f(b, target)
    assert b2.beta == b.beta
    assert bath_f(b2) == pytest.approx(target, rel=1e-14)
    # f-only baths just swap the value
    b3 = with_f(BathSpec(side="R", f=0.1), 0.9)
    assert b3.f == 0.9


def test_with_f_edge_cases():
    with pytest.raises(ValueError):
        with_f(BathSpec(side="L", beta=1.0, h=1.0), 1.0)  # needs infinite field
    with pytest.raises(ValueError):
        with_f(BathSpec(side="L", beta=0.0, h=1.0), 0.5)  # infinite temperature
    same = with_f(BathSpec(side="L", beta=0.0, h=1.0), 0.0)
    assert same.h == 1.0
    with pytest.raises(ValueError):
        with_f(BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.5), 0.1)
