"""Heat, work, energy, magnetization currents and their identities."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinheat import (
    BathSpec,
    ChainSpec,
    KernelError,
    classify_regime,
    closed_form_currents_3site,
    current_report,
    energy_current_closed_form_3site,
    entropy_production_rate,
    spin_current,
    steady_for,
)
from spinheat.bathops import CURRENT_MARGIN, CURRENT_TAIL, bath_copy
from spinheat.currents import _rate_operators
from spinheat.models import build_hamiltonian
from spinheat.operators import site_op
from dense_reference import (
    energy_inflow,
    heat_rate_xxz_closed,
    kron_bond_energy,
    heat_work,
    lindblad_action,
    rate_operators_matmul,
    work_rate_xxz_closed,
)


def joint_rates(spec, bath, rho):
    """Reference ``(qdot, wdot)`` from the double commutator on the joint space.

    ``qdot = Tr([v, [v, H_b]] (rho (x) g)) / 2`` and
    ``wdot = -Tr([v, [v, H_b + H_s]] (rho (x) g)) / 2``, with a left bath
    before the chain and a right bath after it.
    """
    copy = bath_copy(bath, tail=CURRENT_TAIL, margin=CURRENT_MARGIN)
    if bath.side == "L":
        pair = lambda b_op, s_op: np.kron(b_op, s_op)
    else:
        pair = lambda b_op, s_op: np.kron(s_op, b_op)
    site = bath.boundary_site(spec.n)
    v = copy.prefactor * sum(
        pair(b_op, site_op(kind, site, spec.n)) for b_op, kind in copy.couplings
    )
    h_bath = pair(np.diag(copy.energies), np.eye(spec.dim))
    h_sys = pair(np.eye(copy.dim), build_hamiltonian(spec))
    rho_tot = pair(np.diag(copy.populations), rho)

    def rate(x):
        inner = v @ x - x @ v
        return 0.5 * float(np.einsum("ij,ji->", v @ inner - inner @ v, rho_tot).real)

    return rate(h_bath), -rate(h_bath + h_sys)


def opposite_driving_baths(f, h_L, h_R, gamma=1.0):
    """(beta, h) realizations of polarizations +f on the left, -f on the right."""
    beta_L = -2.0 * math.atanh(f) / h_L
    beta_R = 2.0 * math.atanh(f) / h_R
    return [
        BathSpec(side="L", beta=beta_L, h=h_L, gamma=gamma),
        BathSpec(side="R", beta=beta_R, h=h_R, gamma=gamma),
    ]


def test_energy_current_zero_on_the_diagonal():
    # equal thermodynamic arguments x = y mean equal polarizations: no flow
    assert energy_current_closed_form_3site(1.0, 0.7, 0.7, 1.0) == pytest.approx(0.0)
    assert energy_current_closed_form_3site(2.0, 0.5, 1.0, 1.0) == pytest.approx(0.0)


def test_energy_current_negative_off_diagonal():
    # the chain always loses energy through the boundaries when x != y
    rng = np.random.default_rng(30)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, size=2)
        if abs(x - y) < 1e-3:
            continue
        val = energy_current_closed_form_3site(1.0, x, 1.0, y)
        assert val < 0


def test_energy_current_symmetric_in_arguments():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, size=2)
        a = energy_current_closed_form_3site(1.0, x, 1.0, y)
        b = energy_current_closed_form_3site(1.0, y, 1.0, x)
        assert a == pytest.approx(b, rel=1e-13, abs=1e-15)


def test_energy_current_matches_full_solver():
    x, y = 0.8, -0.5
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0)
    baths = [BathSpec(side="L", beta=1.0, h=x), BathSpec(side="R", beta=1.0, h=y)]
    state = steady_for(spec, baths)
    rep = current_report(spec, baths, state)
    closed = energy_current_closed_form_3site(1.0, x, 1.0, y)
    assert rep.f_energy == pytest.approx(closed, rel=1e-10)


def test_closed_form_rates_match_general_formulas():
    rng = np.random.default_rng(32)
    spec = ChainSpec(kind="xxz", n=3, alpha=1.3, Delta=0.6, delta=0.4, h=0.2)
    for _ in range(5):
        f = rng.uniform(0.05, 0.6)
        h_L = -rng.uniform(0.3, 1.5)
        h_R = rng.uniform(0.3, 1.5)
        baths = opposite_driving_baths(f, h_L, h_R)
        state = steady_for(spec, baths)
        for b in baths:
            q1, w1 = heat_work(spec, b, state)
            q2 = heat_rate_xxz_closed(spec, b, state)
            w2 = work_rate_xxz_closed(spec, b, state)
            assert q1 == pytest.approx(q2, rel=1e-9, abs=1e-12)
            assert w1 == pytest.approx(w2, rel=1e-9, abs=1e-12)


def test_fully_solved_three_site_rates():
    # alpha = gamma = delta = 1, Delta = h = 0 against the rational closed form
    f, h_L, h_R = 0.3, 1.0, -0.5
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0)
    baths = opposite_driving_baths(f, h_L, h_R)
    state = steady_for(spec, baths)
    rep = current_report(spec, baths, state)
    cf = closed_form_currents_3site(
        alpha=1.0, gamma=1.0, delta=1.0, Delta=0.0, f=f, h_L=h_L, h_R=h_R
    )
    for name in ("qdot_L", "qdot_R", "wdot_L", "wdot_R"):
        assert getattr(rep, name) == pytest.approx(getattr(cf, name), rel=1e-9)


def test_zero_driving_means_zero_rates():
    cf = closed_form_currents_3site(1.0, 1.0, 1.0, 0.5, f=0.0, h_L=1.0, h_R=-0.5)
    assert cf.qdot_L == cf.qdot_R == cf.wdot_L == cf.wdot_R == 0.0


@pytest.mark.parametrize("f", [0.3, -0.5, 0.8])
def test_the_two_closed_forms_agree(f):
    # at alpha = gamma = delta = 1, Delta = h = 0, the rate closed form at
    # f_L = f = -f_R is the energy-current closed form at x = -y = -2 atanh f
    h_L, h_R = 1.0, -0.5
    left, right = opposite_driving_baths(f, h_L, h_R)
    cf = closed_form_currents_3site(1.0, 1.0, 1.0, 0.0, f=f, h_L=h_L, h_R=h_R)
    closed = energy_current_closed_form_3site(left.beta, h_L, right.beta, h_R)
    assert abs(cf.f_energy - closed) <= 4e-16
    assert abs(cf.wdot_total + cf.qdot_L + cf.qdot_R) <= 4e-16


def test_heat_scales_with_bath_splitting():
    # qdot_L / h_L = -qdot_R / h_R in the closed-form family
    cf = closed_form_currents_3site(1.2, 0.9, 0.7, 0.4, f=0.25, h_L=0.8, h_R=-1.1)
    assert cf.qdot_L / 0.8 == pytest.approx(-cf.qdot_R / (-1.1), rel=1e-12)
    zero_left = closed_form_currents_3site(1.2, 0.9, 0.7, 0.4, f=0.25, h_L=0.0, h_R=-1.1)
    assert zero_left.qdot_L == 0.0


def test_energy_inflow_equals_heat_plus_work():
    spec = ChainSpec(kind="xxz", n=3, alpha=0.8, Delta=0.5, delta=0.3, h=0.4)
    baths = [
        BathSpec(side="L", beta=0.7, h=1.2, gamma=1.1),
        BathSpec(side="R", beta=1.8, h=-0.6, gamma=0.6),
    ]
    state = steady_for(spec, baths)
    for b in baths:
        inflow = energy_inflow(spec, b, state)
        q, w = heat_work(spec, b, state)
        assert inflow == pytest.approx(q + w, rel=1e-9, abs=1e-12)
    total = sum(energy_inflow(spec, b, state) for b in baths)
    assert abs(total) < 1e-12


def test_energy_inflow_works_for_f_only_baths():
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.2)
    baths = [BathSpec(side="L", f=0.4), BathSpec(side="R", f=-0.1)]
    state = steady_for(spec, baths)
    vals = [energy_inflow(spec, b, state) for b in baths]
    assert vals[0] == pytest.approx(-vals[1], rel=1e-10)


def test_heat_work_need_bath_energetics():
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0)
    bath = BathSpec(side="L", f=0.4)
    state = steady_for(spec, [bath, BathSpec(side="R", f=-0.1)])
    with pytest.raises(ValueError, match=r"heat and work.*\(beta, h\)"):
        heat_work(spec, bath, state)


def test_bond_energies_stationary():
    # d<eps_b>/dt = Tr(eps_b L(rho)) = 0 for every bond in steady state
    spec = ChainSpec(kind="xxz", n=3, alpha=1.1, Delta=0.9, delta=0.5, h=0.3)
    baths = [
        BathSpec(side="L", beta=0.9, h=0.8, gamma=1.4),
        BathSpec(side="R", beta=1.6, h=-0.7, gamma=0.5),
    ]
    state = steady_for(spec, baths)
    change = lindblad_action(spec, baths, state.rho)
    for bond in (1, 2):
        eps = kron_bond_energy(spec, bond)
        drift = float(np.einsum("ij,ji->", eps, change).real)
        assert abs(drift) < 1e-9


def test_first_law_in_the_report():
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.4, delta=0.2)
    baths = [
        BathSpec(side="L", beta=0.8, h=1.0, gamma=1.0),
        BathSpec(side="R", beta=2.2, h=-0.5, gamma=1.0),
    ]
    rep = current_report(spec, baths, steady_for(spec, baths))
    total = rep.qdot_L + rep.qdot_R + rep.wdot_L + rep.wdot_R
    assert abs(total) < 1e-12
    assert rep.f_energy == pytest.approx(rep.qdot_L + rep.wdot_L)
    assert rep.wdot_total == pytest.approx(rep.wdot_L + rep.wdot_R)


def test_report_rejects_nonstationary_state():
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.3)
    baths = [
        BathSpec(side="L", beta=1.0, h=1.0),
        BathSpec(side="R", beta=2.0, h=-0.5),
    ]
    rho = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    with pytest.raises(ValueError, match="first law"):
        current_report(spec, baths, rho)


def test_report_rejects_rates_a_bath_overflows():
    # beta = -1, h = 1e308: the bath's heat moment overflows, and NaN rates
    # would pass the first-law test; numpy's overflow warning stays quiet
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, delta=1.0)
    baths = [BathSpec(side="L", beta=-1.0, h=1e308), BathSpec(side="R", beta=2.0, h=-0.5)]
    with pytest.raises(ValueError, match="rates are not finite: qdot_L=nan"):
        current_report(spec, baths, steady_for(spec, baths))


@pytest.mark.parametrize("shape", [(4, 4), (16, 16), (8,)])
def test_rates_reject_a_state_of_another_shape(shape):
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5)
    baths = [BathSpec(side="L", beta=1.0, h=0.7), BathSpec(side="R", beta=2.0, h=-0.4)]
    rho = np.full(shape, 1 / 8)
    for rate in (lambda: current_report(spec, baths, rho), lambda: spin_current(spec, rho)):
        with pytest.raises(ValueError, match="does not match a 3-site chain"):
            rate()


def test_rates_reject_two_baths_on_one_side():
    # the second left bath has the first's polarization, so the state stays
    # stationary and only the side check can refuse the list
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5, h=0.2)
    left, right = BathSpec(side="L", beta=1.0, h=0.7), BathSpec(side="R", beta=2.0, h=-0.4)
    state = steady_for(spec, [left, right])
    report = current_report(spec, [left, right], state)
    baths = [left, BathSpec(side="L", beta=0.5, h=1.4), right]
    with pytest.raises(ValueError, match="at most one bath per side"):
        current_report(spec, baths, state)
    with pytest.raises(ValueError, match="at most one bath per side"):
        entropy_production_rate(report.qdot_L, report.qdot_R, baths)
    with pytest.raises(ValueError, match="at most one bath per side"):
        classify_regime(report, baths)


def test_ising_bosonic_exact_rates():
    # each bosonic bath pumps w = g^2 omega of work in and sends the same
    # amount back out as heat, independent of the chain parameters
    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    baths = [
        BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
        BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3),
    ]
    state = steady_for(spec, baths)
    rep = current_report(spec, baths, state)
    assert rep.qdot_L == pytest.approx(-0.4 ** 2 * 1.0, rel=1e-10)
    assert rep.wdot_L == pytest.approx(+0.4 ** 2 * 1.0, rel=1e-10)
    assert rep.qdot_R == pytest.approx(-0.3 ** 2 * 1.3, rel=1e-10)
    assert rep.wdot_R == pytest.approx(+0.3 ** 2 * 1.3, rel=1e-10)
    assert abs(rep.f_energy) < 1e-12
    # entropy production is then beta_L g_L^2 w_L + beta_R g_R^2 w_R
    expected_pi = 1.0 * 0.4 ** 2 * 1.0 + 2.0 * 0.3 ** 2 * 1.3
    assert rep.pi_ss == pytest.approx(expected_pi, rel=1e-10)


@st.composite
def bath_and_state(draw):
    """An xxz or ising chain of 2 to 4 sites, one spin or bosonic bath on either side, and
    any Hermitian unit-trace matrix: the rates are linear functionals of rho."""
    kind = draw(st.sampled_from(["xxz", "ising"]))
    n = draw(st.integers(2, 4))
    coupling = draw(st.floats(0.3, 2.0))
    anisotropy = draw(st.floats(-1.5, 1.5))
    h = draw(st.floats(-1.0, 1.0))
    bosonic = draw(st.booleans())
    side = draw(st.sampled_from(["L", "R"]))
    beta = draw(st.floats(0.8, 2.0))
    energy = draw(st.floats(0.6, 1.5))
    rate = draw(st.floats(0.2, 1.5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "xxz":
        spec = ChainSpec(kind="xxz", n=n, alpha=coupling, Delta=anisotropy, h=h)
    else:
        spec = ChainSpec(kind="ising", n=n, Delta=anisotropy, h=h)
    if bosonic:
        bath = BathSpec(side=side, kind="bosonic", beta=beta, omega=energy, g=rate)
    else:
        bath = BathSpec(side=side, beta=beta, h=energy, gamma=rate)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(spec.dim,) * 2) + 1j * rng.normal(size=(spec.dim,) * 2)
    rho = (a + a.conj().T) / 2
    rho += (1.0 - np.trace(rho)) / spec.dim * np.eye(spec.dim)
    return spec, bath, rho


@settings(max_examples=40, deadline=None)
@given(drawn=bath_and_state())
def test_rate_operators_match_joint_space(drawn):
    spec, bath, rho = drawn
    q_ref, w_ref = joint_rates(spec, bath, rho)
    q, w = heat_work(spec, bath, rho)
    assert abs(q - q_ref) <= 1e-12
    assert abs(w - w_ref) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(drawn=bath_and_state())
def test_heat_plus_work_is_the_dissipator_inflow(drawn):
    # Tr(O_q rho) + Tr(O_w rho) = Tr(H D_side(rho)) holds for every rho, not only the
    # steady state.  The gap is rounding: the rates of a drawn rho reach ~1e2, and over
    # 6000 draws it stayed below 6.2e-14 of the larger rate, hence 1e-12 relative.
    spec, bath, rho = drawn
    q, w = heat_work(spec, bath, rho)
    assert abs(q + w - energy_inflow(spec, bath, rho)) <= 1e-12 * max(1.0, abs(q), abs(w))


@given(
    kind=st.sampled_from(["xxz", "ising"]),
    n=st.integers(2, 5),
    alpha=st.floats(0.3, 2.0),
    couplings=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    fields=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    bosonic=st.booleans(),
    side=st.sampled_from(["L", "R"]),
    beta=st.floats(0.8, 2.0),
    energy=st.floats(0.6, 1.5),
    rate=st.floats(0.2, 1.5),
    seed=st.integers(0, 2 ** 32 - 1),
)
# O_w is exactly 0 here and the matrix products leave 4.4e-16 of O_q's rounding in it
@example(kind="ising", n=2, alpha=1.0, couplings=[0.0] * 4, fields=[1.0] + [0.0] * 4,
         bosonic=False, side="L", beta=1.0, energy=1.0, rate=1.0, seed=0)
def test_rate_operators_from_the_bit_flip_match_the_matrix_products(
    kind, n, alpha, couplings, fields, bosonic, side, beta, energy, rate, seed
):
    # the same sums in another order: within 1e-14 of the largest entry of
    # O_q and O_w, and so are the rates of any Hermitian rho.  O_w is formed
    # as -O_q - ..., so its rounding is at the larger operator's scale
    spec = ChainSpec(kind=kind, n=n, alpha=alpha if kind == "xxz" else 0.0,
                     bond_Delta=tuple(couplings[:n - 1]), field=tuple(fields[:n]))
    if bosonic:
        bath = BathSpec(side=side, kind="bosonic", beta=beta, omega=energy, g=rate)
    else:
        bath = BathSpec(side=side, beta=beta, h=energy, gamma=rate)
    h = build_hamiltonian(spec)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(spec.dim,) * 2) + 1j * rng.normal(size=(spec.dim,) * 2)
    rho = (a + a.conj().T) / 2
    expected_ops = rate_operators_matmul(spec, bath, h)
    bound = 1e-14 * max(np.max(np.abs(expected)) for expected in expected_ops)
    for got, expected in zip(_rate_operators(spec, bath, h), expected_ops):
        assert np.max(np.abs(got - expected)) <= bound
        assert abs(np.vdot(got.conj().T, rho) - np.vdot(expected.conj().T, rho)) \
            <= bound * np.sum(np.abs(rho))


@st.composite
def field_free_xxz_drives(draw):
    """A field-free xxz chain with random bonds between two random spin baths."""
    n = draw(st.integers(2, 5))
    spec = ChainSpec(
        kind="xxz", n=n, alpha=draw(st.floats(0.3, 2.0)),
        bond_Delta=tuple(draw(st.floats(-1.5, 1.5)) for _ in range(n - 1)),
    )
    baths = [
        BathSpec(side=side, beta=draw(st.floats(0.3, 3.0)), h=draw(st.floats(-2.0, 2.0)),
                 gamma=draw(st.floats(0.3, 2.0)))
        for side in ("L", "R")
    ]
    return spec, baths


@settings(max_examples=30, deadline=None)
@given(drive=field_free_xxz_drives())
def test_one_way_street_flip_f_leaves_every_rate(drive):
    # flipping both bath fields inverts both drivings f -> -f; without a chain
    # field a global spin flip maps the flipped problem back onto the original
    spec, baths = drive
    flipped = [replace(b, h=-b.h) for b in baths]
    base = current_report(spec, baths, steady_for(spec, baths))
    flip = current_report(spec, flipped, steady_for(spec, flipped))
    for name in ("f_energy", "qdot_L", "qdot_R", "wdot_L", "wdot_R"):
        assert abs(getattr(base, name) - getattr(flip, name)) <= 1e-10, name


@st.composite
def ising_bosonic_chains(draw, max_sites=5):
    """An ising chain of 2 to ``max_sites`` sites between two random bosonic baths.

    Fields and bonds lie in [-1.5, 1.5] and are often exactly 0, which makes
    degenerate kernels of dimension up to 256.  The other fields are odd
    multiples of 0.05 and the other bonds multiples of 0.1, as in
    ``degenerate_chains``, so every boundary flip frequency is 0 or at least
    0.05: a frequency near 0 but not 0 splits the kernel only far below the
    tolerance, and the solver refuses such a chain (see
    ``test_nearly_degenerate_dead_wire_is_refused_at_the_default_tolerance``).
    """
    n = draw(st.integers(2, max_sites))
    field = st.one_of(st.just(0.0), st.integers(-15, 14).map(lambda k: (2 * k + 1) * 0.05))
    bond = st.one_of(st.just(0.0), st.integers(-15, 15).map(lambda k: k * 0.1))
    spec = ChainSpec(
        kind="ising", n=n, field=tuple(draw(field) for _ in range(n)),
        bond_Delta=tuple(draw(bond) for _ in range(n - 1)),
        Delta13=draw(bond) if n == 3 else 0.0,
    )
    baths = [
        BathSpec(side=side, kind="bosonic", beta=draw(st.floats(0.5, 3.0)),
                 omega=draw(st.floats(0.5, 2.0)), g=draw(st.floats(0.1, 1.0)))
        for side in ("L", "R")
    ]
    return spec, baths


@settings(max_examples=40, deadline=None)
@given(drive=ising_bosonic_chains())
def test_ising_bosonic_heat_is_minus_work_on_random_chains(drive):
    # the paper's dead wire: no net energy flow, yet each bosonic bath takes
    # g^2 omega of work in and gives it back as heat
    spec, baths = drive
    rep = current_report(spec, baths, steady_for(spec, baths))
    assert abs(rep.f_energy) <= 1e-10
    for bath, q, w in zip(baths, (rep.qdot_L, rep.qdot_R), (rep.wdot_L, rep.wdot_R)):
        assert abs(q + bath.g ** 2 * bath.omega) <= 1e-10
        assert abs(w - bath.g ** 2 * bath.omega) <= 1e-10


def test_nearly_degenerate_dead_wire_is_refused_at_the_default_tolerance():
    # at zero field the jumps leave a 4-dimensional kernel (I, x1, x2, x1 x2);
    # fields of 1e-6 split it only at ~1e-11, below the default gap rule
    spec = ChainSpec(kind="ising", n=2, field=(0.0, 1e-6), bond_Delta=(1e-6,))
    baths = [BathSpec(side=side, kind="bosonic", beta=1.0, omega=1.0, g=0.125)
             for side in ("L", "R")]
    with pytest.raises(KernelError, match="ill-conditioned kernel"):
        steady_for(spec, baths)
    g2w = 0.125 ** 2
    for tol, path in ((1e-13, ("bordered", 1)), (1e-9, ("svd", 4))):
        state = steady_for(spec, baths, tol=tol)
        assert (state.solver, state.nullspace_dim) == path
        rep = current_report(spec, baths, state)
        assert abs(rep.f_energy) <= 1e-10
        for q, w in ((rep.qdot_L, rep.wdot_L), (rep.qdot_R, rep.wdot_R)):
            assert abs(q + g2w) <= 1e-10
            assert abs(w - g2w) <= 1e-10


@st.composite
def ising_kernel_mixtures(draw):
    """An ising chain of 2 to 4 sites, bosonic baths, and one weight per middle-spin configuration."""
    spec, baths = draw(ising_bosonic_chains(max_sites=4))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=2 ** (spec.n - 2),
                            max_size=2 ** (spec.n - 2)).filter(lambda w: sum(w) > 0.1))
    return spec, baths, weights


@settings(max_examples=25, deadline=None)
@given(drive=ising_kernel_mixtures())
def test_ising_bosonic_rates_do_not_depend_on_the_kernel_mixture(drive):
    # the middle spins are never flipped, so the steady state restricted to one
    # middle configuration is stationary on its own, and any convex mixture of
    # those is too; each must give F = 0 and the same g^2 omega split
    spec, baths, weights = drive
    rho = steady_for(spec, baths).rho
    middle = (np.arange(spec.dim) >> 1) % 2 ** (spec.n - 2)  # sites 1..n-2 of each basis state
    mixture = np.zeros_like(rho)
    for config, weight in enumerate(weights):
        inside = middle == config
        sector = np.where(inside[:, None] & inside[None, :], rho, 0.0)
        mixture += weight * sector / np.trace(sector).real
    mixture /= sum(weights)
    assert np.max(np.abs(lindblad_action(spec, baths, mixture))) <= 1e-10
    rep = current_report(spec, baths, mixture)
    assert abs(rep.f_energy) <= 1e-10
    for bath, q, w in zip(baths, (rep.qdot_L, rep.qdot_R), (rep.wdot_L, rep.wdot_R)):
        assert abs(q + bath.g ** 2 * bath.omega) <= 1e-10
        assert abs(w - bath.g ** 2 * bath.omega) <= 1e-10


def test_hot_bosonic_baths_beyond_the_joint_space_cap():
    # beta omega = 0.06 keeps 542 Fock levels: a joint space of 4336 > 4096,
    # yet each rate is an expectation on the 8-dimensional chain space
    spec = ChainSpec(
        kind="ising", n=3, field=(0.4, 0.3, 0.7), bond_Delta=(0.9, 1.1), Delta13=0.6
    )
    baths = [
        BathSpec(side="L", kind="bosonic", beta=0.06, omega=1.0, g=0.5),
        BathSpec(side="R", kind="bosonic", beta=0.06 / 1.3, omega=1.3, g=0.35),
    ]
    assert bath_copy(baths[0], tail=CURRENT_TAIL, margin=CURRENT_MARGIN).dim == 542
    rep = current_report(spec, baths, steady_for(spec, baths))
    w_l, w_r = 0.5 ** 2 * 1.0, 0.35 ** 2 * 1.3
    assert rep.qdot_L == pytest.approx(-w_l, rel=1e-10)
    assert rep.wdot_L == pytest.approx(+w_l, rel=1e-10)
    assert rep.qdot_R == pytest.approx(-w_r, rel=1e-10)
    assert rep.wdot_R == pytest.approx(+w_r, rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(beta_omega=st.floats(8e-3, 60.0), omega=st.floats(0.1, 3.0))
def test_fock_cutoff_bounds_the_top_level_weight(beta_omega, omega):
    # bose_n_max keeps at least ln(1 / tail) / (beta omega) + margin levels
    # above the ground state, so the top one weighs at most
    # tail e^{-margin beta omega}; the slack covers the rounding of the
    # exponentials.  beta omega = 8e-3 is near the least the dense cap admits.
    bath = BathSpec(side="L", kind="bosonic", beta=beta_omega / omega, omega=omega, g=0.3)
    copy = bath_copy(bath, tail=CURRENT_TAIL, margin=CURRENT_MARGIN)
    bound = CURRENT_TAIL * math.exp(-CURRENT_MARGIN * bath.beta * bath.omega)
    assert copy.populations[-1] <= bound * (1 + 1e-12)


def test_ising_spin_all_rates_vanish():
    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    baths = [
        BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
        BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8),
    ]
    rep = current_report(spec, baths, steady_for(spec, baths))
    for name in ("qdot_L", "qdot_R", "wdot_L", "wdot_R", "pi_ss"):
        assert abs(getattr(rep, name)) < 1e-12


def test_entropy_production_nonnegative():
    rng = np.random.default_rng(33)
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5, delta=0.5, h=0.1)
    for _ in range(5):
        baths = [
            BathSpec(side="L", beta=rng.uniform(0.3, 2), h=rng.uniform(-1.5, 1.5), gamma=1.0),
            BathSpec(side="R", beta=rng.uniform(0.3, 2), h=rng.uniform(-1.5, 1.5), gamma=1.0),
        ]
        rep = current_report(spec, baths, steady_for(spec, baths))
        assert rep.pi_ss >= -1e-10


def test_entropy_production_needs_temperatures():
    with pytest.raises(ValueError):
        entropy_production_rate(0.1, -0.1, [BathSpec(side="L", f=0.2), BathSpec(side="R", f=0.0)])


def test_entropy_production_spin_current_identity():
    # for spin baths, Pi = (h_R beta_R - h_L beta_L) J / 2
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.7, delta=0.3)
    baths = [
        BathSpec(side="L", beta=0.9, h=1.1, gamma=1.2),
        BathSpec(side="R", beta=1.7, h=-0.8, gamma=0.7),
    ]
    state = steady_for(spec, baths)
    rep = current_report(spec, baths, state)
    lhs = rep.pi_ss
    rhs = (baths[1].h * baths[1].beta - baths[0].h * baths[0].beta) * rep.j_spin / 2
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-13)


def test_spin_current_bond_independent():
    spec = ChainSpec(kind="xxz", n=3, alpha=0.9, Delta=0.8, delta=0.4, h=0.6)
    baths = [BathSpec(side="L", f=0.5, gamma=1.0), BathSpec(side="R", f=-0.2, gamma=1.3)]
    state = steady_for(spec, baths)
    j1 = spin_current(spec, state, bond=1)
    j2 = spin_current(spec, state, bond=2)
    assert j1 == pytest.approx(j2, rel=1e-10)


def test_spin_current_zero_without_bias():
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5, delta=0.2)
    baths = [BathSpec(side="L", f=0.3, gamma=1.0), BathSpec(side="R", f=0.3, gamma=1.0)]
    state = steady_for(spec, baths)
    assert abs(spin_current(spec, state)) < 1e-12


def test_spin_current_linear_response():
    # J is linear in the driving for small opposite polarizations
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.7, delta=0.3)
    vals = []
    for f in (1e-3, 2e-3, 4e-3):
        baths = [BathSpec(side="L", f=f, gamma=1.0), BathSpec(side="R", f=-f, gamma=1.0)]
        vals.append(spin_current(spec, steady_for(spec, baths)))
    assert vals[1] / vals[0] == pytest.approx(2.0, rel=1e-4)
    assert vals[2] / vals[1] == pytest.approx(2.0, rel=1e-4)


def test_spin_current_rejects_ising():
    spec = ChainSpec(kind="ising", n=2, Delta=1.0)
    with pytest.raises(ValueError):
        spin_current(spec, np.eye(4) / 4)


def mock_report(q_cold, q_hot, w):
    """Rates with the right bath colder; only signs matter for the regime."""
    return CurrentReportStub(qdot_L=q_hot, qdot_R=q_cold, wdot_total=w)


class CurrentReportStub:
    def __init__(self, qdot_L, qdot_R, wdot_total):
        self.qdot_L = qdot_L
        self.qdot_R = qdot_R
        self.wdot_total = wdot_total


REGIME_BATHS = [
    BathSpec(side="L", beta=2.0, h=1.0),  # hotter
    BathSpec(side="R", beta=9.0, h=0.2),  # colder
]


def test_regime_classification_signs():
    assert classify_regime(mock_report(+1.0, -1.0, +0.5), REGIME_BATHS) == "Refrigerator"
    assert classify_regime(mock_report(-1.0, +2.0, +1.0), REGIME_BATHS) == "Heater"
    assert classify_regime(mock_report(-1.0, +2.0, -1.0), REGIME_BATHS) == "Engine"
    assert classify_regime(mock_report(+1.0, +1.0, -0.5), REGIME_BATHS) == "Other"
    # anything at the tolerance floor is Other
    assert classify_regime(mock_report(1e-14, -1.0, 1.0), REGIME_BATHS) == "Other"


def test_regime_needs_two_temperatures():
    baths = [BathSpec(side="L", f=0.1), BathSpec(side="R", beta=1.0, h=0.5)]
    assert classify_regime(mock_report(1.0, -1.0, 1.0), baths) == "Other"
    equal = [BathSpec(side="L", beta=1.0, h=1.0), BathSpec(side="R", beta=1.0, h=0.5)]
    assert classify_regime(mock_report(1.0, -1.0, 1.0), equal) == "Other"


def test_report_carries_regime_and_entropy():
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0)
    baths = [
        BathSpec(side="L", beta=2.0, h=1.2, gamma=1.0),
        BathSpec(side="R", beta=9.0, h=0.2, gamma=1.0),
    ]
    rep = current_report(spec, baths, steady_for(spec, baths))
    assert rep.regime in ("Refrigerator", "Heater", "Engine", "Other")
    assert rep.pi_ss == pytest.approx(entropy_production_rate(rep.qdot_L, rep.qdot_R, baths))
