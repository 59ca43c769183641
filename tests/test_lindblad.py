"""Dissipators, jump operators, and the vectorized generator."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat import (
    BathSpec,
    ChainSpec,
    CollisionEngine,
    RIConfig,
    bosonic_rates,
    build_hamiltonian,
    Liouvillian,
    build_liouvillian,
    jump_ops,
    unvec,
    vec,
)
from spinheat import lindblad
from spinheat.cli import build_bath, build_chain, load_config
from dense_reference import (
    dense,
    dissipator_action,
    from_jumps_reference,
    lindblad_action,
    liouvillian_matrix,
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
        scale = np.linalg.norm(liou.values)
        for _ in range(3):
            rho = random_state(rng, spec.dim)
            lhs = liou.apply(vec(rho))
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


def einsum_reference(h, jumps):
    """The generator with its jump term ``sum_k conj(L_k) kron L_k`` as one einsum.

    The einsum writes the ``[j, i, l, k]`` view of the buffer in one call;
    the rest is as in ``liouvillian_matrix``.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    stack = np.asarray(jumps, dtype=complex).reshape(-1, d, d)
    h_eff = h - 0.5j * np.einsum("aki,akj->ij", stack.conj(), stack)
    m = np.empty((d * d, d * d), dtype=complex)
    view = m.reshape(d, d, d, d)
    np.einsum("ajl,aik->jilk", stack.conj(), stack, out=view)
    for r in range(d):
        view[r, :, r, :] -= 1j * h_eff
        view[:, r, :, r] += 1j * h_eff.conj()
    return m


@pytest.mark.parametrize("count", [0, 1, 4, 64])
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_matrix_matches_einsum_reference_exactly(count, d):
    # Gaussian-integer entries make every sum exact, so any summation order
    # gives the same bits and the comparison pins the index layout alone
    rng = np.random.default_rng(26)

    def integers(*shape):
        return rng.integers(-3, 4, size=shape) + 1j * rng.integers(-3, 4, size=shape)

    h = integers(d, d)
    h = h + h.conj().T
    stack = integers(count, d, d)
    assert np.array_equal(liouvillian_matrix(h, stack), einsum_reference(h, stack))
    assert np.array_equal(liouvillian_matrix(h, list(stack)), einsum_reference(h, stack))
    assert np.array_equal(dense(Liouvillian.from_jumps(h, stack)), einsum_reference(h, stack))
    assert np.array_equal(dense(Liouvillian.from_jumps(h, list(stack))),
                          einsum_reference(h, stack))


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
    m = dense(Liouvillian.from_jumps(h, jumps))
    assert np.max(np.abs(m - kron_reference(h, jumps))) <= 1e-14


def assert_same_entries(liou, reference):
    assert liou.dim == reference.dim
    for name in ("rows", "cols", "values"):
        got, expected = getattr(liou, name), getattr(reference, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("d", range(2, 17))
def test_builder_sums_the_jump_gram_as_the_row_loop_did(d):
    # random entries make the sums depend on their order; the jumps fill each
    # pattern row to its own width, and some rows not at all
    rng = np.random.default_rng(100 + d)
    for count in (0, 1, 3):
        width = rng.integers(0, d + 1, size=d)
        mask = rng.random((count, d, d)) < (width / d)[:, None]
        stack = np.where(mask, rng.normal(size=mask.shape) + 1j * rng.normal(size=mask.shape), 0)
        sparse = rng.random((d, d)) < 0.3
        h = random_hermitian(rng, d) * (sparse | sparse.T)
        assert_same_entries(Liouvillian.from_jumps(h, stack), from_jumps_reference(h, stack))


SPIN_UNITS = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
              BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8)]


def ising_boson_n2():
    cfg = load_config("ising_boson_n2", None)
    return build_chain(cfg), [build_bath(cfg, side) for side in "LR"]


def test_builder_sums_a_kraus_stack_as_the_row_loop_did(monkeypatch):
    built = []
    original = Liouvillian.from_jumps.__func__

    def capture(cls, h, jumps):
        liou = original(cls, h, jumps)  # the engine then divides its values by tau in place
        built.append((h, np.array(jumps), replace(liou, values=liou.values.copy())))
        return liou

    monkeypatch.setattr(Liouvillian, "from_jumps", classmethod(capture))
    # one Kraus operator per in and out level of the two units: 2 x 2 spin levels
    # in and out, or 22 x 11 bosonic ones
    for chain, tau, count in [
        ((ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.7, h=0.3), SPIN_UNITS), 1e-2, 16),
        ((ChainSpec(kind="xxz", n=3, alpha=1.0, bond_Delta=(0.3, 0.5)), SPIN_UNITS), 1e-2, 16),
        (ising_boson_n2(), 5e-3, 58564),
    ]:
        CollisionEngine(*chain, RIConfig(tau=tau))
        (h, stack, liou), = built
        built.clear()
        assert stack.shape == (count, chain[0].dim, chain[0].dim)
        assert_same_entries(liou, from_jumps_reference(h, stack))


def in_new_thread(fn, *args):
    """``fn(*args)`` in a fresh thread, which starts with no kept layout."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join()
    return out[0]


def builds_and_layouts(chains):
    """Each chain's generator, built in turn on one thread, with the layout in front of the
    kept ones after it."""
    built = []
    for spec, baths in chains:
        liou = build_liouvillian(spec, baths)
        built.append((liou, lindblad._layouts.entries[0]))
    return built


def fresh_build(spec, baths):
    return from_jumps_reference(build_hamiltonian(spec),
                                [L for b in baths for L in jump_ops(b, spec.n)])


def test_builds_on_a_kept_layout_equal_fresh_builds():
    # a pattern's first build keeps a layout, and the next points on that
    # pattern refill it; a new pattern keeps one of its own.
    # Without baths the entries of the populations cancel exactly, and the
    # coherence of two equal-energy states too: the same pattern of h and
    # jumps, and fewer nonzero entries (field 0.3, 0.3) or as many in other
    # places (0.3, -0.3).  The layout holds every term's entry, so these
    # refill it and drop the entries that cancel
    spin = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.1),
            BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.6)]
    xxz = ChainSpec(kind="xxz", n=3, alpha=0.8, field=(0.4, -0.3, 0.7), bond_Delta=(0.9, -1.1))
    pair = ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.7, field=(0.3, 0.5))
    chains = [(xxz, spin), (replace(xxz, alpha=1.3, bond_Delta=(0.2, 0.5)), spin), (xxz, spin),
              (ChainSpec(kind="ising", n=3, field=(0.3, 0.7, -0.4), bond_Delta=(0.8, 1.1)), spin),
              (xxz, spin), (pair, []), (replace(pair, field=(0.3, 0.3)), []),
              (replace(pair, field=(0.3, -0.3)), []), (pair, [])]
    built = in_new_thread(builds_and_layouts, chains)
    for (spec, baths), (liou, _) in zip(chains, built):
        assert_same_entries(liou, fresh_build(spec, baths))
    assert all(layout is not None for _, layout in built)
    assert built[2][1] is built[1][1] is built[0][1]  # the first build's layout, refilled
    assert [liou.rows.size for liou, _ in built[5:]] == [28, 26, 26, 28]
    # the builds on a kept layout hold its index arrays, which no one can rewrite
    for liou, layout in built[:3]:
        assert liou.rows is layout.rows and liou.cols is layout.cols
    with pytest.raises(ValueError, match="read-only"):
        built[2][0].rows[:] = 0
    # a build whose entries cancel holds arrays of its own, read-only too
    liou, layout = built[6]
    assert liou.rows.size < layout.rows.size and not liou.rows.flags.writeable


# general jumps with no diagonal entry, so that a Gram entry or an h_eff
# entry cancels on one build and not on the other, or a jump appears where
# none was on the same used pattern: (h, jumps) of the build that makes a
# layout, then of the build after it
SHIFT = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # |1><0| + |2><1| + |0><2|
FAN = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]])  # |0><1| + |0><2|
RAISE = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # |1><0|
REFUSED = {
    "gram": (np.diag([0.2, 0.7]), [np.array([[0, 1], [1, 0]]), np.array([[0, 1], [-1, 0]])],
             np.diag([0.2, 0.7]), [np.array([[0, 1], [1, 0]]), np.array([[0, 1], [-2, 0]])]),
    # sum_a L_a^dag L_a is 1 at (1, 2), so h_eff[1, 2] = h[1, 2] - 0.5i
    "h_eff": (np.array([[0.2, 0, 0], [0, 0.7, 0.5j], [0, -0.5j, 0.4]]), [FAN, RAISE],
              np.array([[0.2, 0, 0], [0, 0.7, 0.3j], [0, -0.3j, 0.4]]), [FAN, RAISE]),
    "jumped": (np.full((3, 3), 0.3) + np.diag([0.1, 0.4, 0.7]), [SHIFT],
               np.full((3, 3), 0.3) + np.diag([0.1, 0.4, 0.7]), [SHIFT, np.eye(3, k=1)]),
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_refill_is_taken_only_on_the_nonzero_set_of_its_layout(case):
    # a Gram entry that cancelled when the layout was made (gram), an h_eff
    # entry that did (h_eff), or a new jumped position (jumped): the build
    # after the layout is fresh and keeps its own layout
    h_made, jumps_made, h, jumps = REFUSED[case]

    def builds():
        kept = lindblad._Recent()
        lindblad._assemble(h_made, jumps_made, kept)
        made = kept.entries[0]
        return made, lindblad._assemble(h, jumps, kept), kept.entries[0]

    made, liou, after = in_new_thread(builds)
    assert made is not None and after is not None and after is not made
    assert_same_entries(liou, from_jumps_reference(h, jumps))


def test_a_gram_term_meeting_an_h_eff_term_keeps_a_layout():
    # a jump with a diagonal entry puts a Gram term and an h_eff term in one
    # entry: the first build keeps a layout and the next two refill it
    h, jumps = np.array([[0.2, 0.3], [0.3, 0.7]]), [np.array([[1, 1], [2, 1]])]

    def builds():
        kept = lindblad._Recent()
        built = []
        for _ in range(3):
            built.append(lindblad._assemble(h, jumps, kept))
            built.append(kept.entries[0])
        return built

    first, kept, second, refilled, third, after = in_new_thread(builds)
    assert kept is not None and refilled is kept and after is kept
    for liou in (first, second, third):
        assert_same_entries(liou, from_jumps_reference(h, jumps))


def test_a_refill_builds_less_than_the_gram_of_the_used_positions():
    # xxz n=5 with spin baths: 192 used positions, 64 of them jumped; the
    # Gram of the used positions alone is 192^2 complex entries (0.56 MiB)
    spec = ChainSpec(kind="xxz", n=5, alpha=1.1, bond_Delta=(0.3, -0.8, 1.1, 0.5))
    baths = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
             BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8)]

    def peak():
        for _ in range(3):  # the first build keeps a layout, the next ones refill it
            build_liouvillian(spec, baths)
        layout = lindblad._layouts.entries[0]
        tracemalloc.start()
        try:
            liou = build_liouvillian(spec, baths)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lindblad._layouts.entries[0] is layout is not None  # a refill
        assert_same_entries(liou, fresh_build(spec, baths))
        return top

    assert in_new_thread(peak) < 0.3 * 2 ** 20


SITES = st.integers(2, 5)
VALUES = st.sampled_from([0.0, 0.3, -0.3, 0.5, 1.0])  # few values, so that entries cancel


@st.composite
def chains_in_a_row(draw):
    """Two chains of one kind and size between the same kinds of baths, or none."""
    kind, n = draw(st.sampled_from(["xxz", "ising"])), draw(SITES)
    sides = draw(st.sampled_from([(), ("L",), ("R",), ("L", "R")]))
    bath_kind = draw(st.sampled_from(["spin", "f", "bosonic"]))

    def chain():
        alpha = draw(st.sampled_from([0.5, 1.0])) if kind == "xxz" else 0.0
        spec = ChainSpec(kind=kind, n=n, alpha=alpha,
                         field=tuple(draw(VALUES) for _ in range(n)),
                         bond_Delta=tuple(draw(VALUES) for _ in range(n - 1)))
        baths = []
        for side in sides:
            if bath_kind == "spin":
                baths.append(BathSpec(side=side, beta=draw(st.sampled_from([0.5, 1.0])),
                                      h=draw(st.sampled_from([0.7, -0.4])), gamma=1.0))
            elif bath_kind == "f":
                baths.append(BathSpec(side=side, f=draw(st.sampled_from([-1.0, 0.0, 0.4, 1.0])),
                                      gamma=draw(st.sampled_from([0.5, 1.0]))))
            else:
                baths.append(BathSpec(side=side, kind="bosonic", beta=1.0,
                                      omega=draw(st.sampled_from([1.0, 1.3])), g=0.4))
        return spec, baths

    return chain(), chain()


@settings(max_examples=60, deadline=None)
@given(chains_in_a_row())
def test_builds_in_a_row_equal_fresh_builds(pair):
    # three builds of a chain make a layout and refill it, the other chain
    # refills or misses it, and the first comes back; exact cancellations
    # (equal fields, zero couplings, missing baths) are dropped from the layout's entries
    first, second = pair
    order = [first, first, first, second, second, first]
    built = in_new_thread(builds_and_layouts, order)
    for chain, (liou, _) in zip(order, built):
        assert_same_entries(liou, fresh_build(*chain))
    # each chain's first build in a row keeps a layout, and the next ones refill it
    assert built[0][1] is not None and built[1][1] is built[0][1]
    assert built[2][1] is built[0][1] and built[4][1] is not None


def test_threads_building_in_turn_keep_their_own_layouts():
    # three threads build at once, step by step, each building two chains of
    # its own patterns in turn: every build equals a fresh one
    spin = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.1),
            BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.6)]
    boson = [BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
             BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3)]
    chains = [[(ChainSpec(kind="xxz", n=3, alpha=0.8, Delta=0.4), spin),
               (ChainSpec(kind="xxz", n=3, alpha=0.8, Delta=0.4, h=0.3), spin)],
              [(ChainSpec(kind="ising", n=3, field=(0.3, 0.7, -0.4), bond_Delta=(0.8, 1.1)), boson),
               (ChainSpec(kind="ising", n=3, field=(0.3, 0.7, -0.4), bond_Delta=(0.8, 1.1)), spin)],
              [(ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.7), spin),
               (ChainSpec(kind="xxz", n=4, alpha=1.0, Delta=0.7), boson)]]
    expected = [[fresh_build(spec, baths) for spec, baths in pair] for pair in chains]
    step = threading.Barrier(len(chains), timeout=60)
    seen = {k: [] for k in range(len(chains))}

    def work(k):
        for i in range(20):  # each pattern twice in a row, in turn, on layouts kept together
            step.wait()
            seen[k].append(build_liouvillian(*chains[k][i // 2 % 2]))

    workers = [threading.Thread(target=work, args=(k,)) for k in seen]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter over often, inside a build too
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for k in seen:
        assert len(seen[k]) == 20
        for i, liou in enumerate(seen[k]):
            assert_same_entries(liou, expected[k][i // 2 % 2])


def test_collision_builds_keep_no_layout():
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0, Delta=0.7, h=0.3)
    baths = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
             BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8)]

    def layouts():
        build_liouvillian(spec, baths)
        kept = build_liouvillian(spec, baths) and lindblad._layouts.entries[0]
        CollisionEngine(spec, baths, RIConfig(tau=1e-2))
        return kept, lindblad._layouts.entries[0]

    kept, after = in_new_thread(layouts)
    assert kept is not None and after is kept


def test_trace_preservation_left_kernel():
    # vec(I)^dag M = 0: the generator never changes the trace
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.7, delta=0.3, h=0.2)
    baths = [BathSpec(side="L", f=0.4, gamma=1.0), BathSpec(side="R", f=-0.2, gamma=0.5)]
    liou = build_liouvillian(spec, baths)
    left = vec(np.eye(spec.dim)).conj() @ dense(liou)
    assert np.max(np.abs(left)) < 1e-12


def test_liouvillian_dimensions():
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0)
    baths = [BathSpec(side="L", f=0.1), BathSpec(side="R", f=0.0)]
    liou = build_liouvillian(spec, baths)
    assert liou.dim == 8
    assert liou.rows.size == liou.cols.size == liou.values.size and liou.rows.max() < 64
    assert liou.cols.max() < 64


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
    liou = Liouvillian.from_jumps(np.zeros((2, 2), dtype=complex), [L])
    rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    rhs = unvec(liou.apply(vec(rho)))
    expected = gamma * np.array(
        [[rho[1, 1], -rho[0, 1] / 2], [-rho[1, 0] / 2, -rho[1, 1]]]
    )
    assert np.allclose(rhs, expected, atol=1e-14)


def test_apply_skips_empty_rows():
    # a bare field leaves the population rows of L empty; only coherences rotate
    h = np.diag([0.0, 1.0]).astype(complex)
    liou = Liouvillian.from_jumps(h, [])
    assert liou.rows.tolist() == [1, 2]
    rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    assert np.allclose(unvec(liou.apply(vec(rho))), -1j * (h @ rho - rho @ h), atol=1e-15)


MALFORMED = {"shuffled": "sorted by row, then column, each once",
             "repeated": "sorted by row, then column, each once",
             "negative": "outside the 16 x 16 generator",
             "out of range": "outside the 16 x 16 generator",
             "lengths": "1-D arrays of one length"}


@pytest.mark.parametrize("case", MALFORMED)
def test_liouvillian_rejects_malformed_entries(case):
    # unchecked, a shuffled copy applies other values than the sorted generator
    # (and solve_steady calls it non-Hermitian), and a negative column wraps round
    liou = build_liouvillian(ChainSpec(kind="xxz", n=2, alpha=1.0),
                             [BathSpec(side="L", f=0.3), BathSpec(side="R", f=-0.2)])
    rows, cols, values = liou.rows.copy(), liou.cols.copy(), liou.values.copy()
    if case == "shuffled":
        order = np.random.default_rng(1).permutation(rows.size)
        rows, cols, values = rows[order], cols[order], values[order]
    elif case == "repeated":
        rows, cols, values = np.r_[rows, rows[-1]], np.r_[cols, cols[-1]], np.r_[values, 1.0]
    elif case == "negative":
        cols[0] = -1
    elif case == "out of range":
        rows[-1] = 16
    else:
        values = values[:-1]
    with pytest.raises(ValueError, match=MALFORMED[case]):
        Liouvillian(rows, cols, values, liou.dim)


def hand_built():
    liou = build_liouvillian(ChainSpec(kind="xxz", n=2, alpha=1.0),
                             [BathSpec(side="L", f=0.3), BathSpec(side="R", f=-0.2)])
    return Liouvillian(liou.rows.copy(), liou.cols.copy(), liou.values.copy(), liou.dim)


GENERATORS = {
    "builder": lambda: build_liouvillian(ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5),
                                         [BathSpec(side="L", f=0.3), BathSpec(side="R", f=-0.2)]),
    "from_jumps": lambda: Liouvillian.from_jumps(np.diag([0.0, 1.0]),
                                                 [np.array([[0.0, 1.0], [0.0, 0.0]])]),
    "by hand": hand_built,
}


@pytest.mark.parametrize("make", GENERATORS)
def test_a_checked_entry_pattern_is_read_only_and_its_values_are_not(make):
    # a permuted pattern, written in place, would make apply wrong with no error
    liou = GENERATORS[make]()
    order = np.random.default_rng(3).permutation(liou.rows.size)
    for name in ("rows", "cols"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(liou, name)[:] = getattr(liou, name)[order]
    liou.values[:] /= 2.0  # as ri divides a collision generator's values by tau
    assert np.array_equal(dense(liou), dense(GENERATORS[make]()) / 2.0)


@pytest.mark.parametrize("length", [63, 100])
def test_apply_rejects_a_vector_of_another_length(length):
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.5)
    liou = build_liouvillian(spec, [BathSpec(side="L", f=0.3), BathSpec(side="R", f=-0.2)])
    with pytest.raises(ValueError, match="stacked 8 x 8 matrix"):
        liou.apply(np.ones(length))
