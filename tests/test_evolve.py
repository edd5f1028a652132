import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainlab import evolve, linalg, model
from chainlab.errors import LengthMismatch


def random_chain_and_energies(seed, n):
    rng = np.random.default_rng(seed)
    chain = model.ChainSpec(n=n, coupling=float(rng.uniform(0.2, 2.0)), roles="A" * n)
    return chain, tuple(rng.uniform(-4, 4, n)), rng


def test_segment_validation():
    with pytest.raises(ValueError):
        evolve.Segment(duration=0.0, energies=(1.0,))
    with pytest.raises(ValueError):
        evolve.Segment(duration=-1.0, energies=(1.0,))
    with pytest.raises(ValueError, match="finite"):
        evolve.Segment(duration=float("inf"), energies=(1.0,))


def test_propagator_matches_dense_matrix_exponential():
    # Oracle: the sector-blocked path must agree with exp(-iHt) of the full matrix.
    chain, energies, _ = random_chain_and_energies(seed=7, n=4)
    t = 0.83
    h = model.build_heisenberg(chain, energies)
    u_dense = linalg.expm_i(h, t)
    sched = evolve.ZeemanSchedule.from_steps([(t, energies)])
    u = evolve.evolve(chain, sched, np.eye(chain.dim))
    assert np.abs(u - u_dense).max() < 1e-10
    assert linalg.unitarity_defect(u) < 1e-10


def test_two_segments_compose():
    chain, e1, rng = random_chain_and_energies(seed=11, n=3)
    e2 = tuple(rng.uniform(-4, 4, 3))
    sched = evolve.ZeemanSchedule.from_steps([(0.4, e1), (0.9, e2)])
    u = evolve.evolve(chain, sched, np.eye(chain.dim))
    u1 = linalg.expm_i(model.build_heisenberg(chain, e1), 0.4)
    u2 = linalg.expm_i(model.build_heisenberg(chain, e2), 0.9)
    assert np.abs(u - u2 @ u1).max() < 1e-10


def test_evolve_agrees_with_propagator_and_empty_schedule():
    chain, energies, rng = random_chain_and_energies(seed=3, n=3)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    sched = evolve.ZeemanSchedule.from_steps([(1.3, energies)])
    psi = evolve.evolve(chain, sched, psi0)
    assert np.allclose(psi, evolve.evolve(chain, sched, np.eye(chain.dim)) @ psi0, atol=1e-10)
    empty = evolve.ZeemanSchedule(segments=())
    assert np.array_equal(evolve.evolve(chain, empty, psi0), psi0)


def test_energy_vector_length_checked():
    chain = model.ChainSpec(n=3, coupling=1.0, roles="ABA")
    sched = evolve.ZeemanSchedule.from_steps([(1.0, (0.0, 0.0))])
    with pytest.raises(LengthMismatch):
        evolve.evolve(chain, sched, np.eye(8)[0])


def test_eigenstate_acquires_pure_phase():
    chain, energies, _ = random_chain_and_energies(seed=19, n=3)
    h = model.build_heisenberg(chain, energies)
    w, v = np.linalg.eigh(h)
    psi0 = v[:, 0].astype(complex)
    t = 2.1
    psi = evolve.evolve(chain, evolve.ZeemanSchedule.from_steps([(t, energies)]), psi0)
    assert np.allclose(psi, np.exp(-1j * w[0] * t) * psi0, atol=1e-10)


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e2, 1e5])
@pytest.mark.parametrize("t", [0.0, 0.37, 123.4, "per-column"])
def test_phases_match_the_complex_exp_bit_for_bit(scale, t):
    # the kernel's artifacts stay byte-identical only if cos and sin of -w t
    # give exactly the complex exp's bits, signed zeros included
    rng = np.random.default_rng(7)
    w = np.concatenate([rng.normal(size=200) * scale, [0.0, -0.0]])
    if t == "per-column":
        t = np.concatenate([rng.uniform(0.0, 10.0, 40), [0.0]])
    got = evolve.phases(w, t)
    want = np.exp(-1j * w[:, None] * t)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.floats(0.01, 5.0))
def test_norm_and_magnetization_conserved(seed, n, t):
    chain, energies, rng = random_chain_and_energies(seed, n)
    psi0 = rng.normal(size=chain.dim) + 1j * rng.normal(size=chain.dim)
    psi0 /= np.linalg.norm(psi0)
    psi = evolve.evolve(chain, evolve.ZeemanSchedule.from_steps([(t, energies)]), psi0)
    assert np.allclose(np.linalg.norm(psi), 1.0, atol=1e-10)
    sz = model.sigma_z_values(n).sum(axis=0)
    assert np.vdot(psi, sz * psi).real == pytest.approx(np.vdot(psi0, sz * psi0).real, abs=1e-9)


def test_frozen_up_neighbor_shifts_precession_by_coupling():
    # A detuned neighbor pinned up (down) must shift the qubit splitting by
    # +2J (-2J); the shift has to come out of the full dynamics.
    J, e_q, e_b, t = 1.0, 0.3, 1000.0, 0.05
    chain = model.ChainSpec(n=2, coupling=J, roles="BA")
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for barrier_bit, sign in ((0, +1.0), (1, -1.0)):
        e_vec = [1.0, 0.0] if barrier_bit == 0 else [0.0, 1.0]
        psi0 = np.kron(e_vec, plus).astype(complex)
        sched = evolve.ZeemanSchedule.from_steps([(t, (e_b * sign, e_q))])
        psi = evolve.evolve(chain, sched, psi0)
        base = 2 * barrier_bit
        rel = np.angle(psi[base] * np.conj(psi[base + 1]))
        expected = -2.0 * (e_q + sign * J) * t
        assert rel == pytest.approx(expected, abs=2e-3)


def test_guarded_section_matches_reduced_three_spin():
    # Five sites with the outer pair pinned up by a large detuning evolve, on
    # the inner three, like the shifted three-spin model.
    J, delta = 1.0, 1000.0
    chain5 = model.ChainSpec(n=5, coupling=J, roles="BABAB")
    lv = model.ZeemanLevels(coupling=J, delta=delta)
    passive = list(model.site_energies(chain5, lv))
    gate = list(passive)
    gate[2] = lv.a + J  # resonant middle site
    chain3 = model.ChainSpec(n=3, coupling=J, roles="ABA")
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    qa = np.array([1.0, 1.0]) / np.sqrt(2.0)
    qb = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)
    psi3 = np.kron(np.kron(qa, down), qb).astype(complex)
    psi5 = np.kron(np.kron(up, psi3), up)
    for t in np.linspace(0.25, 5.0, 8):
        full = evolve.evolve(chain5, evolve.ZeemanSchedule.from_steps([(t, gate)]), psi5)
        red = evolve.evolve(chain3, evolve.ZeemanSchedule.from_steps(
            [(t, (lv.a + J, lv.a + J, lv.a + J))]), psi3)
        emb = np.kron(np.kron(up, red), up)
        # outer sites wind a global Zeeman phase the reduced model omits
        overlap = abs(np.vdot(emb, full))
        assert overlap > 1.0 - 1e-4


def test_zeeman_frame_matches_dense_expm():
    chain = model.ChainSpec(n=3, coupling=1.0, roles="ABA")
    energies = (3.0, -1.5, 0.4)
    t = 0.7
    h_zeeman = sum(e * model.pauli_site("z", i, chain.n) for i, e in enumerate(energies))
    dense = linalg.expm_i(h_zeeman, t)
    frame = evolve.zeeman_frame(chain, energies, t)
    assert np.abs(dense - np.diag(np.diag(dense))).max() < 1e-12
    assert np.abs(frame - np.diag(dense)).max() < 1e-12


def test_hold_whose_phase_overflows_is_refused():
    # |w| <= sum |E_i| + 3 (n - 1) J = 3 here, so t = 6e307 is the first to overflow
    chain = model.ChainSpec(n=2, coupling=1.0, roles="AB")
    energies = (0.0, 0.0)
    psi = np.eye(4, dtype=complex)
    hold = evolve.ZeemanSchedule.from_steps([(6e307, energies)])
    with pytest.raises(ValueError, match="overflows its phase"):
        evolve.evolve(chain, hold, psi)
    with pytest.raises(ValueError, match="overflows its phase"):
        next(evolve.hold_modes(chain, energies, hold, psi))
    for t in (6e307, np.inf, np.nan):
        with pytest.raises(ValueError, match="overflows its phase"):
            evolve.apply_hold(chain, energies, np.array([1.0, t, 1.0, 1.0]), psi)
    with pytest.raises(ValueError, match="overflows its phase"):
        evolve.zeeman_frame(chain, (1e308, 1e308), 1.0)
    short = evolve.ZeemanSchedule.from_steps([(5e307, energies)])
    assert np.isfinite(evolve.evolve(chain, short, psi)).all()


# ---------------------------------------------------------------------------
# the sector kernel against dense exp(-iHt) built from the full Hamiltonian


def test_apply_hold_per_column_durations_match_dense():
    chain, energies, rng = random_chain_and_energies(seed=23, n=4)
    psi = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    psi /= np.linalg.norm(psi, axis=0)
    durations = np.array([0.3, 1.1, 2.7])
    out = evolve.apply_hold(chain, energies, durations, psi)
    h = model.build_heisenberg(chain, energies)
    for j, t in enumerate(durations):
        assert np.abs(out[:, j] - linalg.expm_i(h, t) @ psi[:, j]).max() < 1e-10


def test_hold_modes_reproduce_hold_then_tail_against_dense():
    chain, hold, rng = random_chain_and_energies(seed=29, n=4)
    tail = [(0.4, tuple(rng.uniform(-4, 4, 4))), (0.7, tuple(rng.uniform(-4, 4, 4)))]
    psi = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    psi[model.sigma_z_values(4).sum(axis=0) == 0] = 0.0   # leave the six-state sector empty
    psi /= np.linalg.norm(psi, axis=0)
    t = 1.3
    dense = linalg.expm_i(model.build_heisenberg(chain, hold), t)
    for d, e in tail:
        dense = linalg.expm_i(model.build_heisenberg(chain, e), d) @ dense
    want = dense @ psi
    got = np.zeros_like(psi)
    sectors = []
    for rows, w, amp, modes in evolve.hold_modes(chain, hold,
                                                 evolve.ZeemanSchedule.from_steps(tail), psi):
        got[rows] = modes @ (np.exp(-1j * w * t)[:, None] * amp)
        sectors.append(len(rows))
    assert sorted(sectors) == [1, 1, 4, 4]
    assert np.abs(got - want).max() < 1e-10
    with pytest.raises(LengthMismatch):
        list(evolve.hold_modes(chain, hold, evolve.ZeemanSchedule.from_steps([(0.1, (1.0,))]),
                               psi))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 4))
def test_schedule_on_sector_subset_matches_dense(seed, n, n_segments):
    chain, _, rng = random_chain_and_energies(seed, n)
    steps = [(float(rng.uniform(0.05, 3.0)), tuple(rng.uniform(-4, 4, n)))
             for _ in range(n_segments)]
    down = model.sigma_z_values(n).sum(axis=0)
    levels = np.unique(down)
    keep = rng.choice(levels, size=int(rng.integers(1, levels.size + 1)), replace=False)
    inside = np.isin(down, keep)
    psi0 = np.zeros((chain.dim, 2), dtype=complex)
    psi0[inside] = rng.normal(size=(inside.sum(), 2)) + 1j * rng.normal(size=(inside.sum(), 2))
    psi0 /= np.linalg.norm(psi0, axis=0)

    psi = evolve.evolve(chain, evolve.ZeemanSchedule.from_steps(steps), psi0)
    dense = psi0
    for t, e in steps:
        dense = linalg.expm_i(model.build_heisenberg(chain, e), t) @ dense
    assert np.abs(psi - dense).max() < 1e-10
    assert not psi[~inside].any()
    assert np.allclose(np.linalg.norm(psi, axis=0), 1.0, atol=1e-10)


def test_product_state_diagonalizes_only_its_sector(monkeypatch):
    chain = model.ChainSpec(n=6, coupling=0.7, roles="A" * 6)
    energies = (0.31, -1.7, 2.9, 0.05, -0.66, 1.23)   # used by no other test
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    bits = (0, 1, 1, 0, 1, 0)
    psi0 = np.zeros(chain.dim, dtype=complex)
    psi0[model.basis_index(bits)] = 1.0
    sched = evolve.ZeemanSchedule.from_steps([(0.9, energies)])
    psi = evolve.evolve(chain, sched, psi0)
    assert shapes == [(20, 20)]           # 3 of 6 spins down: C(6, 3) states
    evolve.evolve(chain, sched, psi0)
    assert len(shapes) == 1               # second run is a cache hit
    dense = linalg.expm_i(model.build_heisenberg(chain, energies), 0.9) @ psi0
    assert np.abs(psi - dense).max() < 1e-10


def test_eig_cache_stays_within_byte_budget():
    # the largest sector block anywhere is C(12, 6) = 924 states, and an entry
    # is its eigenvalues and eigenvectors in float64
    biggest = math.comb(model.MAX_SITES, model.MAX_SITES // 2)
    assert evolve.EIG_CACHE_ENTRIES * (biggest ** 2 + biggest) * 8 <= 128 << 20
    assert evolve._sector_eig.cache_info().maxsize == evolve.EIG_CACHE_ENTRIES
    chain = model.ChainSpec(n=6, coupling=1.3, roles="A" * 6)
    rng = np.random.default_rng(29)
    vectors = [tuple(rng.uniform(-4, 4, 6)) for _ in range(evolve.EIG_CACHE_ENTRIES + 1)]
    w, v = evolve._sector_eig(chain, vectors[0], 3)
    assert w.nbytes + v.nbytes == (20 ** 2 + 20) * 8     # C(6, 3) = 20 states
    for energies in vectors[1:-1]:        # the cache now holds these 16 keys alone
        evolve._sector_eig(chain, energies, 3)
    evolve._sector_eig(chain, vectors[0], 3)    # a hit: vectors[1] is now the oldest
    evolve._sector_eig(chain, vectors[-1], 3)   # one key more evicts it
    info = evolve._sector_eig.cache_info()
    assert info.currsize == evolve.EIG_CACHE_ENTRIES
    for energies in [vectors[0]] + vectors[2:]:
        evolve._sector_eig(chain, energies, 3)
    assert evolve._sector_eig.cache_info().misses == info.misses
    evolve._sector_eig(chain, vectors[1], 3)
    assert evolve._sector_eig.cache_info().misses == info.misses + 1
    for energies in vectors[:3]:          # a whole propagator fills all seven sectors
        u = evolve.evolve(chain, evolve.ZeemanSchedule.from_steps([(0.7, energies)]),
                          np.eye(chain.dim))
        assert evolve._sector_eig.cache_info().currsize <= evolve.EIG_CACHE_ENTRIES
        assert np.abs(u - linalg.expm_i(model.build_heisenberg(chain, energies), 0.7)).max() < 1e-10


def test_eig_cache_survives_concurrent_fills():
    # more workers than cores, switching threads as often as possible, on more
    # keys than the cache holds: every fill evicts while others read
    chain = model.ChainSpec(n=6, coupling=0.9, roles="A" * 6)
    rng = np.random.default_rng(31)
    vectors = [tuple(rng.uniform(-4, 4, 6)) for _ in range(24)]
    sched = [evolve.ZeemanSchedule.from_steps([(0.4, e)]) for e in vectors]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(evolve.evolve, chain, s, np.eye(chain.dim)) for s in sched]
            units = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    info = evolve._sector_eig.cache_info()
    assert info.currsize <= info.maxsize == evolve.EIG_CACHE_ENTRIES
    for e, u in zip(vectors, units):
        assert np.abs(u - linalg.expm_i(model.build_heisenberg(chain, e), 0.4)).max() < 1e-10


# ---------------------------------------------------------------------------
# the sector pass: each call checks its steps, scans occupancy and gathers
# each occupied sector once, and carries the sector through every step


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 4))
def test_k_segment_evolve_equals_k_chained_one_segment_evolves(seed, n, n_segments):
    chain, _, rng = random_chain_and_energies(seed, n)
    steps = [(float(rng.uniform(0.05, 3.0)), tuple(rng.uniform(-4, 4, n)))
             for _ in range(n_segments)]
    psi0 = rng.normal(size=(chain.dim, 3)) + 1j * rng.normal(size=(chain.dim, 3))
    psi0[model.sigma_z_values(n).sum(axis=0) == n - 2] = 0.0   # one sector left empty
    chained = psi0
    for step in steps:
        chained = evolve.evolve(chain, evolve.ZeemanSchedule.from_steps([step]), chained)
    assert np.array_equal(evolve.evolve(chain, evolve.ZeemanSchedule.from_steps(steps), psi0),
                          chained)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(0, 3))
def test_hold_modes_are_the_hold_eigenvectors_evolved_through_after(seed, n, n_segments):
    chain, hold, rng = random_chain_and_energies(seed, n)
    after = evolve.ZeemanSchedule.from_steps(
        [(float(rng.uniform(0.05, 3.0)), tuple(rng.uniform(-4, 4, n))) for _ in range(n_segments)])
    psi = rng.normal(size=(chain.dim, 2)) + 1j * rng.normal(size=(chain.dim, 2))
    for rows, w, amp, modes in evolve.hold_modes(chain, hold, after, psi):
        w_k, v = evolve._sector_eig(chain, tuple(map(float, hold)), bin(int(rows[0])).count("1"))
        lifted = np.zeros((chain.dim, len(rows)), dtype=complex)
        lifted[rows] = v
        assert np.array_equal(w, w_k)
        assert np.array_equal(modes, evolve.evolve(chain, after, lifted)[rows])


def test_evolve_scans_occupancy_once_for_all_its_segments(monkeypatch):
    chain, energies, rng = random_chain_and_energies(seed=41, n=5)
    sched = evolve.ZeemanSchedule.from_steps(
        [(0.3 * (s + 1), tuple(rng.uniform(-4, 4, 5))) for s in range(6)])
    scans = []
    occupied = evolve._occupied
    monkeypatch.setattr(evolve, "_occupied", lambda *a: scans.append(1) or occupied(*a))
    evolve.evolve(chain, sched, np.eye(chain.dim))
    assert len(scans) == 1
    list(evolve.hold_modes(chain, energies, sched, np.eye(chain.dim)))
    assert len(scans) == 2


def test_list_array_and_tuple_energies_evolve_bitwise_alike():
    chain, energies, rng = random_chain_and_energies(seed=43, n=3)
    psi = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    durations = np.array([0.5, 1.7])
    runs = []
    for kind in (tuple, list, np.array):
        sched = evolve.ZeemanSchedule((evolve.Segment(0.5, kind(energies)),))
        assert sched.segments[0].energies == tuple(map(float, energies))
        assert all(type(x) is float for x in sched.segments[0].energies)
        runs.append([evolve.evolve(chain, sched, psi),
                     evolve.apply_hold(chain, kind(energies), durations, psi),
                     *(a for mode in evolve.hold_modes(chain, kind(energies), sched, psi)
                       for a in mode)])
    for other in runs[1:]:
        assert len(other) == len(runs[0])
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], other))


@pytest.mark.parametrize("rows", [8, 32])
@pytest.mark.parametrize("entry", ["evolve", "evolve-empty", "apply_hold", "hold_modes"])
def test_state_of_the_wrong_length_is_refused(entry, rows):
    chain = model.ChainSpec(n=4, coupling=1.0, roles="A" * 4)
    energies = (0.3, -1.1, 2.0, 0.7)
    sched = evolve.ZeemanSchedule.from_steps([(0.5, energies)])
    psi = np.ones((rows, 2), dtype=complex)
    call = {
        "evolve": lambda: evolve.evolve(chain, sched, psi),
        "evolve-empty": lambda: evolve.evolve(chain, evolve.ZeemanSchedule(()), psi),
        "apply_hold": lambda: evolve.apply_hold(chain, energies, np.ones(2), psi),
        "hold_modes": lambda: list(evolve.hold_modes(chain, energies, sched, psi)),
    }[entry]
    with pytest.raises(LengthMismatch, match="expected 16 state rows"):
        call()


# ---------------------------------------------------------------------------
# symmetries of H = sum_i E_i sigma^z_i + J sum_i vec(sigma)_i . vec(sigma)_{i+1}
# that the sector kernel must keep: each compares two evolve runs, no oracle

def random_steps_and_state(seed, n, n_segments):
    chain, _, rng = random_chain_and_energies(seed, n)
    steps = [(float(rng.uniform(0.05, 3.0)), tuple(rng.uniform(-4, 4, n)))
             for _ in range(n_segments)]
    psi0 = rng.normal(size=(chain.dim, 2)) + 1j * rng.normal(size=(chain.dim, 2))
    return chain, steps, psi0 / np.linalg.norm(psi0, axis=0), rng


def run(chain, steps, psi0):
    return evolve.evolve(chain, evolve.ZeemanSchedule.from_steps(steps), psi0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 3), st.floats(0.1, 10.0))
def test_evolve_is_unchanged_by_scaling_coupling_and_energies_against_time(seed, n, n_segments, lam):
    # lambda H for t / lambda is H for t: every duration is in units of 1/J
    chain, steps, psi0, _ = random_steps_and_state(seed, n, n_segments)
    scaled = model.ChainSpec(n=n, coupling=lam * chain.coupling, roles=chain.roles)
    scaled_steps = [(t / lam, tuple(lam * x for x in e)) for t, e in steps]
    assert np.abs(run(scaled, scaled_steps, psi0) - run(chain, steps, psi0)).max() < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 3))
def test_reversing_the_sites_conjugates_evolve_by_the_bit_reversal(seed, n, n_segments):
    chain, steps, psi0, _ = random_steps_and_state(seed, n, n_segments)
    idx = np.arange(chain.dim)
    mirror = sum(((idx >> i) & 1) << (n - 1 - i) for i in range(n))   # an involution
    reversed_chain = model.ChainSpec(n=n, coupling=chain.coupling, roles=chain.roles[::-1])
    reversed_steps = [(t, e[::-1]) for t, e in steps]
    got = run(reversed_chain, reversed_steps, psi0[mirror])
    assert np.abs(got - run(chain, steps, psi0)[mirror]).max() < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 3))
def test_flipping_every_spin_negates_the_energies_and_maps_sector_k_to_n_minus_k(
        seed, n, n_segments):
    chain, steps, psi0, rng = random_steps_and_state(seed, n, n_segments)
    mz = model.sigma_z_values(n).sum(axis=0)      # n - 2k in sector k
    k = int(rng.integers(0, n + 1))
    psi0[mz != n - 2 * k, 0] = 0.0        # column 0 lies in sector k alone
    psi0[:, 0] /= np.linalg.norm(psi0[:, 0])
    flipped_steps = [(t, tuple(-x for x in e)) for t, e in steps]
    got = run(chain, flipped_steps, psi0[::-1])   # index i flips to dim - 1 - i
    assert np.abs(got - run(chain, steps, psi0)[::-1]).max() < 1e-12
    assert not got[mz != 2 * k - n, 0].any()   # sector n - k alone
