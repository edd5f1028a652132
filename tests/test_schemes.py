import copy
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainlab import analysis, cli, gates, model, schemes
from chainlab.errors import InvalidGrouping
from chainlab.evolve import ZeemanSchedule, apply_hold, evolve
from chainlab.linalg import expm_i
from chainlab.model import ChainSpec, ZeemanLevels, pauli_site, site_energies

LEVELS = ZeemanLevels(coupling=1.0, delta=1000.0)


# ---------------------------------------------------------------------------
# architecture 1: alternating barrier/qubit sites


def test_arch1_section_geometry():
    arch = schemes.arch1_section(LEVELS)
    assert arch.chain.roles == "BABABABAB"
    assert arch.enc.qubit_sites == ((1,), (3,), (5,), (7,))
    # barrier patterns alternate down/up inward from the ends
    assert dict(arch.enc.barrier_refs) == {0: 1, 2: 0, 4: 1, 6: 0, 8: 1}
    assert schemes.ARCH1_GATE_BARRIER == 4
    assert arch.enc_gate_pair.qubit_sites == ((3,), (5,))
    assert dict(arch.enc_gate_pair.barrier_refs)[1] == 0
    assert dict(arch.enc_gate_pair.barrier_refs)[7] == 0
    a, b = LEVELS.a, LEVELS.b
    assert arch.passive_energies == (b, a, b, a, b, a, b, a, b)


def test_arch1_revival_schedule_structure():
    arch = schemes.arch1_section(LEVELS)
    sched, t_gate, _ = schemes.arch1_revival(arch)
    assert len(sched.segments) == 3
    assert sched.segments[0].duration == pytest.approx(0.2)
    assert sched.segments[1].duration == pytest.approx(t_gate)
    gate_energies = sched.segments[1].energies
    assert gate_energies[4] == pytest.approx(LEVELS.a + 1.0)
    passive = arch.passive_energies
    assert gate_energies[:4] == passive[:4]
    assert sched.segments[0].energies == passive
    # zero padding drops the bracketing segments entirely
    bare, _, _ = schemes.arch1_revival(schemes.arch1_section(LEVELS, pad=0.0))
    assert len(bare.segments) == 1


@pytest.mark.parametrize("pad", [-0.1, -1.0, float("nan"), float("inf")])
def test_arch1_schedules_refuse_a_negative_or_nan_pad(pad):
    # only a zero-length pad is dropped; the section refuses the rest
    with pytest.raises(ValueError, match="pad must be >= 0 and finite"):
        schemes.arch1_section(LEVELS, pad=pad)


def test_arch1_section_refuses_a_hold_whose_phase_overflows():
    with pytest.raises(ValueError, match="^pad: a hold of 1e[+]300 .* overflows its phase$"):
        schemes.arch1_section(ZeemanLevels(1000.0, 1e6), pad=1e300)
    # the window pi/(3J) times ARCH1_REVIVAL_WINDOW: inf at a subnormal J, and
    # finite at J = 1e-300 but with phases beyond float range at delta = 1e308
    for levels in (ZeemanLevels(1e-310, 1000.0), ZeemanLevels(1e-300, 1e308)):
        with pytest.raises(ValueError, match=f"^the revival window at coupling "
                                             f"{levels.coupling}: a hold of "):
            schemes.arch1_section(levels)


def test_arch1_exchange_gate_reads_the_passive_energies_the_section_holds(monkeypatch):
    arch = schemes.arch1_section(LEVELS)
    calls = []
    for module in (model, schemes, analysis):
        real = module.site_energies
        monkeypatch.setattr(module, "site_energies",
                            lambda *args, real=real: calls.append(args) or real(*args))
    schemes.arch1_exchange_gate(arch)
    assert calls == []


def test_five_site_section_reference_state():
    # two qubits with an up guard on each end and a down gate barrier between
    enc = gates.EncodingMap.single_site(5, [1, 3], {0: 0, 2: 1, 4: 0})
    psi = enc.embed_basis()[:, 0]
    assert psi[0b00100] == 1.0
    assert np.count_nonzero(psi) == 1


# ---------------------------------------------------------------------------
# architecture 2: paired encoding with fixed barriers


def test_arch2_section_geometry():
    arch = schemes.arch2_section(LEVELS)
    assert arch.chain.roles == "ABCABC"
    assert arch.enc.qubit_sites == ((0, 1), (3, 4))
    assert dict(arch.enc.barrier_refs) == {2: 0, 5: 0}
    # logical zero holds the pair's up spin on the second site
    assert arch.enc.chain_bits(0) == (1, 0, 0, 1, 0, 0)


def test_arch2_single_qubit_flip_rate():
    # resonant drive of the pair's upper site transfers population at rate 2J
    sub = ChainSpec(n=4, coupling=1.0, roles="CABC")
    for t in np.linspace(0.05, np.pi / 2.0, 7):
        sched, enc = schemes.arch2_single_qubit_schedule(LEVELS, offset=0.0, t=t)
        psi = evolve(sub, sched, enc.embed_basis()[:, 0])
        p1 = abs(enc.embed_basis()[:, 1].conj() @ psi) ** 2
        assert p1 == pytest.approx(np.sin(2.0 * t) ** 2, abs=5e-6)


def test_arch2_full_flip_duration():
    sub = ChainSpec(n=4, coupling=1.0, roles="CABC")
    sched, enc = schemes.arch2_single_qubit_schedule(LEVELS, offset=0.0, t=np.pi / 4.0)
    psi = evolve(sub, sched, enc.embed_basis()[:, 0])
    p1 = abs(enc.embed_basis()[:, 1].conj() @ psi) ** 2
    assert p1 > 1.0 - 1e-5


def test_arch2_two_qubit_schedule_drive_site():
    t = np.pi / np.sqrt(5.0)
    arch = schemes.arch2_section(LEVELS, eps=LEVELS.c + 1.0)
    sched = arch.gate
    assert sched.total_duration == t
    assert arch.enc.qubit_sites == ((0, 1), (3, 4))
    assert sched.segments[0].energies[1] == pytest.approx(LEVELS.c + 1.0)
    # only the left qubit's upper site leaves its passive level
    passive = arch.passive_energies
    assert sched.segments[0].energies[:1] + sched.segments[0].energies[2:] == (
        passive[:1] + passive[2:])
    at_wp = schemes.arch2_section(LEVELS).gate
    assert at_wp.segments[0].energies[1] == pytest.approx(LEVELS.c - 1.0)


def test_arch2_working_point_value():
    # eps defaults to the working point C - J
    assert schemes.arch2_section(LEVELS).eps == LEVELS.c - LEVELS.coupling
    levels = ZeemanLevels(2.0, 1000.0)
    assert schemes.arch2_section(levels).eps == levels.c - levels.coupling
    assert schemes.arch2_section(levels, eps=0.5).eps == 0.5


def test_arch3_tol_identity_default():
    levels = ZeemanLevels(2.0, 1000.0)
    assert schemes.arch3_section(levels).tol_identity == 10.0 * 2.0 / 1000.0
    assert schemes.arch3_section(levels, tol_identity=0.5).tol_identity == 0.5
    for bad in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol_identity must be positive and finite"):
            schemes.arch3_section(levels, tol_identity=bad)
    # the default 10 J/delta underflows to 0.0 at J = 1e-300, delta = 1e300
    with pytest.raises(ValueError, match="^tol_identity must be positive and finite, got 0.0$"):
        schemes.arch3_section(ZeemanLevels(1e-300, 1e300))


def test_layouts_take_their_coupling_from_the_levels():
    levels = ZeemanLevels(2.0, 1000.0)
    for layout in (schemes.arch1_section, schemes.arch2_section, schemes.arch3_section):
        assert layout(levels).chain.coupling == 2.0
    assert schemes.arch2_section(levels).eps == levels.c - 2.0
    st6 = schemes.arch3_section(levels).settings
    assert {s.duration for s in st6} == {np.pi / 8.0, np.pi / (2.0 * np.sqrt(5.0))}
    assert st6[1].eps_odd == st6[4].eps_even == levels.a + 2.0 == 2.0
    with pytest.raises(ValueError, match="J = 1.0 given levels at J = 2.0"):
        site_energies(ChainSpec(n=3, coupling=1.0, roles="ABC"), levels)


# ---------------------------------------------------------------------------
# architecture 3: two global knobs


def test_six_settings_literal_values():
    a, b, c = LEVELS.a, LEVELS.b, LEVELS.c
    st6 = schemes.arch3_section(LEVELS).settings
    assert len(st6) == 6
    got = {(s.eps_even, s.eps_odd) for s in st6}
    assert got == {(b, a), (b, a + 1), (b, c + 1), (a, b), (a + 1, b), (c + 1, b)}
    assert (b, b) not in got
    for s in st6:
        expected = np.pi / np.sqrt(5.0) if c + 1 in (s.eps_even, s.eps_odd) else np.pi / 4.0
        assert s.duration == pytest.approx(expected)
    assert len({s.label for s in st6}) == 6


EVEN_SITES = (1, 7)   # tunable (upper) sites of the even-group qubits
ODD_SITES = (4, 10)


def test_arch3_section_grouping():
    arch = schemes.arch3_section(LEVELS)
    assert arch.chain.n == 12
    # A + J = 1.0 is no passive level: setting 4 puts it on the even group, setting 1 on the odd
    for k, sites in ((4, EVEN_SITES), (1, ODD_SITES)):
        energies = arch.settings[k].schedule.segments[0].energies
        assert tuple(i for i, e in enumerate(energies) if e == 1.0) == sites
    assert arch.enc.qubit_sites == ((0, 1), (3, 4), (6, 7), (9, 10))


def test_arch3_setting_schedule_sets_both_groups():
    arch = schemes.arch3_section(LEVELS)
    setting = arch.settings[4]  # even:A+J odd:B
    sched = setting.schedule
    assert len(sched.segments) == 1
    assert sched.segments[0].duration == pytest.approx(setting.duration)
    energies = sched.segments[0].energies
    for site in EVEN_SITES:
        assert energies[site] == pytest.approx(LEVELS.a + 1.0)
    for site in ODD_SITES:
        assert energies[site] == pytest.approx(LEVELS.b)
    # non-tunable sites stay passive
    assert energies[2] == pytest.approx(LEVELS.c)
    assert energies[0] == pytest.approx(LEVELS.a)


# ---------------------------------------------------------------------------
# barrier-collapse trajectories


def zeno_demo():
    chain = ChainSpec(n=3, coupling=1.0, roles="ABA")
    enc = gates.EncodingMap.single_site(3, [0, 2], {1: 1})
    t_gate = np.pi / 3.0
    drive = (LEVELS.a + 1.0,) * 3
    gate = ZeemanSchedule.from_steps([(t_gate, drive)])
    qa = np.array([1.0, 1.0]) / np.sqrt(2.0)
    qb = np.array([1.0, np.exp(1j * np.pi / 4.0)]) / np.sqrt(2.0)
    psi0 = enc.embed_state(np.kron(qa, qb))
    return chain, enc, [gate] * 20, psi0


def run_zeno(k, stddev, mode, trials=2000, seed=1234):
    chain, enc, seq, psi0 = zeno_demo()
    cfg = schemes.ZenoConfig(collapse_every_gates=k, jitter_stddev=stddev,
                             trials=trials, seed=seed, jitter_mode=mode)
    return schemes.zeno_run(chain, seq, enc, cfg, psi0=psi0)


def test_zeno_config_validation():
    fields = {"collapse_every_gates": 1, "jitter_stddev": 0.05, "trials": 10, "seed": 1}
    for bad in ({"trials": 0}, {"jitter_stddev": -0.1}, {"collapse_every_gates": 0},
                {"seed": -1}, {"jitter_stddev": float("nan")},
                {"jitter_stddev": float("inf")}, {"jitter_mode": "bogus"}):
        with pytest.raises(ValueError):
            schemes.ZenoConfig(**{**fields, **bad})


def test_zeno_zero_jitter_never_misfires():
    stats = run_zeno(1, 0.0, "independent", trials=64, seed=7)
    assert stats.wrong_collapse_probability == 0.0
    assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-9)
    assert stats.n_collapse_points == 20


def test_zeno_collapse_point_counts():
    for k, expected in ((1, 20), (4, 5), (10, 2), (None, 1)):
        stats = run_zeno(k, 0.0, "independent", trials=2, seed=1)
        assert stats.n_collapse_points == expected


def test_zeno_runs_are_reproducible():
    s1 = run_zeno(4, 0.05, "independent", trials=200, seed=42)
    s2 = run_zeno(4, 0.05, "independent", trials=200, seed=42)
    assert np.array_equal(s1.wrong_collapse, s2.wrong_collapse)
    assert np.array_equal(s1.fidelity, s2.fidelity)
    s3 = run_zeno(4, 0.05, "independent", trials=200, seed=43)
    assert not np.array_equal(s1.fidelity, s3.fidelity)


def test_zeno_independent_jitter_frozen_stats():
    every = run_zeno(1, 0.05, "independent")
    never = run_zeno(None, 0.05, "independent")
    assert every.wrong_collapse_probability == pytest.approx(0.25900, abs=1e-3)
    assert never.wrong_collapse_probability == pytest.approx(0.19750, abs=1e-3)
    assert every.mean_fidelity == pytest.approx(0.765272, abs=1e-3)
    assert never.mean_fidelity == pytest.approx(0.776853, abs=1e-3)
    # uncorrelated timing errors random-walk: watching more often only adds
    # chances to catch the walker away from home, it does not steer it back
    assert every.wrong_collapse_probability > never.wrong_collapse_probability + 0.03


def test_zeno_systematic_jitter_suppressed_by_frequent_collapse():
    stats = [run_zeno(k, 0.01, "systematic") for k in (1, 4, 10, None)]
    wrong = [s.wrong_collapse_probability for s in stats]
    fid = [s.mean_fidelity for s in stats]
    assert wrong[0] == pytest.approx(0.01250, abs=1e-3)
    assert wrong[-1] == pytest.approx(0.16700, abs=1e-3)
    assert fid[0] == pytest.approx(0.987789, abs=1e-3)
    assert fid[-1] == pytest.approx(0.813401, abs=1e-3)
    for a, b in zip(wrong, wrong[1:]):
        assert a < b - 0.02
    for a, b in zip(fid, fid[1:]):
        assert a > b + 0.02


def test_zeno_csv_format(tmp_path):
    stats = run_zeno(4, 0.05, "independent", trials=8, seed=3)
    path = tmp_path / "stats.csv"
    analysis.emit_table({"trial": np.arange(8),
                         "wrong_collapse": stats.wrong_collapse.astype(np.uint8),
                         "fidelity": stats.fidelity}, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,wrong_collapse,fidelity"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("0", "1")
    assert float(first[2]) == pytest.approx(stats.fidelity[0], rel=1e-10)


def _kron_heisenberg(n, energies, coupling):
    h = sum(e * pauli_site("z", i, n) for i, e in enumerate(energies))
    for i in range(n - 1):
        for ax in "xyz":
            h = h + coupling * pauli_site(ax, i, n) @ pauli_site(ax, i + 1, n)
    return h


def zeno_oracle(chain, seq, enc, cfg, psi0, k, mode):
    """zeno_run for gate trains of identical gates, one trial at a time:
    dense exp(-iHt) per jittered segment and explicit barrier projectors,
    fed from the same random streams."""
    n_gates = len(seq)
    flags = [g == n_gates - 1 or (k is not None and (g + 1) % k == 0) for g in range(n_gates)]
    rng_jit = np.random.default_rng([cfg.seed, 1])
    shape = (cfg.trials, n_gates if mode == "independent" else 1)
    noise = np.broadcast_to(rng_jit.standard_normal(shape), (cfg.trials, n_gates))
    factors = np.clip(1.0 + cfg.jitter_stddev * noise, 0.05, None)
    uniforms = np.random.default_rng([cfg.seed, 2]).random(
        (sum(flags), len(enc.barrier_refs), cfg.trials))
    ham = {seg.energies: _kron_heisenberg(chain.n, seg.energies, chain.coupling)
           for sched in seq for seg in sched.segments}
    proj = {site: (np.eye(chain.dim) + (1 - 2 * ref) * pauli_site("z", site, chain.n)) / 2
            for site, ref in enc.barrier_refs}
    ideal = np.asarray(psi0, dtype=complex)
    for sched in seq:
        for seg in sched.segments:
            ideal = expm_i(ham[seg.energies], seg.duration) @ ideal
    wrong = np.zeros(cfg.trials, dtype=bool)
    fid = np.zeros(cfg.trials)
    for t in range(cfg.trials):
        psi = np.asarray(psi0, dtype=complex)
        point = 0
        for g, sched in enumerate(seq):
            for seg in sched.segments:
                psi = expm_i(ham[seg.energies], seg.duration * factors[t, g]) @ psi
            if not flags[g]:
                continue
            for b, (site, _ref) in enumerate(enc.barrier_refs):
                kept = proj[site] @ psi
                if uniforms[point, b, t] >= np.vdot(kept, kept).real:
                    wrong[t] = True
                    kept = psi - kept
                psi = kept / np.linalg.norm(kept)
            point += 1
        fid[t] = abs(np.vdot(ideal, psi)) ** 2
    return wrong, fid


def two_barrier_train():
    """Barriers on both chain ends (sites 0 and 3), one held at each
    reference, around two qubits."""
    chain = ChainSpec(n=4, coupling=1.0, roles="BAAB")
    enc = gates.EncodingMap.single_site(4, [1, 2], {0: 0, 3: 1})
    t_gate = np.pi / 3.0
    gate = ZeemanSchedule.from_steps([(0.4 * t_gate, (6.0, 0.0, 0.0, -6.0)),
                                      (0.6 * t_gate, (1.0,) * 4)])
    q = np.array([1.0, np.exp(0.3j)]) / np.sqrt(2.0)
    return chain, enc, [gate] * 6, enc.embed_state(np.kron(q, q))


@pytest.mark.parametrize("k", [1, 3, pytest.param(None, id="inf")])
@pytest.mark.parametrize("mode", ["independent", "systematic"])
@pytest.mark.parametrize("seed", [5, 1234])
@pytest.mark.parametrize("train", ["three_spin", "two_barrier"])
def test_zeno_run_matches_dense_per_trial_oracle(monkeypatch, train, seed, mode, k):
    if train == "three_spin":
        chain, enc, gate, _, psi0 = schemes.zeno_gate_train(1.0)
        seq = [gate] * 20
    else:
        chain, enc, seq, psi0 = two_barrier_train()
    cfg = schemes.ZenoConfig(collapse_every_gates=k, jitter_stddev=0.05, trials=64, seed=seed,
                             jitter_mode=mode)
    stats = schemes.zeno_run(chain, seq, enc, cfg, psi0=psi0)
    # blocks of 5: 13 blocks, the last one short
    monkeypatch.setattr(schemes, "_ZENO_BLOCK_TRIALS", 5)
    blocked = schemes.zeno_run(chain, seq, enc, cfg, psi0=psi0)
    wrong, fid = zeno_oracle(chain, seq, enc, cfg, psi0, k, mode)
    for run in (stats, blocked):
        assert np.array_equal(run.wrong_collapse, wrong)
        assert np.abs(run.fidelity - fid).max() < 1e-12
    assert 0 < wrong.sum() < cfg.trials
    # the same trials either way, bit for bit: each column is computed on its
    # own and its overlap is summed in one fixed order
    assert np.array_equal(blocked.wrong_collapse, stats.wrong_collapse)
    assert np.array_equal(blocked.fidelity, stats.fidelity)


@pytest.mark.parametrize("mode", ["independent", "systematic"])
def test_zeno_fidelity_is_bitwise_independent_of_a_large_block(monkeypatch, mode):
    # 2053 trials in one block against 294 blocks of 7, the last of 2: a product
    # this wide is one BLAS may split between threads and kernels
    chain, enc, gate, _, psi0 = schemes.zeno_gate_train(1.0)
    cfg = schemes.ZenoConfig(collapse_every_gates=3, jitter_stddev=0.05, trials=2053, seed=1234,
                             jitter_mode=mode)
    assert cfg.trials <= schemes._ZENO_BLOCK_TRIALS
    whole = schemes.zeno_run(chain, [gate] * 20, enc, cfg, psi0=psi0)
    monkeypatch.setattr(schemes, "_ZENO_BLOCK_TRIALS", 7)
    blocked = schemes.zeno_run(chain, [gate] * 20, enc, cfg, psi0=psi0)
    assert np.array_equal(blocked.wrong_collapse, whole.wrong_collapse)
    assert np.array_equal(blocked.fidelity, whole.fidelity)


@pytest.mark.parametrize("index, off_reference", [(0b111, False), (0b000, True)])
def test_zeno_collapse_with_an_empty_half_warns_nothing(index, off_reference):
    # all spins alike is an eigenstate of every gate: one half of the barrier
    # split carries exactly zero probability at each collapse
    chain, enc, gate, _, _ = schemes.zeno_gate_train(1.0)
    psi0 = np.zeros(chain.dim, dtype=complex)
    psi0[index] = 1.0
    cfg = schemes.ZenoConfig(collapse_every_gates=1, jitter_stddev=0.05, trials=256, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = schemes.zeno_run(chain, [gate] * 20, enc, cfg, psi0=psi0)
    assert np.all(stats.wrong_collapse == off_reference)
    assert np.abs(stats.fidelity - 1.0).max() < 1e-12


def whole_draw_zeno_run(chain, seq, enc, cfg, psi0):
    """zeno_run as it was with every collapse uniform drawn at once: one
    (points, barriers, trials) draw sliced per block, and the duration factors
    from clip(1 + stddev * noise) with its temporaries."""
    n_gates, trials = len(seq), cfg.trials
    every = n_gates if cfg.collapse_every_gates is None else cfg.collapse_every_gates
    flags = [(g + 1) % every == 0 or g == n_gates - 1 for g in range(n_gates)]
    barriers = enc.barrier_refs
    noise_cols = n_gates if cfg.jitter_mode == "independent" else 1
    rng_jit = np.random.default_rng([cfg.seed, 1])
    uniforms = np.random.default_rng([cfg.seed, 2]).random((sum(flags), len(barriers), trials))
    psi0 = np.asarray(psi0, dtype=complex)
    ideal = psi0
    for sched in seq:
        ideal = evolve(chain, sched, ideal)
    wrong = np.zeros(trials, dtype=bool)
    fid = np.empty(trials)
    for lo in range(0, trials, schemes._ZENO_BLOCK_TRIALS):
        hi = min(lo + schemes._ZENO_BLOCK_TRIALS, trials)
        noise = np.broadcast_to(rng_jit.standard_normal((hi - lo, noise_cols)), (hi - lo, n_gates))
        with np.errstate(over="ignore"):
            factors = np.clip(1.0 + cfg.jitter_stddev * noise, 0.05, None).T.copy()
        psi = np.repeat(psi0[:, None], hi - lo, axis=1)
        point = 0
        for g, sched in enumerate(seq):
            for seg in sched.segments:
                with np.errstate(over="ignore"):
                    durations = seg.duration * factors[g]
                psi = apply_hold(chain, seg.energies, durations, psi)
            if flags[g]:
                for b, (site, ref) in enumerate(barriers):
                    split = psi.reshape(1 << site, 2, -1, hi - lo, copy=False)
                    halves = split[:, ref], split[:, 1 - ref]
                    probs = [(np.abs(h) ** 2).sum(axis=(0, 1)) for h in halves]
                    hit_ref = uniforms[point, b, lo:hi] < probs[0]
                    wrong[lo:hi] |= ~hit_ref
                    for half, p, hit in zip(halves, probs, (hit_ref, ~hit_ref)):
                        half *= np.divide(1.0, np.sqrt(p), out=np.zeros_like(p), where=hit)
                point += 1
        fid[lo:hi] = np.abs(np.einsum("i,ij->j", ideal.conj(), psi)) ** 2
    return wrong, fid


@pytest.mark.parametrize("k", [1, 3, pytest.param(None, id="inf")])
@pytest.mark.parametrize("mode", ["independent", "systematic"])
@pytest.mark.parametrize("train", ["three_spin", "two_barrier"])
def test_zeno_run_matches_the_whole_draw_run_at_the_real_block_size(train, mode, k):
    # two full blocks and a short third: each block jumps into every row of
    # the collapse stream, and its factors are scaled in place; every bit must
    # match the run that drew all uniforms at once
    if train == "three_spin":
        chain, enc, gate, _, psi0 = schemes.zeno_gate_train(1.0)
        seq = [gate] * 20
    else:
        chain, enc, seq, psi0 = two_barrier_train()
    cfg = schemes.ZenoConfig(collapse_every_gates=k, jitter_stddev=0.05,
                             trials=2 * schemes._ZENO_BLOCK_TRIALS + 3, seed=77, jitter_mode=mode)
    stats = schemes.zeno_run(chain, seq, enc, cfg, psi0=psi0)
    wrong, fid = whole_draw_zeno_run(chain, seq, enc, cfg, psi0)
    assert np.array_equal(stats.wrong_collapse, wrong)
    assert np.array_equal(stats.fidelity, fid)
    assert 0 < wrong.sum() < cfg.trials


def traced_zeno_peak(k, trials, n_gates):
    """tracemalloc's peak over one zeno_run of the three-spin train, after an
    untraced run has filled the sector eigensystem cache."""
    chain, enc, gate, _, psi0 = schemes.zeno_gate_train(1.0)
    seq = [gate] * n_gates
    cfg = schemes.ZenoConfig(collapse_every_gates=k, jitter_stddev=0.05, trials=trials, seed=1)
    schemes.zeno_run(chain, seq, enc, dataclasses.replace(cfg, trials=2), psi0=psi0)
    tracemalloc.start()
    try:
        schemes.zeno_run(chain, seq, enc, cfg, psi0=psi0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_zeno_run_memory_is_one_block_plus_per_trial_results():
    # 50 000 trials: a whole draw of the collapse uniforms would take 8 MB at
    # a collapse after each of 20 gates, 0.4 MB with the final readout only;
    # holding every trial's state at once peaked near 48 MB
    every_gate = traced_zeno_peak(1, 50_000, 20)
    final_only = traced_zeno_peak(None, 50_000, 20)
    assert abs(every_gate - final_only) < 1.5e6
    assert every_gate < 6e6 and final_only < 6e6


def test_zeno_run_memory_does_not_grow_with_the_gate_count():
    # 1000 collapse points of 8 trials: one collapse generator per run; one
    # per collapse row held about 1 MB here
    assert traced_zeno_peak(1, 8, 1000) < 0.5e6


def test_zeno_run_leaves_blas_workers_idle(blas_worker_ticks):
    # every product of a block runs on one BLAS thread, without cli.main's
    # pin; a threaded one keeps a worker spinning through the run, about as
    # busy as the main thread
    worker_ticks, cpu_s = blas_worker_ticks(
        "chain, enc, gate, _, psi0 = schemes.zeno_gate_train(1.0)\n"
        "cfg = schemes.ZenoConfig(collapse_every_gates=1, jitter_stddev=0.05, trials=30_000,"
        " seed=1)\n"
        "schemes.zeno_run(chain, [gate] * 20, enc, cfg, psi0=psi0)")
    assert worker_ticks <= 2, f"BLAS workers took {worker_ticks} ticks of {cpu_s:.2f} CPU s"


def test_zeno_json_summary(tmp_path):
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["seed"] = 3
    cfg["zeno"].update({"trials": 8, "collapse_every_gates": 4})
    cli.cmd_zeno(cfg, cli._build(cfg)["zeno"], tmp_path)
    doc = json.loads((tmp_path / "zeno_summary.json").read_text())
    chain, enc, gate, t_gate, psi0 = schemes.zeno_gate_train(cfg["coupling"])
    zcfg = schemes.ZenoConfig(collapse_every_gates=4, jitter_stddev=0.05, trials=8, seed=3)
    stats = schemes.zeno_run(chain, [gate] * 20, enc, zcfg, psi0=psi0)
    assert doc["trials"] == 8
    assert doc["n_collapse_points"] == 5
    assert doc["collapse_interval"] == 4 * t_gate
    assert doc["wrong_collapse_probability"] == stats.wrong_collapse_probability
    assert doc["mean_fidelity"] == stats.mean_fidelity


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=25))
def test_collapse_every_k_gates_counts_points(k):
    # every k-th gate boundary collapses, and the run always ends with a readout
    chain, enc, seq, psi0 = zeno_demo()
    cfg = schemes.ZenoConfig(collapse_every_gates=k, jitter_stddev=0.0, trials=1, seed=0)
    stats = schemes.zeno_run(chain, seq, enc, cfg, psi0=psi0)
    assert stats.n_collapse_points == math.ceil(20 / k)


# ---------------------------------------------------------------------------
# refocusing demo


def test_refocus_suppresses_entanglement_growth():
    chain = ChainSpec(n=2, coupling=1.0, roles="AB")
    rec = schemes.refocus_demo(chain, LEVELS, [0.1])[0]
    assert rec.residual == pytest.approx(8.1994e-6, rel=1e-3)
    # without pulses the same window entangles four orders harder
    u_free = schemes.echo_cycle(chain, site_energies(chain, LEVELS), 0.1,
                                pulsed_sites=(), cycles=1)
    dev_free = gates.invariant_deviation(u_free, np.eye(4))
    assert dev_free == pytest.approx(0.30331, rel=1e-3)
    assert dev_free / rec.residual > 1e4


def test_refocus_short_period_floor():
    chain = ChainSpec(n=2, coupling=1.0, roles="AB")
    recs = schemes.refocus_demo(chain, LEVELS, [1e-3, 1e-2])
    for rec in recs:
        assert rec.residual < 1e-4


def test_refocus_requires_two_sites():
    with pytest.raises(InvalidGrouping):
        schemes.refocus_demo(ChainSpec(n=3, coupling=1.0, roles="ABA"), LEVELS, [0.1])
