import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainlab import gates, schemes
from chainlab.errors import InvalidGrouping
from chainlab.evolve import ZeemanSchedule, evolve
from chainlab.model import ChainSpec, ZeemanLevels, site_energies

LEVELS = ZeemanLevels.from_delta(coupling=1.0, delta=1000.0)


# ---------------------------------------------------------------------------
# architecture 1: alternating barrier/qubit sites


def test_arch1_section_geometry():
    arch = schemes.arch1_section(LEVELS)
    assert arch.chain.roles == "BABABABAB"
    assert arch.enc.qubit_sites == ((1,), (3,), (5,), (7,))
    # barrier patterns alternate down/up inward from the ends
    assert dict(arch.enc.barrier_refs) == {0: 1, 2: 0, 4: 1, 6: 0, 8: 1}
    assert arch.gate_barrier == 4
    assert arch.enc_gate_pair.qubit_sites == ((3,), (5,))
    assert dict(arch.enc_gate_pair.barrier_refs)[1] == 0
    assert dict(arch.enc_gate_pair.barrier_refs)[7] == 0
    a, b = LEVELS.a, LEVELS.b
    assert arch.passive_energies == (b, a, b, a, b, a, b, a, b)


def test_arch1_two_qubit_schedule_structure():
    t_gate = np.pi / 3.0
    arch = schemes.arch1_section(LEVELS)
    sched = schemes.arch1_two_qubit_schedule(arch, t_gate, pad=0.2)
    assert len(sched.segments) == 3
    assert sched.segments[0].duration == pytest.approx(0.2)
    assert sched.segments[1].duration == pytest.approx(t_gate)
    gate_energies = sched.segments[1].energies
    assert gate_energies[4] == pytest.approx(LEVELS.a + 1.0)
    passive = arch.passive_energies
    assert gate_energies[:4] == passive[:4]
    assert sched.segments[0].energies == passive
    # zero padding drops the bracketing segments entirely
    bare = schemes.arch1_two_qubit_schedule(arch, t_gate, pad=0.0)
    assert len(bare.segments) == 1


def test_five_site_section_reference_state():
    # two qubits with an up guard on each end and a down gate barrier between
    enc = gates.EncodingMap.single_site(5, [1, 3], {0: 0, 2: 1, 4: 0})
    psi = enc.embed_basis()[:, 0]
    assert psi[0b00100] == 1.0
    assert np.count_nonzero(psi) == 1


# ---------------------------------------------------------------------------
# architecture 2: paired encoding with fixed barriers


def test_arch2_section_geometry():
    arch = schemes.arch2_section(LEVELS, n_triples=2)
    assert arch.chain.roles == "ABCABC"
    assert arch.enc.qubit_sites == ((0, 1), (3, 4))
    assert dict(arch.enc.barrier_refs) == {2: 0, 5: 0}
    # logical zero holds the pair's up spin on the second site
    assert arch.enc.chain_bits(0) == (1, 0, 0, 1, 0, 0)


def test_arch2_single_qubit_flip_rate():
    # resonant drive of the pair's upper site transfers population at rate 2J
    sub = ChainSpec(n=4, coupling=1.0, roles="CABC")
    for t in np.linspace(0.05, np.pi / 2.0, 7):
        sched, enc = schemes.arch2_single_qubit_schedule(LEVELS, delta=0.0, t=t)
        psi = evolve(sub, sched, enc.embed_basis()[:, 0])
        p1 = abs(enc.embed_basis()[:, 1].conj() @ psi) ** 2
        assert p1 == pytest.approx(np.sin(2.0 * t) ** 2, abs=5e-6)


def test_arch2_full_flip_duration():
    sub = ChainSpec(n=4, coupling=1.0, roles="CABC")
    sched, enc = schemes.arch2_single_qubit_schedule(LEVELS, delta=0.0, t=np.pi / 4.0)
    psi = evolve(sub, sched, enc.embed_basis()[:, 0])
    p1 = abs(enc.embed_basis()[:, 1].conj() @ psi) ** 2
    assert p1 > 1.0 - 1e-5


def test_arch2_two_qubit_schedule_drive_site():
    t = np.pi / np.sqrt(5.0)
    arch = schemes.arch2_section(LEVELS)
    sched = schemes.arch2_two_qubit_schedule(arch, t, eps=LEVELS.c + 1.0)
    assert arch.enc.qubit_sites == ((0, 1), (3, 4))
    assert sched.segments[0].energies[1] == pytest.approx(LEVELS.c + 1.0)
    # only the left qubit's upper site leaves its passive level
    passive = arch.passive_energies
    assert sched.segments[0].energies[:1] + sched.segments[0].energies[2:] == (
        passive[:1] + passive[2:])
    at_wp = schemes.arch2_two_qubit_schedule(arch, t, eps=schemes.arch2_working_point(LEVELS))
    assert at_wp.segments[0].energies[1] == pytest.approx(LEVELS.c - 1.0)


def test_arch2_working_point_value():
    assert schemes.arch2_working_point(LEVELS) == pytest.approx(LEVELS.c - 1.0)
    assert schemes.arch2_working_point(LEVELS, coupling=2.0) == pytest.approx(LEVELS.c - 2.0)


# ---------------------------------------------------------------------------
# architecture 3: two global knobs


def test_six_settings_literal_values():
    a, b, c = LEVELS.a, LEVELS.b, LEVELS.c
    st6 = schemes.six_settings(LEVELS)
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
    probe = schemes.SixSetting("probe", eps_even=1.0, eps_odd=2.0, duration=0.1)
    energies = schemes.arch3_apply(arch, probe).segments[0].energies
    assert tuple(i for i, e in enumerate(energies) if e == 1.0) == EVEN_SITES
    assert tuple(i for i, e in enumerate(energies) if e == 2.0) == ODD_SITES
    assert arch.enc.qubit_sites == ((0, 1), (3, 4), (6, 7), (9, 10))


def test_arch3_apply_sets_both_groups():
    arch = schemes.arch3_section(LEVELS)
    setting = schemes.six_settings(LEVELS)[4]  # even:A+J odd:B
    sched = schemes.arch3_apply(arch, setting)
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
    return chain, enc, [gate] * 20, psi0, t_gate


def run_zeno(k, stddev, mode, trials=2000, seed=1234):
    chain, enc, seq, psi0, t_gate = zeno_demo()
    interval = k * t_gate if np.isfinite(k) else np.inf
    cfg = schemes.ZenoConfig(collapse_interval=interval, jitter_stddev=stddev,
                             trials=trials, seed=seed)
    return schemes.zeno_run(chain, seq, enc, cfg, psi0=psi0, jitter_mode=mode)


def test_zeno_config_validation():
    with pytest.raises(ValueError):
        schemes.ZenoConfig(collapse_interval=1.0, jitter_stddev=0.05, trials=0, seed=1)
    with pytest.raises(ValueError):
        schemes.ZenoConfig(collapse_interval=1.0, jitter_stddev=-0.1, trials=10, seed=1)
    with pytest.raises(ValueError):
        chain, enc, seq, psi0, _ = zeno_demo()
        cfg = schemes.ZenoConfig(collapse_interval=1.0, jitter_stddev=0.0,
                                 trials=2, seed=1)
        schemes.zeno_run(chain, seq, enc, cfg, psi0=psi0, jitter_mode="bogus")


def test_zeno_zero_jitter_never_misfires():
    stats = run_zeno(1, 0.0, "independent", trials=64, seed=7)
    assert stats.wrong_collapse_probability == 0.0
    assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-9)
    assert stats.n_collapse_points == 20


def test_zeno_collapse_point_counts():
    for k, expected in ((1, 20), (4, 5), (10, 2), (np.inf, 1)):
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
    never = run_zeno(np.inf, 0.05, "independent")
    assert every.wrong_collapse_probability == pytest.approx(0.25900, abs=1e-3)
    assert never.wrong_collapse_probability == pytest.approx(0.19750, abs=1e-3)
    assert every.mean_fidelity == pytest.approx(0.765272, abs=1e-3)
    assert never.mean_fidelity == pytest.approx(0.776853, abs=1e-3)
    # uncorrelated timing errors random-walk: watching more often only adds
    # chances to catch the walker away from home, it does not steer it back
    assert every.wrong_collapse_probability > never.wrong_collapse_probability + 0.03


def test_zeno_systematic_jitter_suppressed_by_frequent_collapse():
    stats = [run_zeno(k, 0.01, "systematic") for k in (1, 4, 10, np.inf)]
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
    stats.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,wrong_collapse,fidelity"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("0", "1")
    assert float(first[2]) == pytest.approx(stats.fidelity[0], rel=1e-10)


def test_zeno_json_summary():
    import json
    stats = run_zeno(4, 0.05, "independent", trials=8, seed=3)
    doc = json.loads(stats.to_json())
    assert doc["trials"] == 8
    assert doc["n_collapse_points"] == 5
    assert doc["wrong_collapse_probability"] == stats.wrong_collapse_probability


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=25))
def test_collapse_flags_by_elapsed_time(k):
    chain, enc, seq, psi0, t_gate = zeno_demo()
    flags = schemes._collapse_after(seq, k * t_gate)
    # every k-th boundary fires, and the run always ends with a readout
    for i, f in enumerate(flags[:-1]):
        assert f == ((i + 1) % k == 0)
    assert flags[-1]


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
