
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainlab import model
from chainlab.errors import LengthMismatch, SiteOutOfRange


def kron_oracle_heisenberg(n, energies, J):
    """Independent construction through explicit Kronecker products."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i, e in enumerate(energies):
        h += e * model.pauli_site("z", i, n)
    for i in range(n - 1):
        for ax in ("x", "y", "z"):
            h += J * model.pauli_site(ax, i, n) @ model.pauli_site(ax, i + 1, n)
    return h


def test_pauli_site_embedding():
    z1 = model.pauli_site("z", 1, 2)
    assert np.allclose(z1, np.diag([1, -1, 1, -1]))
    x0 = model.pauli_site("x", 0, 2)
    assert np.allclose(x0, np.kron(model.PAULI_X, np.eye(2)))


def test_pauli_site_out_of_range():
    with pytest.raises(SiteOutOfRange):
        model.pauli_site("z", 3, 3)
    with pytest.raises(SiteOutOfRange):
        model.pauli_site("x", -1, 2)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        model.ChainSpec(n=1, coupling=1.0, roles="A")
    with pytest.raises(ValueError):
        model.ChainSpec(n=13, coupling=1.0, roles="A" * 13)
    with pytest.raises(ValueError):
        model.ChainSpec(n=2, coupling=0.0, roles="AB")
    with pytest.raises(LengthMismatch):
        model.ChainSpec(n=3, coupling=1.0, roles="AB")
    with pytest.raises(ValueError):
        model.ChainSpec(n=2, coupling=1.0, roles="AD")


def test_zeeman_levels_default_spacing():
    lv = model.ZeemanLevels.from_delta(coupling=2.0, delta=50.0)
    assert lv.b - lv.a == pytest.approx(100.0)
    assert lv.c - lv.b == pytest.approx(100.0)


def test_basis_convention():
    # site 0 is the most significant bit; up = bit 0
    assert model.basis_index((0, 0, 1)) == 1
    assert model.basis_index((1, 0, 0)) == 4
    assert model.basis_index((1, 0, 1)) == 5
    # basis state 2 of two sites is (down, up)
    assert tuple(model.sigma_z_values(2)[:, 2]) == (-1.0, 1.0)


def test_heisenberg_pair_spectrum():
    chain = model.ChainSpec(n=2, coupling=1.0, roles="AB")
    h = model.build_heisenberg(chain, (0.0, 0.0))
    assert np.allclose(np.linalg.eigvalsh(h), [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_heisenberg_pair_uniform_field():
    # Hand-built 4x4: uniform field e shifts only the m = +-1 triplet states.
    e, J = 0.7, 1.3
    manual = np.array([
        [2 * e + J, 0, 0, 0],
        [0, -J, 2 * J, 0],
        [0, 2 * J, -J, 0],
        [0, 0, 0, -2 * e + J],
    ], dtype=complex)
    chain = model.ChainSpec(n=2, coupling=J, roles="AA")
    h = model.build_heisenberg(chain, (e, e))
    assert np.allclose(h, manual, atol=1e-12)
    expected = sorted([-3 * J, J, J + 2 * e, J - 2 * e])
    assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


def test_heisenberg_matches_kron_oracle_three_sites():
    chain = model.ChainSpec(n=3, coupling=0.8, roles="ABA")
    energies = (0.3, -1.1, 2.5)
    h = model.build_heisenberg(chain, energies)
    assert np.allclose(h, kron_oracle_heisenberg(3, energies, 0.8), atol=1e-12)


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_heisenberg_matches_kron_oracle_random(n, seed):
    rng = np.random.default_rng(seed)
    energies = tuple(rng.uniform(-3, 3, n))
    J = float(rng.uniform(0.1, 2.0))
    chain = model.ChainSpec(n=n, coupling=J, roles="A" * n)
    assert np.allclose(model.build_heisenberg(chain, energies),
                       kron_oracle_heisenberg(n, energies, J), atol=1e-12)


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_heisenberg_conserves_total_sz(n, seed):
    rng = np.random.default_rng(seed)
    chain = model.ChainSpec(n=n, coupling=float(rng.uniform(0.1, 2.0)), roles="B" * n)
    h = model.build_heisenberg(chain, tuple(rng.uniform(-5, 5, n)))
    sz = sum(model.pauli_site("z", i, n) for i in range(n))
    comm = h @ sz - sz @ h
    assert np.abs(comm).max() < 1e-12


def test_heisenberg_energy_length_check():
    chain = model.ChainSpec(n=3, coupling=1.0, roles="ABA")
    with pytest.raises(LengthMismatch):
        model.build_heisenberg(chain, (0.0, 0.0))


def test_effective_ising_pair():
    chain = model.ChainSpec(n=2, coupling=1.0, roles="AB")
    h = model.classical_ising_energies(chain, (0.0, 0.0))
    assert np.allclose(h, [1.0, -1.0, -1.0, 1.0])


def test_effective_ising_is_diagonal():
    # the effective Ising energies are the diagonal of the full Heisenberg H
    chain = model.ChainSpec(n=4, coupling=0.7, roles="ABAB")
    energies = (1.0, 2.0, 3.0, 4.0)
    h = model.classical_ising_energies(chain, energies)
    assert np.array_equal(np.diag(model.build_heisenberg(chain, energies)).real, h)


def test_effective_ising_classical_enumeration_nine_sites():
    # Oracle: enumerate all 512 classical configurations with a plain loop.
    n, J = 9, 1.0
    chain = model.ChainSpec(n=n, coupling=J, roles="ABABABABA")
    lv = model.ZeemanLevels.from_delta(coupling=J, delta=100.0)
    energies = model.site_energies(chain, lv)
    expected = []
    for cfg in range(2 ** n):
        bits = [(cfg >> (n - 1 - i)) & 1 for i in range(n)]
        s = [1 - 2 * b for b in bits]
        e_cl = sum(energies[i] * s[i] for i in range(n))
        e_cl += J * sum(s[i] * s[i + 1] for i in range(n - 1))
        expected.append(e_cl)
    h = model.classical_ising_energies(chain, energies)
    assert np.allclose(h, expected, atol=1e-9)


def test_reduced_three_spin_matches_shifted_chain():
    a, J, eps = 0.4, 1.1, 3.7
    reduced = model.reduced_three_spin(a, J, eps)
    assert reduced.shape == (8, 8)
    chain = model.ChainSpec(n=3, coupling=J, roles="ABA")
    direct = model.build_heisenberg(chain, (a + J, eps, a + J))
    assert np.array_equal(reduced, direct)


def test_reduced_three_spin_middle_energy_is_z_axis():
    # eps couples through sigma^z on the middle spin only
    d = model.reduced_three_spin(0.0, 1.0, 10.0) - model.reduced_three_spin(0.0, 1.0, 0.0)
    assert np.allclose(d, 10.0 * model.pauli_site("z", 1, 3), atol=1e-12)
