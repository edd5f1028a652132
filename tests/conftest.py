"""Shared fixtures for the expensive end-to-end pipelines.

The nine-site extraction and the default detuning sweep take seconds each;
they are computed once per session and reused by the unit and acceptance
tests.
"""

import pytest

from chainlab import analysis, schemes
from chainlab.model import ZeemanLevels


@pytest.fixture(scope="session")
def arch1_pipeline():
    """Nine-site exchange gate at detuning 1000: revival, extraction, alignment."""
    coupling = 1.0
    levels = ZeemanLevels.from_delta(coupling=coupling, delta=1000.0)
    arch = schemes.arch1_section(levels, coupling)
    t_r, p_r, gate, leakage, alignment = schemes.arch1_exchange_gate(arch)
    return {
        "coupling": coupling,
        "levels": levels,
        "t_r": t_r,
        "p_r": p_r,
        "gate": gate,
        "leakage": leakage,
        "alignment": alignment,
    }


@pytest.fixture(scope="session")
def default_sweep():
    """Defect sweep over the default detuning grid."""
    spec = analysis.SweepSpec(delta_values=analysis.DEFAULT_DELTA_GRID)
    return analysis.defect_sweep(spec)
