"""Detuning sweeps and convergence studies.

The central study evaluates the mediated two-qubit gate of the alternate-site
architecture across barrier detunings: for each detuning the gate schedule is
rebuilt, the revival relocated, and the sixteen encoded four-qubit basis
states evolved through the nine-spin chain and compared against the ideal
exchange gate.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, IoFailure, NoRevivalFound
from .evolve import ZeemanSchedule, evolve, zeeman_frame
from .gates import exchange_gate_target, logical_block
from .linalg import golden_section, op_distance
from .model import ChainSpec, ZeemanLevels, classical_ising_energies, sigma_z_values, site_energies
from .schemes import ArchitectureOne, arch1_revival, arch1_section

DEFAULT_DELTA_GRID = (5.0, 10.0, 20.0, 50.0, 100.0, 300.0, 1000.0)
CHI_SCAN_POINTS = 720
ISING_CHAIN_SITES = 4
ISING_HOLD_TIME = 1.0   # in units of 1/J
_CSV_CHUNK_ROWS = 8192  # rows per write of emit_table; bounds the text held


@dataclass(frozen=True)
class SweepSpec:
    """At least two ascending detunings and the coupling; sections holds the
    arch-1 section of each detuning, built here once."""

    delta_values: tuple[float, ...]
    coupling: float = 1.0
    sections: tuple[ArchitectureOne, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dv = tuple(float(d) for d in self.delta_values)
        object.__setattr__(self, "delta_values", dv)
        if len(dv) < 2:
            raise ConfigInvalid("delta_values needs at least 2 points")
        sections = []
        for i, d in enumerate(dv):
            try:
                sections.append(arch1_section(ZeemanLevels(self.coupling, d)))
            except ValueError as exc:
                raise ConfigInvalid(f"delta_values[{i}] = {d}: {exc}") from exc
        if list(dv) != sorted(dv):
            raise ConfigInvalid("delta_values must be ascending")
        object.__setattr__(self, "sections", tuple(sections))


@dataclass(frozen=True)
class DefectRecord:
    delta: float
    t_r: float
    defect_worst: float     # max over basis inputs of 1 - |<ideal|actual>|^2
    phase_noise_rad: float  # max basis-state phase deviation after frame fit
    leakage: float


def _middle_pair_dressing(signs: np.ndarray, chi: float | np.ndarray) -> np.ndarray:
    """Per-logical-basis phase of a differential z rotation on the two gate
    qubits, one row per angle if chi is a column of angles.  Only the
    difference angle can change overlap moduli; common z phases factor into
    the global/linear fit."""
    return np.exp(1j * (0.5 * chi * (signs[:, 1] - signs[:, 2])))


def _walsh_phase_residual(overlaps: Sequence[complex], signs: np.ndarray) -> float:
    """Largest phase deviation unexplained by a global phase plus one z angle
    per sign column, computed wrap-free from products of unit phasors."""
    phasors = np.asarray(overlaps, dtype=complex)
    phasors = phasors / np.abs(phasors)
    n, k = signs.shape
    # Walsh functions outside the model span: products of >= 2 sign columns
    residual = np.zeros(n)
    for m in range(2, k + 1):
        for combo in combinations(range(k), m):
            w = np.prod(signs[:, list(combo)], axis=1).astype(float)
            coeff = np.angle(np.prod(phasors ** w)) / n
            residual += coeff * w
    return float(np.max(np.abs(residual)))


def _sweep_point(arch: ArchitectureOne) -> DefectRecord:
    sched, t_r, _ = arch1_revival(arch)
    logical, leakage = logical_block(arch.chain, sched, arch.enc, arch.passive_energies)
    target = np.kron(np.kron(np.eye(2), exchange_gate_target()), np.eye(2))
    # overlap_j(chi) = sum_k conj(dress_k * target[k, j]) * logical[k, j]
    amp = target.conj() * logical
    signs = sigma_z_values(arch.enc.n_qubits).T   # one row of qubit sigma^z signs per input

    def worst_defect(chi: float) -> float:
        ov = _middle_pair_dressing(signs, chi).conj() @ amp
        return float(np.max(1.0 - np.abs(ov) ** 2))

    grid = np.linspace(-np.pi, np.pi, CHI_SCAN_POINTS, endpoint=False)
    scan = _middle_pair_dressing(signs, grid[:, None]).conj() @ amp
    k = int(np.argmin(np.max(1.0 - np.abs(scan) ** 2, axis=1)))
    lo, hi = grid[k] - 2 * np.pi / CHI_SCAN_POINTS, grid[k] + 2 * np.pi / CHI_SCAN_POINTS
    chi_opt, _ = golden_section(worst_defect, lo, hi, 1e-10)
    defect_worst = worst_defect(chi_opt)

    # phase noise over the inputs whose middle pair is |00> or |11>: there the
    # ideal map is diagonal and any honest phase model is global + per-qubit z
    mid_diag = signs[:, 1] == signs[:, 2]
    phase_noise = _walsh_phase_residual(amp.sum(axis=0)[mid_diag],
                                        signs[mid_diag][:, [0, 1, 3]])
    return DefectRecord(delta=float(arch.levels.delta), t_r=float(t_r),
                        defect_worst=defect_worst, phase_noise_rad=phase_noise,
                        leakage=leakage)


def defect_sweep(spec: SweepSpec, threads: int | None = None) -> list[DefectRecord]:
    """One DefectRecord per detuning; points without a barrier revival are
    skipped (missing row) rather than failing the sweep."""
    def safe(arch: ArchitectureOne) -> DefectRecord | None:
        try:
            return _sweep_point(arch)
        except NoRevivalFound:
            return None

    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(safe, spec.sections))
    else:
        results = list(map(safe, spec.sections))
    return [r for r in results if r is not None]


# ---------------------------------------------------------------------------
# effective-Ising convergence


@dataclass(frozen=True)
class IsingRecord:
    delta: float
    distance: float   # propagator difference after frame stripping
    leakage: float    # worst diagonal population deficit of the full model


@dataclass(frozen=True)
class IsingFit:
    records: tuple[IsingRecord, ...]
    distance_slope: float
    leakage_slope: float


def ising_convergence(delta_grid: Sequence[float], coupling: float = 1.0) -> IsingFit:
    """Full-chain vs effective-Ising propagators on a passive alternating
    chain of ISING_CHAIN_SITES held for ISING_HOLD_TIME.  Leakage (population
    escaping each computational basis state) falls off two decades per
    detuning decade; the unitary distance one."""
    grid = [float(d) for d in delta_grid]
    if len(grid) < 3 or max(grid) < 10 * min(grid):
        raise ConfigInvalid("delta_grid needs >= 3 points spanning a decade")
    t = ISING_HOLD_TIME / coupling
    n = ISING_CHAIN_SITES
    chain = ChainSpec(n=n, coupling=coupling, roles=("AB" * n)[:n])
    records = []
    for delta in grid:
        levels = ZeemanLevels(coupling, delta)
        energies = site_energies(chain, levels)
        # strip the same Zeeman frame from both propagators
        frame = zeeman_frame(chain, energies, t).conj()
        u = evolve(chain, ZeemanSchedule.from_steps([(t, energies)]), np.eye(chain.dim))
        u *= frame[:, None]
        u_ising = np.diag(np.exp(-1j * classical_ising_energies(chain, energies) * t) * frame)
        dist = op_distance(u, u_ising)
        leak = float(np.max(1.0 - np.abs(np.diag(u)) ** 2))
        records.append(IsingRecord(delta=delta, distance=float(dist), leakage=leak))
    logd = np.log10(grid)
    dslope = float(np.polyfit(logd, np.log10([r.distance for r in records]), 1)[0])
    lslope = float(np.polyfit(logd, np.log10([r.leakage for r in records]), 1)[0])
    return IsingFit(records=tuple(records), distance_slope=dslope, leakage_slope=lslope)


# ---------------------------------------------------------------------------
# tabular output


def record_columns(records: Sequence) -> dict[str, list]:
    """The fields of dataclass records of one type as columns, for emit_table."""
    return {f.name: [getattr(r, f.name) for r in records] for f in fields(records[0])}


def emit_table(columns: dict[str, Sequence], path, fmt: str = "csv") -> None:
    """Write equal-length columns (name -> values) as CSV or JSON: header
    from the names, rows in input order, floats to 12 significant digits.

    For numeric columns the CSV is byte for byte what csv.writer writes
    (CRLF line ends); it is built one format string per row and written
    _CSV_CHUNK_ROWS rows at a time.  JSON rows go through emit_json.
    """
    cols = [np.asarray(c) for c in columns.values()]
    n_rows = len(cols[0]) if cols else 0
    if n_rows == 0 or any(len(c) != n_rows for c in cols):
        raise ConfigInvalid("emit_table needs non-empty columns of equal length")
    if fmt not in ("csv", "json"):
        raise ConfigInvalid(f"unknown table format {fmt!r}")
    if fmt == "json":
        return emit_json([{name: (float(f"{v:.12g}") if isinstance(v, float) else v)
                           for name, v in zip(columns, vals)}
                          for vals in zip(*(c.tolist() for c in cols))], path)
    row = ",".join("{:.12g}" if c.dtype.kind == "f" else "{}" for c in cols) + "\r\n"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(columns) + "\r\n")
            for lo in range(0, n_rows, _CSV_CHUNK_ROWS):
                chunk = (c[lo:lo + _CSV_CHUNK_ROWS].tolist() for c in cols)
                fh.write("".join(map(row.format, *chunk)))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def emit_json(doc, path) -> None:
    """Write doc as every JSON artifact is written: indent 1, sorted keys, final newline."""
    try:
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
