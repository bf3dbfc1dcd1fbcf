"""Reference integrator, eigensolver and comparison metrics."""

import ast
from pathlib import Path

import numpy as np
import pytest

from qswarm import (
    Boundary,
    ComplexField,
    DomainError,
    FieldGrid,
    LatticeSpec,
    PotentialField,
    density_error,
    energy_levels,
    free_gaussian_1d,
    ground_state,
    hamiltonian,
    reference_evolve,
)


def test_zero_duration_identity():
    spec = LatticeSpec((16,))
    psi = np.exp(2j * np.arange(16)) / 4.0
    out = reference_evolve(ComplexField(spec, psi), PotentialField.zero(spec), 0.0, 0.1)
    assert np.array_equal(out.psi, psi)


def test_plane_wave_phase_advance():
    """A periodic plane wave only picks up exp(-i E_k T) with the discrete
    dispersion E_k = 2(1 - cos kh)/h^2."""
    spec = LatticeSpec((32,))
    k = 2 * np.pi * 3 / 32
    psi = np.exp(1j * k * np.arange(32)) / np.sqrt(32)
    T = 2.0
    out = reference_evolve(ComplexField(spec, psi), PotentialField.zero(spec), T, 0.005)
    E = 2 * (1 - np.cos(k))
    expected = psi * np.exp(-1j * E * T)
    assert np.abs(out.psi - expected).max() < 1e-5


def test_free_gaussian_matches_closed_form():
    spec = LatticeSpec((256,))
    g0 = free_gaussian_1d(spec, 0.0, 8.0, 0.0)
    out = reference_evolve(g0, PotentialField.zero(spec), 40.0, 0.02)
    exact = free_gaussian_1d(spec, 0.0, 8.0, 40.0)
    assert np.linalg.norm(out.psi - exact.psi) <= 1e-3


def test_norm_preservation():
    rng = np.random.default_rng(0)
    spec = LatticeSpec((32,))
    psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    psi /= np.linalg.norm(psi)
    V = PotentialField(FieldGrid(spec, rng.standard_normal(32)))
    out = reference_evolve(ComplexField(spec, psi), V, 100.0, 0.1)  # 1e3 steps
    assert abs(np.linalg.norm(out.psi) - 1.0) <= 1e-9


def test_time_reversal():
    rng = np.random.default_rng(1)
    spec = LatticeSpec((24,))
    psi = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    psi /= np.linalg.norm(psi)
    V = PotentialField(FieldGrid(spec, rng.standard_normal(24)))
    fwd = reference_evolve(ComplexField(spec, psi), V, 5.0, 0.05)
    back = reference_evolve(fwd, V, -5.0, 0.05)
    assert np.linalg.norm(back.psi - psi) <= 1e-6


def test_invalid_dt():
    spec = LatticeSpec((8,))
    with pytest.raises(DomainError):
        reference_evolve(ComplexField(spec, np.ones(8, complex)),
                         PotentialField.zero(spec), 1.0, 0.0)


# ---------------------------------------------------------------------------
# eigenstates

def test_ground_state_free_periodic():
    spec = LatticeSpec((20,))
    E, psi = ground_state(spec, PotentialField.zero(spec))
    assert abs(E) < 1e-10
    assert np.allclose(np.abs(psi.psi), 1 / np.sqrt(20))


def test_ground_state_infinite_well():
    N = 100
    spec = LatticeSpec((N,), boundary=Boundary.ABSORBING)
    E, _ = ground_state(spec, PotentialField.zero(spec))
    L = N + 1  # wall sits one cell outside the lattice
    assert E == pytest.approx(np.pi**2 / L**2, rel=0.02)


def test_ground_state_is_stationary():
    spec = LatticeSpec((48,), boundary=Boundary.ABSORBING)
    x = spec.coordinates(0)
    V = PotentialField(FieldGrid(spec, 0.05 * x**2))
    E, psi = ground_state(spec, V)
    out = reference_evolve(psi, V, 50.0, 0.05)  # 1e3 steps
    assert density_error(out, psi) <= 1e-6


def test_harmonic_levels_equally_spaced():
    spec = LatticeSpec((320,), h=0.2, boundary=Boundary.ABSORBING)
    x = spec.coordinates(0)
    V = PotentialField(FieldGrid(spec, x**2))
    levels = energy_levels(spec, V, 5)
    gaps = np.diff(levels)
    # -d^2/dx^2 + x^2 has exact spacing 2 in these units
    assert np.abs(gaps - 2.0).max() / 2.0 <= 0.03


def test_eigensolver_residual():
    spec = LatticeSpec((30, 30))  # large enough to take the sparse path
    x = spec.coordinates(0)
    V = PotentialField(FieldGrid(spec, 0.1 * (x[:, None] ** 2 + x[None, :] ** 2)))
    E, psi = ground_state(spec, V)
    H = hamiltonian(spec, V)
    assert np.linalg.norm(H @ psi.psi.ravel() - E * psi.psi.ravel()) < 1e-8


def test_dense_eigensolver_path_checks_its_residual(monkeypatch):
    """Below 400 cells the levels come from a dense solve, and its pairs
    pass the same 1e-8 residual check as LOBPCG's: a level off by 1e-6
    raises instead of being returned."""
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] + 1e-6, eigh(a)[1]))
    spec = LatticeSpec((16,))
    V = PotentialField.zero(spec)
    for solve in (lambda: energy_levels(spec, V, 3), lambda: ground_state(spec, V)):
        with pytest.raises(RuntimeError, match="residual .* above 1e-8"):
            solve()


def test_energy_levels_sparse_path_matches_dense():
    spec = LatticeSpec((21, 21), boundary=Boundary.ABSORBING)  # 441 cells: LOBPCG
    x = spec.coordinates(0)
    V = PotentialField(FieldGrid(spec, 0.1 * (x[:, None] ** 2 + x[None, :] ** 2)))
    dense = np.sort(np.linalg.eigvalsh(hamiltonian(spec, V).toarray()))[:6]
    assert np.abs(energy_levels(spec, V, 6) - dense).max() <= 1e-10


@pytest.mark.parametrize("boundary", list(Boundary))
def test_free_ground_state_past_400_cells(boundary):
    """Past 400 cells the eigensolver is iterative: at a loose tolerance it
    could settle on an excited level of the free lattice."""
    spec = LatticeSpec((21, 21), boundary=boundary)
    V = PotentialField.zero(spec)
    lowest = np.linalg.eigvalsh(hamiltonian(spec, V).toarray())[0]
    assert ground_state(spec, V)[0] == pytest.approx(lowest, abs=1e-9)
    assert energy_levels(spec, V, 1)[0] == pytest.approx(lowest, abs=1e-9)


def test_degenerate_levels_past_400_cells():
    """Every copy of a degenerate level, on every call: the free periodic 8^3
    lattice has six copies of its second level, and single-vector Lanczos
    from a random start missed one in 8 of 30 calls."""
    spec = LatticeSpec((8, 8, 8))
    V = PotentialField.zero(spec)
    dense = np.linalg.eigvalsh(hamiltonian(spec, V).toarray())[:6]
    for _ in range(20):
        assert np.abs(energy_levels(spec, V, 6) - dense).max() <= 1e-10


def test_oracle_imports_no_stepping_code():
    """The reference shares no code with the swarm integrators."""
    import qswarm.oracle

    names = set()  # every dotted part of every module or name imported
    for node in ast.walk(ast.parse(Path(qswarm.oracle.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for dotted in [getattr(node, "module", None) or ""] + [a.name for a in node.names]:
                names.update(dotted.split("."))
    assert "lattice" in names
    assert not names & {"dynamics", "swarm"}


# ---------------------------------------------------------------------------
# density_error

def test_density_error_identical():
    spec = LatticeSpec((8,))
    psi = np.exp(1j * np.arange(8)) / np.sqrt(8)
    assert density_error(ComplexField(spec, psi), ComplexField(spec, psi)) == 0.0


def test_density_error_disjoint_deltas():
    spec = LatticeSpec((8,))
    a = np.zeros(8, complex)
    b = np.zeros(8, complex)
    a[1] = 1.0
    b[5] = 1.0
    err = density_error(ComplexField(spec, a), ComplexField(spec, b))
    assert err == pytest.approx(np.sqrt(2))


def test_density_error_hand_computed():
    da = np.array([3.0, 1.0])  # normalized: (0.75, 0.25)
    db = np.array([1.0, 1.0])  # normalized: (0.5, 0.5)
    expected = np.sqrt(2 * 0.25**2)
    assert density_error(da, db) == pytest.approx(expected)


def test_density_error_shape_mismatch():
    with pytest.raises(DomainError):
        density_error(np.ones(4), np.ones(5))


def test_complex_field_rejects_non_finite():
    spec = LatticeSpec((4,))
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(DomainError):
            ComplexField(spec, np.array([1.0, bad, 0.0, 0.0]))
