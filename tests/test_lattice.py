"""Lattice geometry, diffusion and Green-function relaxation."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from qswarm import (
    Boundary,
    DomainError,
    FieldGrid,
    LatticeSpec,
    cell_coords,
    cell_index,
    diffuse_field,
    diffusion_coefficient,
    field_laplacian,
    laplacian_matrix,
    relax_to_green,
)
from qswarm import lattice
from qswarm.lattice import _add_inflow, _neighbor_sum


def test_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec((1,))
    with pytest.raises(DomainError):
        LatticeSpec((4, 4, 4, 4))
    with pytest.raises(DomainError):
        LatticeSpec((8,), h=0.0)
    with pytest.raises(ValueError):
        LatticeSpec((8,), boundary="open")
    spec = LatticeSpec((4, 6))
    assert spec.ndim == 2 and spec.ncells == 24


@pytest.mark.parametrize("dims, h", [
    ((2.5,), 1.0),  # fractional: not truncated to 2 cells
    ((8, float("nan")), 1.0),
    ((8,), float("inf")),  # would make every Laplacian zero
], ids=["fractional-dims", "nan-dims", "infinite-h"])
def test_spec_rejects_non_integral_or_non_finite(dims, h):
    with pytest.raises(DomainError):
        LatticeSpec(dims, h=h)


@pytest.mark.parametrize("h", [1e-154, 5e-324, 1e-170, 2e154, 1e200, np.float64(1e200),
                               np.float64(1e-170), -1.0, float("nan")])
def test_spec_rejects_a_spacing_whose_square_leaves_the_float_range(h):
    """Every stencil divides by h*h and the stability bound by 4d/(h*h): a
    spacing that makes either one zero or infinite is a DomainError, with
    no OverflowError and no numpy warning."""
    with pytest.raises(DomainError, match="cell spacing"):
        LatticeSpec((8,), h=h)


@pytest.mark.parametrize("dims", [(4,), (4, 4), (4, 4, 4)], ids=["1d", "2d", "3d"])
def test_spec_accepts_spacings_from_1e_153_to_1e153(dims):
    for h in (1e-153, 1e153):
        spec = LatticeSpec(dims, h=h)
        assert np.isfinite(4 * spec.ndim / spec.h**2) and spec.h**2 > 0


def test_cell_index_origin():
    assert cell_index((0, 0), LatticeSpec((4, 4))) == 0


def test_cell_index_row_major():
    assert cell_index((1, 2), LatticeSpec((4, 4))) == 6


def test_cell_index_periodic_wrap():
    spec = LatticeSpec((4, 4), boundary=Boundary.PERIODIC)
    assert cell_index((5, 1), spec) == cell_index((1, 1), spec) == 5


def test_cell_index_out_of_range():
    spec = LatticeSpec((4, 4), boundary=Boundary.ABSORBING)
    with pytest.raises(DomainError):
        cell_index((5, 1), spec)


def test_cell_coords_roundtrip():
    spec = LatticeSpec((3, 4, 5))
    for idx in range(spec.ncells):
        assert cell_index(cell_coords(idx, spec), spec) == idx


def test_diffuse_delta_no_motion():
    spec = LatticeSpec((5,))
    f = spec.zeros()
    f[2] = 1.0
    out = diffuse_field(FieldGrid(spec, f), stay_prob=1.0)
    assert np.array_equal(out.values, f)


def test_diffuse_uniform_fixed_point():
    spec = LatticeSpec((6, 6))
    f = np.full(spec.dims, 3.5)
    for p in (0.0, 0.3, 1.0):
        out = diffuse_field(FieldGrid(spec, f), p)
        assert np.allclose(out.values, f)


def test_diffuse_delta_split():
    spec = LatticeSpec((5,))
    f = spec.zeros()
    f[2] = 12.0
    out = diffuse_field(FieldGrid(spec, f), stay_prob=0.5)
    assert np.array_equal(out.values, [0, 3, 6, 3, 0])


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("p", [0.0, 0.25, 0.7, 1.0])
def test_diffuse_mass_conservation(boundary, p):
    rng = np.random.default_rng(0)
    spec = LatticeSpec((7, 9), boundary=boundary)
    f = FieldGrid(spec, rng.random(spec.dims))
    out = diffuse_field(f, p)
    assert out.values.sum() == pytest.approx(f.values.sum(), rel=1e-9)
    assert np.all(out.values >= 0)


def test_diffuse_absorbing_loses_edge_mass():
    spec = LatticeSpec((4,), boundary=Boundary.ABSORBING)
    f = FieldGrid(spec, np.array([1.0, 0, 0, 0]))
    out = diffuse_field(f, 0.0)
    assert out.values.sum() < f.values.sum()


def test_laplacian_constant_zero():
    spec = LatticeSpec((8, 8))
    out = field_laplacian(FieldGrid(spec, np.full(spec.dims, 2.0)))
    assert np.allclose(out.values, 0.0)


def test_laplacian_stencil_by_hand():
    spec = LatticeSpec((3,))
    out = field_laplacian(FieldGrid(spec, np.array([0.0, 1.0, 0.0])))
    assert np.array_equal(out.values, [1.0, -2.0, 1.0])


def test_laplacian_quadratic_interior():
    spec = LatticeSpec((32,), boundary=Boundary.ABSORBING)
    x = np.arange(32, dtype=float)
    out = field_laplacian(FieldGrid(spec, x**2))
    assert np.allclose(out.values[1:-1], 2.0)


def _stencil_cases():
    """Every (shape, boundary) pair over 1-3 axes; 2D cases are named by the
    boundary alone."""
    for shape in ((5,), (5, 7), (4, 5, 6)):
        for boundary in Boundary:
            name = boundary.value if len(shape) == 2 else f"{len(shape)}d-{boundary.value}"
            yield pytest.param(shape, boundary, id=name)


@pytest.mark.parametrize("shape, boundary", [
    *_stencil_cases(),
    # on a 2-cell axis both neighbors of a cell are the other cell
    *(pytest.param(shape, boundary, id=f"{'x'.join(map(str, shape))}-{boundary.value}")
      for shape in ((2,), (2, 5)) for boundary in (Boundary.PERIODIC, Boundary.REFLECTING)),
])
def test_laplacian_matches_sparse_matrix(shape, boundary):
    """field_laplacian agrees with the independent kronsum-built operator."""
    rng = np.random.default_rng(3)
    spec = LatticeSpec(shape, h=0.5, boundary=boundary)
    f = rng.standard_normal(spec.dims)
    via_field = field_laplacian(FieldGrid(spec, f)).values
    via_matrix = (laplacian_matrix(spec) @ f.ravel()).reshape(spec.dims)
    assert np.allclose(via_field, via_matrix, atol=1e-12)


@pytest.mark.parametrize("shape, boundary", _stencil_cases())
def test_diffusion_is_identity_plus_laplacian(shape, boundary):
    """One diffusion step equals I + c*Lap on every boundary: the mass a
    reflecting edge bounces back is the mirrored neighbor, the mass an
    absorbing edge drops is the zero neighbor."""
    rng = np.random.default_rng(4)
    spec = LatticeSpec(shape, h=0.5, boundary=boundary)
    f = FieldGrid(spec, rng.random(spec.dims))
    moved = diffuse_field(f, 0.3).values - f.values
    c = diffusion_coefficient(spec, 0.3)
    assert np.allclose(moved, c * field_laplacian(f).values, rtol=0, atol=1e-12)


def _roll_inflow(v, axis, step, boundary):
    """Reference for _add_inflow: a rolled copy whose wrapped-in slice is
    masked out (absorbing) or replaced by the mass that tried to leave
    (reflecting)."""
    out = np.roll(v, step, axis=axis)
    if boundary is Boundary.PERIODIC:
        return out
    n = v.shape[axis]
    a = np.arange(n).reshape([n if k == axis else 1 for k in range(v.ndim)])
    out = np.where((a - step >= 0) & (a - step < n), out, 0)
    if boundary is Boundary.REFLECTING:
        out = out + np.where((a + step < 0) | (a + step >= n), v, 0)
    return out


@pytest.mark.parametrize("shape, boundary", _stencil_cases())
def test_add_inflow_matches_roll_reference(shape, boundary):
    """The flat-shift primitive and the neighbor sum equal a roll-based
    reference bit for bit, for real, complex and non-contiguous inputs."""
    rng = np.random.default_rng(5)
    real = rng.standard_normal(shape)
    inputs = {
        "float": real,
        "complex": real + 1j * rng.standard_normal(shape),
        "transposed": rng.standard_normal(shape[::-1]).T,
    }
    for kind, v in inputs.items():
        for axis in range(len(shape)):
            for step in (1, -1):
                total = rng.standard_normal(shape).astype(v.dtype)
                expected = total + _roll_inflow(v, axis, step, boundary)
                _add_inflow(total, v, axis, step, boundary)
                assert np.array_equal(total, expected), (kind, axis, step)
        expected = np.zeros(shape, v.dtype)
        for axis in range(len(shape)):
            for step in (+1, -1):
                expected += _roll_inflow(v, axis, step, boundary)
        assert np.array_equal(_neighbor_sum(v, boundary), expected), kind


@pytest.mark.parametrize("shape, boundary", _stencil_cases())
def test_neighbor_sum_adds_into_a_given_buffer(shape, boundary):
    """Given a buffer, the neighbor sum adds its 2d inflows to it in place,
    in _add_inflow's order, and returns that buffer."""
    rng = np.random.default_rng(6)
    v, start = rng.standard_normal(shape), rng.standard_normal(shape)
    expected = start.copy()
    for axis in range(len(shape)):
        for step in (+1, -1):
            _add_inflow(expected, v, axis, step, boundary)
    total = start.copy()
    assert _neighbor_sum(v, boundary, total) is total
    assert np.array_equal(total, expected)


A, P, R = Boundary.ABSORBING, Boundary.PERIODIC, Boundary.REFLECTING
# id: dims, boundary, absorption, source cell.  Periodic and reflecting
# lattices need an absorption > 0 to have a fixed point.  An off-centre
# source is two cells along each axis from the nearest cell that screens a
# sweep's convergence (every 4th along each axis), so the first sweeps pass
# the screen, on zeros, and fail the full test.
GREEN_CASES = {
    "3d-absorbing-centre": ((9, 9, 9), A, 0.0, (4, 4, 4)),
    "3d-absorbing-centre-absorption": ((9, 9, 9), A, 0.02, (4, 4, 4)),
    "1d-absorbing": ((13,), A, 0.0, (6,)),
    "1d-periodic": ((13,), P, 0.02, (6,)),
    "1d-reflecting": ((13,), R, 0.02, (6,)),
    "2d-absorbing": ((13, 10), A, 0.0, (6, 2)),
    "2d-periodic": ((13, 10), P, 0.02, (6, 2)),
    "2d-reflecting": ((13, 10), R, 0.02, (6, 2)),
    "3d-absorbing": ((9, 7, 10), A, 0.0, (6, 2, 6)),
    "3d-periodic": ((9, 7, 10), P, 0.02, (6, 2, 6)),
    "3d-reflecting": ((9, 7, 10), R, 0.02, (6, 2, 6)),
}


@pytest.mark.parametrize("steps", [5000, 3, 40])
@pytest.mark.parametrize("case", list(GREEN_CASES))
def test_green_matches_plain_loop(case, steps):
    """relax_to_green's screened sweep gives the iteration count,
    the last change and the field of the plain iteration
    F <- diffuse(F) + source - absorption*F, converged or cut by ``steps``."""
    dims, boundary, absorbing, cell = GREEN_CASES[case]
    spec = LatticeSpec(dims, boundary=boundary)
    src = spec.zeros()
    src[cell] = 2.0
    absorb = np.full(spec.dims, absorbing)
    res = relax_to_green(FieldGrid(spec, src), FieldGrid(spec, absorb), 0.5, steps, tol=1e-9)
    F = spec.zeros()
    for it in range(1, steps + 1):
        Fn = diffuse_field(FieldGrid(spec, F), 0.5).values + src - absorb * F
        change = np.max(np.abs(Fn - F) / np.maximum(np.abs(Fn), 1e-300))
        F = Fn
        if change < 1e-9:
            break
    assert res.converged == (change < 1e-9) == (steps == 5000)
    assert res.iterations == it
    assert res.last_change == change
    assert np.array_equal(res.field.values, F)


def test_green_sweeps_once_through_diffuse_field(monkeypatch):
    """Each sweep calls lattice.diffuse_field, looked up on the module, once."""
    calls = []
    inner = lattice.diffuse_field

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(lattice, "diffuse_field", counted)
    spec = LatticeSpec((9, 9, 9), boundary=Boundary.ABSORBING)
    src = spec.zeros()
    src[4, 4, 4] = 1.0
    res = relax_to_green(FieldGrid(spec, src), FieldGrid(spec), 0.5, 5000, tol=1e-9)
    assert res.converged and len(calls) == res.iterations


def test_green_zero_source():
    spec = LatticeSpec((9,), boundary=Boundary.ABSORBING)
    res = relax_to_green(FieldGrid(spec), FieldGrid(spec), 0.5, 100)
    assert res.converged and np.all(res.field.values == 0.0)


def test_green_1d_tent_profile():
    """Point source with absorbing ends: compare with the tridiagonal solve."""
    spec = LatticeSpec((17,), boundary=Boundary.ABSORBING)
    src = spec.zeros()
    src[8] = 1.0
    res = relax_to_green(FieldGrid(spec, src), FieldGrid(spec), 0.5, 50000, tol=1e-10)
    assert res.converged
    c = diffusion_coefficient(spec, 0.5)
    direct = spla.spsolve((-c * laplacian_matrix(spec)).tocsc(), src)
    assert np.allclose(res.field.values, direct, rtol=1e-6)
    # tent: linear on both sides of the source
    left = res.field.values[:9]
    assert np.allclose(np.diff(left, 2), 0.0, atol=1e-6 * left.max())


def test_green_fixed_point_relation():
    """c*Lap(F) = absorption*F - source at the converged field."""
    rng = np.random.default_rng(1)
    spec = LatticeSpec((11,), boundary=Boundary.ABSORBING)
    src = FieldGrid(spec, rng.random(spec.dims))
    absorb = FieldGrid(spec, 0.1 * rng.random(spec.dims))
    res = relax_to_green(src, absorb, 0.4, 50000, tol=1e-12)
    assert res.converged
    F = res.field.values
    c = diffusion_coefficient(spec, 0.4)
    lhs = c * field_laplacian(res.field).values
    rhs = absorb.values * F - src.values
    assert np.allclose(lhs, rhs, atol=1e-8 * np.abs(F).max())


def test_green_nonconvergence_flag():
    spec = LatticeSpec((17,), boundary=Boundary.ABSORBING)
    src = spec.zeros()
    src[8] = 1.0
    res = relax_to_green(FieldGrid(spec, src), FieldGrid(spec), 0.5, 3)
    assert not res.converged and res.iterations == 3
    # a numpy integer is a whole number of steps
    res = relax_to_green(FieldGrid(spec, src), FieldGrid(spec), 0.5, np.int64(3))
    assert not res.converged and res.iterations == 3


def test_green_rejects_negative_source():
    spec = LatticeSpec((9,))
    with pytest.raises(DomainError):
        relax_to_green(FieldGrid(spec, -np.ones(9)), FieldGrid(spec), 0.5, 10)


def test_green_rejects_non_finite_input():
    """A NaN source or an infinite absorption used to relax to an all-NaN field."""
    spec = LatticeSpec((9,), boundary=Boundary.ABSORBING)
    src = spec.zeros()
    src[4] = 1.0
    bad_src = src.copy()
    bad_src[2] = np.nan
    bad_absorb = spec.zeros()
    bad_absorb[3] = np.inf
    with pytest.raises(DomainError):
        relax_to_green(FieldGrid(spec, bad_src), FieldGrid(spec), 0.5, 10)
    with pytest.raises(DomainError):
        relax_to_green(FieldGrid(spec, src), FieldGrid(spec, bad_absorb), 0.5, 10)


def test_green_rejects_absorption_where_the_sweep_grows():
    """Outside 0 <= absorption <= 2*stay_prob the sweep overflowed; at the
    range's ends it still relaxes to a finite field."""
    spec = LatticeSpec((9, 9), boundary=Boundary.ABSORBING)
    src = spec.zeros()
    src[4, 4] = 1.0
    for a in (-0.5, 1.5, 3.0):
        with pytest.raises(DomainError, match="absorption"):
            relax_to_green(FieldGrid(spec, src), FieldGrid(spec, np.full(spec.dims, a)),
                           0.5, 2000)
    for a in (0.0, 1.0):
        res = relax_to_green(FieldGrid(spec, src), FieldGrid(spec, np.full(spec.dims, a)),
                             0.5, 2000, tol=1e-9)
        assert res.converged and np.isfinite(res.field.values).all()
