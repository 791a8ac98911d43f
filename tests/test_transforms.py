import math

import numpy as np
import pytest
from scipy.fft import dct

from chemopattern import (
    DomainGeometry,
    GridField,
    SpectralField,
    helmholtz_inverse,
    transform_inverse,
)
from chemopattern.core import rho_table
from chemopattern.transforms import (
    DENSE_MAX,
    _cosine_matrices,
    coeffs_to_grid,
    grid_to_coeffs,
    rhs_coeffs_to_grid,
    rhs_grid_to_coeffs,
)

GEOM = DomainGeometry(2.0 * math.sqrt(2.0) * math.pi / math.sqrt(3.0),
                      2.0 * math.sqrt(2.0) * math.pi)


def mode_samples(k1, k2, g, n1, n2):
    # the midpoint grid x_i = (i + 1/2) * ell / n
    x = (np.arange(n1) + 0.5) * g.ell1 / n1
    y = (np.arange(n2) + 0.5) * g.ell2 / n2
    return np.outer(np.cos(k1 * np.pi * x / g.ell1), np.cos(k2 * np.pi * y / g.ell2))


class TestRoundTrip:
    def test_constant_field(self):
        v = np.ones((32, 32))
        c = grid_to_coeffs(v)
        assert c[0, 0] == pytest.approx(1.0, abs=1e-14)
        c[0, 0] = 0.0
        assert np.max(np.abs(c)) <= 1e-14

    def test_single_mode(self):
        v = mode_samples(1, 1, GEOM, 32, 32)
        c = grid_to_coeffs(v)
        assert c[1, 1] == pytest.approx(1.0, abs=1e-13)
        c[1, 1] = 0.0
        assert np.max(np.abs(c)) <= 1e-12

    def test_random_round_trip_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            c = rng.normal(size=(32, 32))
            back = grid_to_coeffs(coeffs_to_grid(c))
            assert np.max(np.abs(back - c)) <= 1e-12

    def test_field_level_transforms(self):
        rng = np.random.default_rng(0)
        u = SpectralField(rng.normal(size=(32, 32)), GEOM)
        v = transform_inverse(u)
        assert isinstance(v, GridField)
        back = grid_to_coeffs(v.values)
        assert np.max(np.abs(back - u.coeffs)) <= 1e-12


class TestDerivatives:
    def test_padded_evaluation_consistent(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(16, 16))
        fine = coeffs_to_grid(c, (32, 32))
        back = grid_to_coeffs(fine)[:16, :16]
        assert np.max(np.abs(back - c)) <= 1e-12

    def test_rejects_shrinking_grid(self):
        with pytest.raises(ValueError, match="smaller"):
            coeffs_to_grid(np.zeros((16, 16)), (8, 16))


def unpruned_synthesis(coeffs, shape):
    n1, n2 = coeffs.shape
    p = np.zeros(shape)
    p[:n1, :n2] = coeffs
    p[1:, :] *= 0.5
    p[:, 1:] *= 0.5
    return dct(dct(p, type=3, axis=0), type=3, axis=1)


def unpruned_analysis(values, shape):
    m1, m2 = values.shape
    c = dct(dct(values, type=2, axis=0), type=2, axis=1)
    c /= (2.0 * m1) * (2.0 * m2)
    c[1:, :] *= 2.0
    c[:, 1:] *= 2.0
    return c[:shape[0], :shape[1]]


class TestPrunedTransforms:
    # skipping the passes over zero-padded or discarded rows and columns must
    # not change a single bit against the plain two-pass transforms
    @pytest.mark.parametrize("base, grid", [((32, 32), (32, 32)), ((32, 32), (64, 64)),
                                            ((64, 64), (128, 128)), ((32, 64), (64, 128))])
    def test_bitwise_equal_to_unpruned(self, base, grid):
        rng = np.random.default_rng(base[0] + grid[1])
        c = rng.normal(size=base)
        assert np.array_equal(coeffs_to_grid(c, grid), unpruned_synthesis(c, grid))
        values = rng.normal(size=grid)
        assert np.array_equal(grid_to_coeffs(values, base), unpruned_analysis(values, base))

    def test_rejects_growing_truncation(self):
        with pytest.raises(ValueError, match="larger"):
            grid_to_coeffs(np.zeros((16, 16)), (32, 16))


class TestBatchedTransforms:
    # a leading batch axis, a reused workspace and in-place analysis must not
    # change a single bit against one plain call per field
    @pytest.mark.parametrize("base, grid", [((32, 32), (64, 64)), ((64, 64), (128, 128)),
                                            ((32, 64), (64, 128))])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_bitwise_equal_to_per_field(self, base, grid, batch):
        rng = np.random.default_rng(100 * batch + grid[1])
        c = rng.normal(size=(batch, *base))
        expected = np.stack([coeffs_to_grid(ci, grid) for ci in c])
        assert np.array_equal(coeffs_to_grid(c, grid), expected)
        # a stale workspace: every entry must be overwritten
        assert np.array_equal(coeffs_to_grid(c, grid, out=np.full((batch, *grid), np.nan)), expected)

        values = rng.normal(size=(batch, *grid))
        kept = values.copy()
        expected = np.stack([grid_to_coeffs(v, base) for v in values])
        assert np.array_equal(grid_to_coeffs(values, base), expected)
        assert np.array_equal(values, kept)
        assert np.array_equal(grid_to_coeffs(values, base, overwrite=True), expected)


def assert_rel_close(got, expected, rtol):
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


class TestDenseRhsTransforms:
    # the right-hand sides' matrix path agrees with the dct functions to
    # rounding below the cutoff and is exactly them above it
    @pytest.mark.parametrize("base, grid", [((32, 32), (64, 64)), ((64, 64), (128, 128)),
                                            ((32, 64), (64, 128))])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_agrees_with_dct_below_the_cutoff(self, base, grid, batch):
        assert max(grid) <= DENSE_MAX
        rng = np.random.default_rng(200 * batch + grid[1])
        c = rng.normal(size=(batch, *base))
        out = np.full((batch, *grid), np.nan)
        assert rhs_coeffs_to_grid(c, grid, out) is out
        assert_rel_close(out, coeffs_to_grid(c, grid), 1e-13)
        values = rng.normal(size=(batch, *grid))
        expected = grid_to_coeffs(values, base)
        assert_rel_close(rhs_grid_to_coeffs(values, base), expected, 1e-13)

    def test_is_the_dct_path_above_the_cutoff(self):
        base, grid = (128, 128), (256, 256)
        assert max(grid) > DENSE_MAX
        rng = np.random.default_rng(7)
        c = rng.normal(size=(3, *base))
        got = rhs_coeffs_to_grid(c, grid, np.full((3, *grid), np.nan))
        assert np.array_equal(got, coeffs_to_grid(c, grid))
        values = rng.normal(size=(2, *grid))
        expected = grid_to_coeffs(values, base)
        assert np.array_equal(rhs_grid_to_coeffs(values, base), expected)

    def test_cached_matrices_are_read_only(self):
        for matrix in _cosine_matrices(32, 64):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0


class TestHelmholtz:
    def test_mean_mode_fixed(self):
        c = np.zeros((8, 8))
        c[0, 0] = 1.0
        v = helmholtz_inverse(SpectralField(c, GEOM), 1.0)
        assert v.coeffs[0, 0] == 1.0

    def test_critical_mode_gain(self):
        c = np.zeros((8, 8))
        c[0, 2] = 1.0
        v = helmholtz_inverse(SpectralField(c, GEOM), 1.0)
        assert v.coeffs[0, 2] == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_zero(self):
        v = helmholtz_inverse(SpectralField(np.zeros((8, 8)), GEOM), 3.0)
        assert np.all(v.coeffs == 0.0)

    def test_linear_and_inverse_of_operator(self):
        rng = np.random.default_rng(1)
        a = SpectralField(rng.normal(size=(16, 16)), GEOM)
        b = SpectralField(rng.normal(size=(16, 16)), GEOM)
        coupling = 18.0
        va = helmholtz_inverse(a, coupling)
        vb = helmholtz_inverse(b, coupling)
        vab = helmholtz_inverse(SpectralField(2.0 * a.coeffs - 3.0 * b.coeffs, GEOM), coupling)
        assert np.allclose(vab.coeffs, 2.0 * va.coeffs - 3.0 * vb.coeffs, atol=1e-13)
        # (-Lap + 1) applied spectrally recovers coupling * u
        recovered = rho_table(16, 16, GEOM) * va.coeffs + va.coeffs
        assert np.max(np.abs(recovered - coupling * a.coeffs)) <= 1e-12 * coupling * np.max(np.abs(a.coeffs))


class TestFieldProperties:
    def test_l2_norm_matches_grid_quadrature(self):
        rng = np.random.default_rng(5)
        u = SpectralField(rng.normal(size=(32, 32)) * 0.1, GEOM)
        grid = transform_inverse(u).values
        quad = math.sqrt(np.mean(grid**2))
        assert u.l2_norm() == pytest.approx(quad, rel=1e-12)

    def test_neumann_boundary_derivative_shrinks_with_resolution(self):
        # one-sided normal differences at the wall decay ~ h for a fixed
        # smooth field, consistent with the basis satisfying the condition
        # identically
        rng = np.random.default_rng(6)
        c = np.zeros((16, 16))
        c[:5, :5] = rng.normal(size=(5, 5))
        slopes = []
        for n in (64, 128):
            vals = coeffs_to_grid(c, (n, n))
            h = GEOM.ell1 / n
            slopes.append(np.max(np.abs(vals[1, :] - vals[0, :])) / h)
        assert slopes[1] <= 0.6 * slopes[0]

    def test_rejects_non_finite(self):
        c = np.zeros((8, 8))
        c[1, 1] = np.inf
        with pytest.raises(ValueError):
            SpectralField(c, GEOM)
