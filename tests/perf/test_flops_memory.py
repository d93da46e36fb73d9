"""Hand-counted checks of the analytic work models.

The expected numbers below are computed *by hand* from the model's
stated structure (Section 5.1 / Figure 7 conventions: FMA = 2 Flop,
dense 1D kernels use ``n_out * n_in`` multiplications per line, d = 3),
independently of the implementation, so a silent change to the counting
breaks these tests.
"""

import pytest

from repro.perf import (
    arithmetic_intensity,
    inverse_mass_flops,
    laplace_flops,
    laplace_transfer,
    mass_flops,
)
from repro.perf.flops import chebyshev_iteration_flops, flops_apply_1d


def dense_sweep(n, n_lines):
    """Dense square tensor sweep: 2 Flop per multiplication, n^2
    multiplications per line."""
    return 2 * n * n * n_lines


class TestPrimitives:
    def test_flops_apply_1d(self):
        assert flops_apply_1d(4, 4, 16) == 2 * 16 * 16
        assert flops_apply_1d(3, 5, 9) == 2 * 15 * 9


class TestLaplaceFlopsHandCounted:
    """Cell part = 6 forward (3 interpolation + 3 collocation-derivative)
    + 6 backward dense sweeps over n^2 lines plus 18 Flop per quadrature
    point:  24*n^4 + 18*n^3."""

    # degree -> hand-computed cell Flops
    # k=2 (n=3): cell = 24*81   + 18*27  = 1944  + 486  = 2430
    # k=3 (n=4): cell = 24*256  + 18*64  = 6144  + 1152 = 7296
    # k=4 (n=5): cell = 24*625  + 18*125 = 15000 + 2250 = 17250
    # k=5 (n=6): cell = 24*1296 + 18*216 = 31104 + 3888 = 34992
    CELL = {2: 2430, 3: 7296, 4: 17250, 5: 34992}

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_cell_flops(self, degree):
        assert laplace_flops(degree).cell == self.CELL[degree]

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_cell_flops_formula(self, degree):
        n = degree + 1
        expected = 12 * dense_sweep(n, n * n) + 18 * n**3
        assert laplace_flops(degree).cell == expected

    def test_over_integrated_cell_flops(self):
        # k=2 on nq=4 points (n=3): interpolation 2*(4*3)*(9+12+16) = 888
        # per direction of travel, collocation 3*dense_sweep(4, 16) = 1536;
        # both ways: 2*(888 + 1536) = 4848, + 18*64 = 1152 -> 6000
        assert laplace_flops(2, 4).cell == 6000

    def test_face_flops_degree2(self):
        # per side: normal-derivative dot (2*n*n^2 = 54) + 2 tangential
        # sweeps (2*dense_sweep(3, 9) = 324) + 4 fields x 2 quadrature
        # sweeps over n resp. nq lines (8*dense_sweep(3, 3) = 432) -> 810;
        # inner face: 2 sides x (eval + transpose) + 60 Flop/q-point
        # = 4*810 + 60*9 = 3780; boundary: 2*810 + 40*9 = 1980.
        f = laplace_flops(2)
        assert f.inner_face == 3780
        assert f.boundary_face == 1980

    def test_matvec_total_composition(self):
        f = laplace_flops(3)
        total = f.matvec_total(n_cells=10, n_inner_faces=7, n_boundary_faces=4)
        assert total == 10 * f.cell + 7 * f.inner_face + 4 * f.boundary_face


class TestLaplaceTransferHandCounted:
    """Ideal transfer per cell: 3 vector passes (3*n^3*8 B) + cell
    metric (6*nq^3*8 B) + 3 face sheets of 7 doubles per q-point
    (3*7*nq^2*8 B) + 8 ints of metadata (32 B)."""

    # k=2 (n=3):  648 + 1296  + 1512 + 32 = 3488
    # k=3 (n=4): 1536 + 3072  + 2688 + 32 = 7328
    # k=4 (n=5): 3000 + 6000  + 4200 + 32 = 13232
    # k=5 (n=6): 5184 + 10368 + 6048 + 32 = 21632
    BYTES = {2: 3488, 3: 7328, 4: 13232, 5: 21632}

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_bytes_per_cell(self, degree):
        assert laplace_transfer(degree).bytes_per_cell == self.BYTES[degree]

    def test_bytes_per_dof_decreases_then_vector_dominates(self):
        # per-DoF transfer shrinks with degree (metric amortizes)
        b = [laplace_transfer(k).bytes_per_dof() for k in range(1, 7)]
        assert b[0] > b[-1]

    def test_total_bytes_scales_with_cells(self):
        t = laplace_transfer(3)
        assert t.total_bytes(100) == 100 * t.bytes_per_cell


class TestArithmeticIntensity:
    """Figure 7 / Table 1: the DG Laplacian sits left of the Skylake
    ridge.  The paper's even-odd counts give AI ~ 1-5 Flop/B; the dense
    sweeps the NumPy kernels run cost more Flops, so the model here spans
    AI ~ 2.9-7.9 across k = 1..6."""

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_intensity_in_paper_band(self, degree):
        f = laplace_flops(degree)
        t = laplace_transfer(degree)
        # ~3 interior faces per cell on a structured mesh
        ai = arithmetic_intensity(f.cell + 3 * f.inner_face, t.bytes_per_cell)
        assert 2.5 <= ai <= 9.5

    def test_spot_values(self):
        # k=2: (2430 + 3*3780)/3488 = 13770/3488 = 3.948
        f2, t2 = laplace_flops(2), laplace_transfer(2)
        ai2 = arithmetic_intensity(f2.cell + 3 * f2.inner_face, t2.bytes_per_cell)
        assert ai2 == pytest.approx(3.948, rel=0.01)
        # k=4: (17250 + 3*20500)/13232 = 78750/13232 = 5.951
        f4, t4 = laplace_flops(4), laplace_transfer(4)
        ai4 = arithmetic_intensity(f4.cell + 3 * f4.inner_face, t4.bytes_per_cell)
        assert ai4 == pytest.approx(5.951, rel=0.01)

    def test_parity_oscillation(self):
        """Dense counts have no parity oscillation (that was an artifact
        of the even-odd ceil(n/2) fold): AI grows strictly with k."""
        ais = []
        for k in range(1, 7):
            f, t = laplace_flops(k), laplace_transfer(k)
            ais.append(arithmetic_intensity(f.cell + 3 * f.inner_face,
                                            t.bytes_per_cell))
        assert all(b > a for a, b in zip(ais, ais[1:]))


class TestMassFlops:
    def test_mass_hand_counted_degree2(self):
        # n = nq = 3: fwd = 3 dense sweeps over 9 lines
        # = 3*dense_sweep(3, 9) = 486, bwd symmetric = 486, + 27 -> 999
        assert mass_flops(2) == 999

    def test_mass_components_scale_linearly(self):
        assert mass_flops(2, n_components=3) == 3 * mass_flops(2)

    def test_inverse_mass_hand_counted(self):
        # k=2 (n=3): 6 dense square sweeps = 6*2*9*9 = 972, + 27 divisions
        assert inverse_mass_flops(2) == 999
        # k=3 (n=4): 6*2*16*16 = 3072, + 64 -> 3136
        assert inverse_mass_flops(3) == 3136

    def test_chebyshev_per_iteration(self):
        assert chebyshev_iteration_flops(3, 1000) == 6000
