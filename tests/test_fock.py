"""Flow matrix elements: F/G systems, eta flows, scans and witnesses."""

import itertools
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import uhfflow.dense as dense
import uhfflow.fock as fock
import uhfflow.lindblad as lb
from uhfflow.algebra import AlgebraParams, LocalOperator, WeylLabel, gns_inner, random_local
from uhfflow.errors import FitError, SizeGuardError, WindowError
from uhfflow.sparse import CSR

from conftest import to_scipy


@pytest.fixture
def maxmix():
    return dense.StateSpec(np.eye(2) / 2)


@pytest.fixture
def zf():
    return fock.TestFunction.zero()


@pytest.fixture
def driven_pair():
    f = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.9, 0.4, 0.7, 0.2],
                                         ((0,), 2): [0.3, 0.1, 0.5, 0.6]})
    g = fock.TestFunction.build(1.0, 4, {((0,), 1): [0.2, 0.8, 0.5, 0.3],
                                         ((0,), 0): [0.6, 0.2, 0.9, 0.1]})
    return f, g


@pytest.fixture
def eta_sys(p2, maxmix):
    L = lb.Lindbladian.partial_state(p2, maxmix)
    return fock.build_generator_system(L, [(0,)])


GRID = np.linspace(0.0, 2.0, 9)


def _homomorphism(sys_, pairs, u, f, v, g, grid):
    """One F and one G solve of (u, f, v, g), read for every pair."""
    ftraj = fock.flow_element(sys_, u, f, v, g, grid)
    gtraj = fock.pair_element(sys_, u, f, v, g, grid)
    return fock.homomorphism_defect(ftraj, gtraj, pairs)


class TestTestFunctions:
    @pytest.mark.parametrize("t_max, value", [(math.nan, 1.0), (math.inf, 1.0),
                                              (1.0, math.nan), (1.0, complex(0, math.inf))])
    def test_build_rejects_non_finite_numbers(self, t_max, value):
        with pytest.raises(ValueError):
            fock.TestFunction.build(t_max, 2, {((0,), 0): [0.5, value]})

    def test_build_names_a_mode_as_a_config_writes_it(self):
        with pytest.raises(ValueError, match=r"^mode '1,-2/3': expected 2 cell values, got 1$"):
            fock.TestFunction.build(1.0, 2, {((1, -2), 3): [0.5]}, d=2)
        with pytest.raises(ValueError, match=r"^mode '0/0': a cell value is not finite$"):
            fock.TestFunction.build(1.0, 1, {((0,), 0): [math.nan]})

    def test_gamma(self):
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [1, 1, 1, 1]})
        assert f.gamma(1.0) == pytest.approx(2.0)  # 1 + ||f||^2 = 2 on [0,1]
        assert f.gamma(0.5) == pytest.approx(1.0)
        assert f.gamma(3.0) == pytest.approx(4.0)  # zero beyond t_max

    def test_inner_and_exp_inner(self, zf):
        assert fock.exp_inner(zf, zf) == 1.0
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [1, 1, 1, 1]})
        assert abs(fock.exp_inner(f, f) - math.e) < 1e-12
        g = fock.TestFunction.build(1.0, 4, {((1,), 0): [1, 1, 1, 1]})
        assert fock.exp_inner(f, g) == 1.0  # disjoint modes

    def test_grid_mismatch(self):
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [1, 1, 1, 1]})
        g = fock.TestFunction.build(2.0, 4, {((0,), 0): [1, 1, 1, 1]})
        with pytest.raises(ValueError):
            f.inner(g)

    def test_shift(self):
        f = fock.TestFunction.build(1.0, 2, {((2,), 0): [1.0, 0.5]})
        shifted = f.shifted((1,))
        assert shifted.mode_keys() == (((1,), 0),)
        assert shifted.mode_values(((1,), 0)) == (1.0 + 0j, 0.5 + 0j)

    def test_exponential_vector_norm(self, p2, zf):
        # ||u e(f)|| = ||u|| e^{||f||^2 / 2}; _scale multiplies two of them.
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [1, 1, 1, 1]})
        one = LocalOperator.identity(p2)
        assert fock._scale(one, f, 2.0 * one, zf) == pytest.approx(2.0 * math.exp(0.5))
        assert fock._scale(one, f, one, f) == pytest.approx(math.e)


class TestGeneratorSystem:
    def test_partial_site_closes(self, eta_sys, leak_free):
        assert eta_sys.dim == 4
        assert leak_free(eta_sys)
        assert [m for (_k, m) in eta_sys.noise] == [0, 1, 2, 3]

    def test_translation_noise_indices(self, p2, pauli, leak_free):
        L = lb.Lindbladian.single_kraus(pauli[0], unital=True)
        sys_ = fock.build_generator_system(L, [(-1,), (0,), (1,)])
        assert [k for (k, _m) in sys_.noise] == [(-1,), (0,), (1,)]
        assert leak_free(sys_)

    def test_lhat_annihilates_identity(self, eta_sys):
        from uhfflow.algebra import WeylLabel

        col = eta_sys.index[WeylLabel.identity()]
        assert np.abs(to_scipy(eta_sys.lhat_t).toarray()[col]).max() < 1e-14

    def test_dimension_guard(self, p2, maxmix):
        # 8 sites: 4^8 strings, above dense.MAX_WINDOW_DIM.
        L = lb.Lindbladian.partial_state(p2, maxmix)
        with pytest.raises(SizeGuardError):
            fock.build_generator_system(L, [(i,) for i in range(8)])

    def test_two_site_word_leaks(self, p2, pauli, leak_free):
        r2 = pauli[0] * pauli[0].translate((1,))
        L = lb.Lindbladian.single_kraus(r2, unital=True)
        sys_ = fock.build_generator_system(L, [(0,), (1,)])
        assert not leak_free(sys_)


class TestFlowElement:
    def test_initial_condition(self, eta_sys, p2, rng, driven_pair):
        f, g = driven_pair
        u = random_local(p2, rng, [(0,)], include_identity=True)
        v = random_local(p2, rng, [(0,)])
        traj = fock.flow_element(eta_sys, u, f, v, g, [0.0])
        for lab in eta_sys.basis:
            expected = gns_inner(u, LocalOperator.weyl(p2, lab) * v) * fock.exp_inner(f, g)
            assert abs(traj.of_label(lab)[0] - expected) < 1e-13

    @pytest.mark.parametrize("u_sites, v_sites", [
        ([(0,), (1,)], [(0,), (1,)]),  # both inside the window
        ([(0,), (2,)], [(1,), (2,)]),  # both reaching past it
        ([(2,), (3,)], [(-1,), (2,)]),  # both outside
    ])
    @pytest.mark.parametrize("N", [2, 3])
    def test_initial_vector_reads_one_product(self, N, rng, driven_pair, u_sites, v_sites):
        # F0[b] = <u, U_b v> exp<f, g> is read from the terms of v u*; the
        # labels of v u* outside the window drop out.  At N = 3 the adjoint
        # phases are not real.
        params = AlgebraParams(N, 1)
        f, g = driven_pair
        r = LocalOperator.site_word(params, (0,), 1, 0)
        sys_ = fock.build_generator_system(lb.Lindbladian.single_kraus(r), [(0,), (1,)])
        u = random_local(params, rng, u_sites, n_terms=6, include_identity=True)
        v = random_local(params, rng, v_sites, n_terms=6, include_identity=True)
        got = fock._initial_vector(sys_, u, v, f, g)
        expected = np.array([gns_inner(u, LocalOperator.weyl(params, lab) * v)
                             for lab in sys_.basis]) * fock.exp_inner(f, g)
        assert np.count_nonzero(expected) >= 1
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_vacuum_closed_form(self, eta_sys, p2, pauli, zf):
        sx, _, _, one = pauli
        traj = fock.flow_element(eta_sys, sx, zf, one, zf, GRID, tol=1e-13)
        assert np.abs(traj.of_operator(sx) - np.exp(-GRID)).max() < 1e-12

    def test_identity_constant(self, eta_sys, p2, pauli, driven_pair):
        f, g = driven_pair
        sx, sz, _, one = pauli
        traj = fock.flow_element(eta_sys, sx, f, sz, g, GRID)
        vals = traj.of_operator(one)
        assert np.abs(vals - vals[0]).max() < 1e-10

    def test_support_outside_window(self, eta_sys, p2):
        one = LocalOperator.identity(p2)
        zf = fock.TestFunction.zero()
        traj = fock.flow_element(eta_sys, one, zf, one, zf, [0.0])
        with pytest.raises(WindowError):
            traj.of_operator(LocalOperator.site_word(p2, (3,), 1, 0))

    def test_error_budget_scales_with_l1(self, p2, pauli, leak_free):
        # The estimate bounds one basis string; an observable's budget is
        # l1(x) times it (l1(x) l1(y) times it for a pair).
        sx, sz, _, one = pauli
        L = lb.Lindbladian.single_kraus(sx * sx.translate((1,)), unital=True)
        sys_ = fock.build_generator_system(L, [(0,), (1,)])
        assert not leak_free(sys_)
        # The translate at site 1 reaches site 2, outside the window.
        f = fock.TestFunction.build(0.5, 2, {((1,), 0): [0.8, 0.3]})
        grid = np.linspace(0.0, 0.5, 3)
        ftraj = fock.flow_element(sys_, one, f, sx, f, grid)
        assert ftraj.error_of(sz)[-1] > ftraj.error_of(sz)[0]  # leak accrues
        np.testing.assert_allclose(ftraj.error_of(3.0 * sz), 3.0 * ftraj.error_of(sz),
                                   rtol=1e-15)
        gtraj = fock.pair_element(sys_, one, f, sx, f, grid)
        np.testing.assert_allclose(gtraj.error_of(3.0 * sz, 2.0 * sx),
                                   6.0 * gtraj.error_of(sz, sx), rtol=1e-15)

    def test_vacuum_reduction_translation(self, p2, pauli, zf, rng, hilbert_operators):
        sx, sz, _, one = pauli
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(0,)])
        u = random_local(p2, rng, [(0,)], include_identity=True)
        v = random_local(p2, rng, [(0,)])
        traj = fock.flow_element(sys_, u, zf, v, zf, GRID)
        oracle = hilbert_operators(L, dense.window(p2, [(0,)]), "interior", GRID, sz)
        expected = np.array([gns_inner(u, val * v) for val in oracle])
        assert np.abs(traj.of_operator(sz) - expected).max() < 1e-8

    def test_adjoint_symmetry(self, eta_sys, p2, rng, driven_pair):
        f, g = driven_pair
        u = random_local(p2, rng, [(0,)])
        v = random_local(p2, rng, [(0,)])
        x = random_local(p2, rng, [(0,)], include_identity=True)
        fwd = fock.flow_element(eta_sys, u, f, v, g, GRID)
        bwd = fock.flow_element(eta_sys, v, g, u, f, GRID)
        assert np.abs(bwd.of_operator(x.adjoint())
                      - np.conj(fwd.of_operator(x))).max() < 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "_breakpoints adds cell edges only for f's modes, so a drive carried by g alone "
        "is read at each piece's midpoint; mending it moves flow_n2_w4's adjoint_symmetry "
        "values recorded in bench/reference/flow_pair.json"))
    def test_adjoint_symmetry_g_only_drive(self, p2, pauli, zf):
        sx, sz, _, _ = pauli
        sys_ = fock.build_generator_system(lb.Lindbladian.single_kraus(sx), [(-1,), (0,), (1,)])
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.9, -0.4, 0.7, -0.2]})
        x = sz + 0.5 * sx
        bwd = fock.flow_element(sys_, sx, zf, sz, f, [0.0, 1.0])  # g-only drive
        fwd = fock.flow_element(sys_, sz, f, sx, zf, [0.0, 1.0])
        assert abs(bwd.of_operator(x.adjoint())[-1] - np.conj(fwd.of_operator(x)[-1])) < 1e-9


class TestPicard:
    def test_error_bound_values(self, p2, pauli, zf):
        sz = pauli[1]
        L = lb.Lindbladian.single_kraus(pauli[0], unital=True)
        # f = 0, t0 = 1: c_f = 2e, so the n = 1 bound is 3 * sqrt(2e) * 2 * (2 theta c_x)
        got = fock.picard_error_bound(sz, zf, 1.0, 1, L)
        expected = 3.0 * math.sqrt(2.0 * math.e) * 2.0 * 4.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bound_eventually_decreasing(self, p2, pauli, zf):
        # Ratio bound(n+1)/bound(n) = base / sqrt(n+1): once n passes
        # base^2 the factorial wins; t0 chosen so that happens within 30.
        L = lb.Lindbladian.single_kraus(pauli[0], unital=True)

        def bound(n):
            return fock.picard_error_bound(pauli[1], zf, 0.02, n, L)

        def tail(n):
            return fock.picard_tail_bound(pauli[1], zf, 0.02, n, L)

        vals = [bound(n) for n in range(1, 31)]
        drops = [vals[i + 1] < vals[i] for i in range(len(vals) - 1)]
        assert all(drops[-5:])  # sqrt(n!) wins
        # The tail bound past the turnover is finite and small: just past
        # it the ratio q is still near 1, so the tail sits between its first
        # term and the geometric majorant (every later ratio is smaller) ...
        assert math.isfinite(tail(30))
        q = bound(31) / bound(30)
        assert q < 1.0
        assert bound(31) <= tail(30) <= bound(31) / (1.0 - q)
        # ... it starts at m = n + 1 ...
        assert tail(30) - tail(31) == pytest.approx(bound(31), rel=1e-9)
        # ... and it drops below the n-th term once q < 1/2, n + 1 > 4 base^2.
        base = vals[1] / vals[0] * math.sqrt(2.0)
        n = math.floor(4.0 * base * base)
        assert tail(n) < bound(n)

    def test_overflow_reports_inf(self, p2, pauli, zf):
        # At t0 = 1 the increment bound at n = 2000 is about e^1446 and the
        # tail past n = 1 about e^1565: both beyond a float, so inf, not a cap.
        L = lb.Lindbladian.single_kraus(pauli[0], unital=True)
        assert fock.picard_error_bound(pauli[1], zf, 1.0, 2000, L) == math.inf
        assert fock.picard_tail_bound(pauli[1], zf, 1.0, 1, L) == math.inf

    def test_identity_collapses(self, p2, pauli, zf):
        L = lb.Lindbladian.single_kraus(pauli[0], unital=True)
        assert fock.picard_error_bound(LocalOperator.identity(p2), zf, 1.0, 3, L) == 0.0

    def test_certified_agreement_with_ode(self, p2, pauli, zf):
        sx, sz, _, one = pauli
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(0,)])
        grid = np.linspace(0.0, 0.25, 5)
        depth = fock.smallest_certified_depth(sz, zf, 0.25, L, 1e-8)
        assert fock.picard_tail_bound(sz, zf, 0.25, depth, L) < 1e-8
        a = fock.flow_element(sys_, one, zf, sz, zf, grid)
        b = fock.picard_element(sys_, sz, one, zf, sz, zf, grid, depth=depth)
        assert np.abs(a.of_operator(sz) - b.values).max() < 1e-7

    def test_driven_picard(self, p2, pauli):
        sx, sz, _, one = pauli
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(0,)])
        f = fock.TestFunction.build(0.25, 2, {((0,), 0): [0.5, 0.25]})
        grid = np.linspace(0.0, 0.25, 5)
        a = fock.flow_element(sys_, one, f, sz, f, grid)
        b = fock.picard_element(sys_, sz, one, f, sz, f, grid)
        assert np.abs(a.of_operator(sz) - b.values).max() < 1e-7
        # The default depth is certified, so the estimate says something.
        assert (b.error_estimate < 1e-9).all()

    def test_cell_boundary_reads_each_cells_generator(self, p2, pauli, rng):
        # f and g change cell at t = 0.125, a node shared by two pieces
        # with different generators; each piece must integrate its own.
        sx, sz, _, _ = pauli
        L = lb.Lindbladian.single_kraus(sx + 0.5j * sz)
        sys_ = fock.build_generator_system(L, [(0,)])
        u = random_local(p2, rng, [(0,)], include_identity=True)
        v = random_local(p2, rng, [(0,)], include_identity=True)
        f = fock.TestFunction.build(0.25, 2, {((0,), 0): [0.5, -2.0j]})
        g = fock.TestFunction.build(0.25, 2, {((0,), 0): [1.5, 0.2]})
        grid = np.linspace(0.0, 0.25, 5)
        a = fock.flow_element(sys_, u, f, v, g, grid, tol=1e-14)
        b = fock.picard_element(sys_, sz, u, f, v, g, grid)
        assert (np.abs(a.of_operator(sz) - b.values) <= b.error_estimate).all()

    def test_a_drive_carried_by_f_is_priced(self, p2, pauli, zf):
        # f = 6 on one cell of [0, 0.5] and g = 0.  Priced by g alone, the
        # certificate read 1e-10 at t = 0.25, where Picard and the solve
        # differ by 1.3e-7.  Priced by f as well, no certified depth is in
        # reach, and the estimate at a given depth covers the difference.
        # The sweeps integrate exactly, so at depth 50 Picard meets the
        # solve to roundoff; at depth 15 it is still 6e-6 and 0.34 away.
        sx, sz, _, _ = pauli
        sys_ = fock.build_generator_system(lb.Lindbladian.single_kraus(sx + 0.5j * sz), [(0,)])
        rng = np.random.default_rng(1)
        u, v = random_local(p2, rng, [(0,)]), random_local(p2, rng, [(0,)])
        f = fock.TestFunction.build(0.5, 1, {((0,), 0): [6.0]})
        x, grid = sz + 0.5 * sx, [0.0, 0.25, 0.5]
        ode = fock.flow_element(sys_, u, f, v, zf, grid, tol=1e-14).of_operator(x)
        with pytest.raises(SizeGuardError, match="no certified depth"):
            fock.picard_element(sys_, x, u, f, v, zf, grid)
        pic = fock.picard_element(sys_, x, u, f, v, zf, grid, depth=15)
        assert np.abs(pic.values - ode)[1:].min() > 1e-8
        assert (np.abs(pic.values - ode) <= pic.error_estimate).all()

    @pytest.mark.parametrize("drive", [0.5, 1.0])
    def test_the_estimate_covers_the_solve_at_the_certified_depth(self, p2, pauli, zf, drive):
        # f on one cell of [0, 0.5] and g = 0, at the depth certified for
        # tol = 1e-10 at t = 0.5.  Integrated on 64 Simpson nodes per
        # piece, Picard missed the solve by 2.1e-10 at t = 0.25 against an
        # estimate of 1e-10 (f = 0.5), and by 6.8e-9 at t = 0.5 against
        # 3.7e-10 (f = 1): quadrature error, which the estimate leaves out.
        sx, sz, _, _ = pauli
        sys_ = fock.build_generator_system(lb.Lindbladian.single_kraus(sx + 0.5j * sz), [(0,)])
        rng = np.random.default_rng(1)
        u, v = random_local(p2, rng, [(0,)]), random_local(p2, rng, [(0,)])
        f = fock.TestFunction.build(0.5, 1, {((0,), 0): [drive]})
        x, grid = sz + 0.5 * sx, [0.0, 0.25, 0.5]
        ode = fock.flow_element(sys_, u, f, v, zf, grid, tol=1e-14).of_operator(x)
        pic = fock.picard_element(sys_, x, u, f, v, zf, grid)
        assert (np.abs(pic.values - ode) <= pic.error_estimate).all()

    def test_the_pricing_function_dominates_f_and_g(self):
        f = fock.TestFunction.build(1.0, 2, {((0,), 0): [3.0, 0.1j], ((1,), 0): [0.5, 0.0]})
        g = fock.TestFunction.build(1.0, 2, {((0,), 0): [-1.0, 2.0], ((2,), 0): [0.0, 4j]})
        h = fock._dominating(*fock._harmonize(f, g))
        assert h.mode_values(((0,), 0)) == (3.0, 2.0)
        assert h.mode_values(((1,), 0)) == (0.5, 0.0)
        assert h.mode_values(((2,), 0)) == (0.0, 4.0)
        for t in (0.3, 0.7, 1.0):
            assert h.gamma(t) >= max(f.gamma(t), g.gamma(t))
        assert h.sup_norm() >= max(f.sup_norm(), g.sup_norm())
        zero = fock._dominating(*fock._harmonize(None, None))
        assert zero.modes == () and zero.gamma(0.5) == 0.5

    def test_uncertified_family_raises(self, eta_sys, pauli, zf):
        # A partial-state generator is no single-operator family.
        sx, sz, _, one = pauli
        with pytest.raises(ValueError):
            fock.picard_element(eta_sys, sz, one, zf, sz, zf, [0.0, 0.1])


    def test_picard_estimate_per_grid_point(self, p2, pauli):
        sx, sz, _, one = pauli
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(0,)])
        f = fock.TestFunction.build(0.25, 2, {((0,), 0): [0.5, 0.25]})
        grid = np.linspace(0.0, 0.25, 5)
        tol = 1e-10
        b = fock.picard_element(sys_, sz, one, f, sz, f, grid, tol=tol)
        assert b.error_estimate[0] == tol
        assert (np.diff(b.error_estimate) >= 0).all()


# The drives of TestPieces' leaky system.  In "undriven" the modes (-1, 0)
# and (0, 0) drive no cell: they enter G's generator through the Ito sum
# alone, and their Ito moves are what close G's support (52 pairs, where
# the driven mode's moves reach 40).
PIECE_DRIVES = {
    "driven": ({((0,), 0): [0.9, 0.4, 0.7, 0.2], ((-1,), 0): [0.3, 0.1, 0.5, 0.6]},
               {((1,), 0): [0.2, 0.8, 0.5, 0.3], ((0,), 0): [0.6, 0.2, 0.9, 0.1]}),
    "undriven": ({((1,), 0): [0.9, 0.4, 0.7, 0.2]}, {((1,), 0): [0.6, 0.2, 0.9, 0.1]}),
}


class Solved(NamedTuple):
    """The F and G pieces of one drive, each on the support its solve recorded."""

    sys: fock.FlowGeneratorSystem
    f: fock.TestFunction
    g: fock.TestFunction
    F: list
    G: list
    F_support: np.ndarray
    G_support: np.ndarray

    def pieces(self, system):
        return {"F": (self.F, self.F_support), "G": (self.G, self.G_support)}[system]

    def forms(self, system):
        """Each piece's generator on the full basis, dense, assembled here.

        The cell's A = Lhat + sum_k [g_k delta_k^dag + conj(f_k) delta_k]
        for F, and its kron form A (x) 1 + 1 (x) A + sum_k delta_k^dag (x) delta_k
        for G.  Each maps the solved support into itself: its block from
        the support to the other strings (pairs) is zero.
        """
        _pieces, support = self.pieces(system)
        sys_, n = self.sys, self.sys.dim
        eye = scipy.sparse.identity(n, dtype=complex, format="csr")
        d, dd = ({key: to_scipy(maps[key]) for key in sys_.noise}
                 for maps in (sys_.delta_t, sys_.delta_dag_t))
        ito = sum(scipy.sparse.kron(dd[key], d[key]) for key in sys_.noise)
        forms = []
        for piece in self.F:
            cell = fock._cell_of(0.5 * (piece.a + piece.b), self.f)
            A = to_scipy(sys_.lhat_t)
            for key in sys_.noise:
                A = (A + np.conj(self.f.cell_value(key, cell)) * d[key]
                     + self.g.cell_value(key, cell) * dd[key])
            form = A
            if system == "G":
                form = scipy.sparse.kron(A, eye) + scipy.sparse.kron(eye, A) + ito
            forms.append(form.toarray())
            off = np.setdiff1d(np.arange(form.shape[0]), support)
            assert not forms[-1][np.ix_(off, support)].any()
        return forms


def solved_pieces(sys_, drive, grid, u, v, t_max=1.0, scale=1.0) -> Solved:
    """The pieces of the drive's f and g, its values times ``scale`` on 4 cells of [0, t_max]."""
    f, g = (fock.TestFunction.build(t_max, 4, {key: [scale * c for c in cells]
                                               for key, cells in modes.items()})
            for modes in PIECE_DRIVES[drive])
    ftraj = fock.flow_element(sys_, u, f, v, g, grid)
    gtraj = fock.pair_element(sys_, u, f, v, g, grid)
    d = fock._drive(sys_, grid, f, g)
    rects = fock._pair_support(sys_, d, fock._initial_vector(sys_, u, v, f, g))
    assert np.array_equal(fock._pair_index(rects, sys_.dim), gtraj.support)
    return Solved(sys_, f, g, fock._flow_pieces(d, ftraj.support),
                  fock._pair_pieces(sys_, d, rects), ftraj.support, gtraj.support)


class TestPieces:
    """On its solved support, an F piece is its cell's A and a G piece A (x) 1 + 1 (x) A + Ito."""

    @pytest.fixture
    def leaky(self, p2, pauli, leak_free):
        sx, sz = pauli[0], pauli[1]
        L = lb.Lindbladian.single_kraus(sx * sx.translate((1,)) + 0.5 * sz)
        sys_ = fock.build_generator_system(L, [(0,), (1,)])
        assert not leak_free(sys_)
        grid = np.linspace(0.0, 1.5, 4)  # runs past t_max = 1
        return {drive: solved_pieces(sys_, drive, grid, sx, sz) for drive in PIECE_DRIVES}

    @staticmethod
    def on(support, rng):
        return rng.normal(size=support.size) + 1j * rng.normal(size=support.size)

    @pytest.mark.parametrize("system", ["F", "G"])
    def test_supports_are_closed_and_proper(self, leaky, system):
        # No support is everything, and each form maps its support into
        # itself (``forms`` checks that); the undriven modes' Ito moves
        # widen G's support from the 40 pairs that the driven mode's reach.
        for s in leaky.values():
            _pieces, support = s.pieces(system)
            assert 0 < support.size < (s.sys.dim if system == "F" else s.sys.dim ** 2)
            assert len(s.forms(system)) == len(s.F)
        assert leaky["undriven"].G_support.size == 52

    def test_flow_matrix_is_the_cell_generator(self, leaky, rng):
        for s in leaky.values():
            S = s.F_support
            for piece, form in zip(s.F, s.forms("F")):
                v = self.on(S, rng)
                assert np.abs(piece.op.apply(v) - form[np.ix_(S, S)] @ v).max() < 1e-14

    def test_pair_matrix_is_the_kron_form(self, leaky, rng):
        # Applied to random complex vectors on the solved support, each G
        # piece acts as its kron form A (x) 1 + 1 (x) A + Ito restricted to
        # that support, which the form maps into itself.
        for s in leaky.values():
            assert [(p.a, p.b) for p in s.G] == [(p.a, p.b) for p in s.F]
            assert s.F[-1].a >= s.f.t_max  # one piece lies past the drive
            S = s.G_support
            for piece, form in zip(s.G, s.forms("G")):
                for _ in range(3):
                    v = self.on(S, rng)
                    assert np.abs(piece.op.apply(v) - form[np.ix_(S, S)] @ v).max() < 1e-14

    def test_pair_matvec_in_place_is_bitwise(self, leaky, rng):
        # The stepper scales each product in place.  A G matvec returns a
        # fresh array, so scaling it leaves the input and the next product
        # alone; a cell's product, taken again after the other cells', gives
        # the same bits; it is the restricted form's, less mu.
        for s in leaky.values():
            S = s.G_support
            vs = [self.on(S, rng) for _ in s.G]
            kept = [v.copy() for v in vs]
            first = []
            for piece, v in zip(s.G, vs):
                got = piece.op.shifted(v)
                first.append(got.copy())
                np.multiply(3.0, got, out=got)
            for piece, v, v0, want in reversed(list(zip(s.G, vs, kept, first))):
                assert np.array_equal(piece.op.shifted(v).view(float), want.view(float))
                assert np.array_equal(v, v0)
            for piece, form, v, want in zip(s.G, s.forms("G"), vs, first):
                shifted = form[np.ix_(S, S)] - piece.op.mu * np.eye(S.size)
                assert np.abs(want - shifted @ v).max() < 1e-14

    def test_pair_shift_and_norm_bound(self, leaky):
        # The G operator's shift, norms and log-norm are those of the kron
        # form restricted to the support: exact there, and no larger than
        # the full form's.
        for s in leaky.values():
            S = s.G_support
            for piece, form in zip(s.G, s.forms("G")):
                sub = form[np.ix_(S, S)]
                mu = np.trace(sub) / S.size
                assert abs(piece.op.mu - mu) < 1e-14
                shifted = np.abs(sub - mu * np.eye(S.size))
                assert piece.op.norm == pytest.approx(shifted.sum(axis=0).max(), rel=1e-13)
                assert piece.op.norm_inf == pytest.approx(shifted.sum(axis=1).max(), rel=1e-13)

                def log_norm(m):
                    diag = np.diag(m)
                    return (diag.real + np.abs(m).sum(axis=1) - np.abs(diag)).max()

                assert piece.op.growth == pytest.approx(log_norm(sub), rel=1e-13)
                assert piece.op.growth <= log_norm(form) + 1e-12

    @staticmethod
    def full_basis_steps(s, system, pieces, x0):
        """x0 stepped across the pieces by dense expm of the full-basis forms."""
        exact, ref = {0.0: x0}, x0
        for p, form in zip(pieces, s.forms(system)):
            ref = exact[p.b] = scipy.linalg.expm((p.b - p.a) * form) @ ref
        return exact

    @pytest.mark.parametrize("system", ["F", "G"])
    @pytest.mark.parametrize("tol", [1e-4, 1e-9])
    def test_propagate_meets_tol_on_a_growing_system(self, leaky, rng, system, tol):
        # Both systems have log-norm bounds > 0 on their supports, so each
        # piece's share of tol is shrunk for the growth after it; every state
        # is still within tol of dense expm stepping of the full-basis form
        # (roundoff aside) at every grid time, and exactly 0 off the support.
        s = leaky["driven"]
        pieces, support = s.pieces(system)
        assert min(p.op.growth for p in pieces) > 0
        grid = np.linspace(0.0, 1.5, 4)
        x0 = np.zeros(s.sys.dim if system == "F" else s.sys.dim ** 2, dtype=complex)
        x0[support] = self.on(support, rng)
        states, _est = fock._propagate(pieces, x0, support, grid, tol, 1.0)
        exact = self.full_basis_steps(s, system, pieces, x0)
        off = np.setdiff1d(np.arange(x0.size), support)
        for t, state in zip(grid, states):
            want = exact[float(t)]
            assert np.abs(state - want).max() <= tol + 1e-12 * np.abs(want).max()
            assert not state[off].any()

    @pytest.mark.parametrize("system", ["F", "G"])
    def test_long_grid_costs_no_more_than_the_roundoff_stop(self, leaky, rng, pauli, system,
                                                             roundoff_stop_matvecs):
        # Driven over all of [0, 10] at 12 times the "driven" values, the
        # log-norm bounds on the supports (F: 2.5 to 10.9, G: 11.7 to 29.7)
        # shrink the first piece's share of tol by e^-60 (F) and e^-189 (G),
        # far below roundoff; such sums stop at unit roundoff instead, so
        # the solve returns within tol of dense stepping (roundoff aside)
        # on no more matvecs than scipy's 2^-53 stop takes.  Without that
        # stop the solves here raise DivergenceError (a sum misses a share
        # of 1.6e-39 after 100 terms); F's pieces alone, stepped at 1e-9,
        # took 830 matvecs against the stop's 569.
        grid = np.linspace(0.0, 10.0, 9)
        s = solved_pieces(leaky["driven"].sys, "driven", grid, pauli[0], pauli[1],
                          t_max=10.0, scale=12.0)
        pieces, support = s.pieces(system)
        x0 = np.zeros(s.sys.dim if system == "F" else s.sys.dim ** 2, dtype=complex)
        x0[support] = self.on(support, rng)
        exact = self.full_basis_steps(s, system, pieces, x0)
        calls, limit = [], 0
        for p in pieces:
            limit += roundoff_stop_matvecs(p.op, exact[p.a][support], p.b - p.a)
        counted = [p._replace(op=p.op._replace(
            shifted=lambda v, op=p.op: calls.append(1) or op.shifted(v))) for p in pieces]
        states, _est = fock._propagate(counted, x0, support, grid, 1e-9, 1.0)
        assert len(calls) <= limit
        for t, state in zip(grid, states):
            want = exact[float(t)]
            assert np.abs(state - want).max() <= 1e-9 + 1e-12 * np.abs(want).max()

    def test_pair_leak_rate_adds_the_ito_rate(self, leaky):
        s = leaky["driven"]
        sys_ = s.sys
        ito_rate = 0.0
        for key in sys_.noise:
            ld, ldd = sys_.leak_max(("d", key)), sys_.leak_max(("dd", key))
            ito_rate += ldd * sys_.map_l1(key) + sys_.map_l1(key) * ld + ldd * ld
        assert ito_rate > 0.0
        for fp, gp in zip(s.F, s.G):
            assert fp.leak_rate > 0.0
            assert gp.leak_rate == pytest.approx(2.0 * fp.leak_rate + ito_rate, rel=1e-15)


class TestInvariantSubspace:
    """The F and G solves run on the components their initial vectors reach."""

    @staticmethod
    def bfs_components(n, rows, cols):
        adjacent = [set() for _ in range(n)]
        for r, c in zip(rows, cols):
            adjacent[r].add(c)
            adjacent[c].add(r)
        label, count = [-1] * n, 0
        for start in range(n):
            if label[start] >= 0:
                continue
            label[start], queue = count, [start]
            while queue:
                node = queue.pop()
                for nxt in adjacent[node]:
                    if label[nxt] < 0:
                        label[nxt] = count
                        queue.append(nxt)
            count += 1
        return np.array(label)

    @pytest.mark.parametrize("n,edges", [(1, 0), (7, 0), (7, 3), (40, 12), (40, 30), (200, 150),
                                         (200, 400)])
    def test_labels_match_bfs(self, rng, n, edges):
        # Few edges leave isolated nodes and many components; both
        # labellings number the components in the order of their least node.
        rows, cols = rng.integers(0, n, size=(2, edges))
        got = fock._components(n, rows, cols)
        assert np.array_equal(got, self.bfs_components(n, rows, cols))

    def test_a_connected_pattern_is_one_component(self, rng):
        n = 50
        order = rng.permutation(n)  # a path through every node, then noise
        rows = np.concatenate([order[:-1], rng.integers(0, n, 20)])
        cols = np.concatenate([order[1:], rng.integers(0, n, 20)])
        assert not fock._components(n, rows, cols).any()

    def test_a_connecting_generator_solves_on_every_string(self, p2, pauli, zf):
        # sx and sz at one site connect all four strings: one component,
        # and the F and G supports are the whole basis.
        sx, sz, _, one = pauli
        sys_ = fock.build_generator_system(lb.Lindbladian.single_kraus(sx + 0.5j * sz), [(0,)])
        f = fock.TestFunction.build(1.0, 2, {((0,), 0): [0.5, 0.2]})
        assert fock.flow_element(sys_, one, f, sx, zf, [0.0, 1.0]).support.size == 4
        assert fock.pair_element(sys_, one, f, sx, zf, [0.0, 1.0]).support.size == 16

    def test_a_zero_initial_vector_solves_on_no_string(self, p2, pauli):
        # u = 0 makes F_0 and G_0 zero: the supports are empty, and every
        # solve returns exact zeros of the full shapes.
        sx, sz, _, _ = pauli
        sys_ = fock.build_generator_system(lb.Lindbladian.single_kraus(sx + 0.5j * sz), [(0,)])
        f = fock.TestFunction.build(1.0, 2, {((0,), 0): [0.5, 0.2]})
        grid = [0.0, 0.5, 1.0]
        ftraj = fock.flow_element(sys_, 0 * sx, f, sx, None, grid)
        gtraj = fock.pair_element(sys_, 0 * sx, f, sx, None, grid)
        pic = fock.picard_element(sys_, sz, 0 * sx, f, sx, None, grid)
        assert ftraj.support.size == gtraj.support.size == 0
        assert ftraj.F.shape == (3, 4) and gtraj.G.shape == (3, 4, 4)
        assert not ftraj.F.any() and not gtraj.G.any() and not pic.values.any()

    @staticmethod
    def flow_pair_system(seed):
        """A window of 4 sites at N = 2 driven as the flow_n2_w4 benchmark job is.

        One Kraus member c1 sx sx' + c2 sz, l1 norm 1, and f of modulus
        0.5 on 8 cells of [0, 1] on modes (1, 0) and (2, 0); u = v = 1.
        """
        rng = np.random.default_rng(seed)
        p2 = AlgebraParams(2, 1)
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        sz = LocalOperator.site_word(p2, (0,), 0, 1)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.abs(c).sum()
        L = lb.Lindbladian.single_kraus(c[0] * sx * sx.translate((1,)) + c[1] * sz)
        sys_ = fock.build_generator_system(L, [(0,), (1,), (2,), (3,)])
        f = fock.TestFunction.build(1.0, 8, {
            ((k,), 0): list(0.5 * np.exp(2j * np.pi * rng.uniform(size=8))) for k in (1, 2)})
        return sys_, LocalOperator.identity(p2), f

    @staticmethod
    def connected_system(cells):
        """The same window with sx + 0.5i sz as Kraus member and every mode driven.

        Its pattern is one component, so F and G are solved on all 256
        strings and all 65 536 pairs.
        """
        rng = np.random.default_rng(5)
        p2 = AlgebraParams(2, 1)
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        sz = LocalOperator.site_word(p2, (0,), 0, 1)
        L = lb.Lindbladian.single_kraus(sx + 0.5j * sz)
        sys_ = fock.build_generator_system(L, [(0,), (1,), (2,), (3,)])
        f = fock.TestFunction.build(1.0, cells, {
            ((k,), 0): list(0.5 * np.exp(2j * np.pi * rng.uniform(size=cells))) for k in range(4)})
        return sys_, LocalOperator.identity(p2), f

    @pytest.mark.parametrize("shape,sizes", [(3, (32, 8192)), (4, (32, 8192)),
                                             ("connected", (256, 65536))])
    def test_restricted_solves_match_the_full_basis(self, shape, sizes):
        # On the flow_n2_w4 shape at two seeds, F is 0 off 32 of 256 strings
        # and G off 8192 of 65536 pairs; a connecting generator solves on
        # every string and pair.  The solves match F stepped by dense expm
        # over the whole basis, and G stepped by scipy's sparse
        # expm_multiply over all 65536 pairs, to tol.
        import scipy.sparse.linalg

        if shape == "connected":
            sys_, one, f = self.connected_system(8)
        else:
            sys_, one, f = self.flow_pair_system(shape)
        zero = fock.TestFunction.zero(1.0, 8)
        grid, tol = np.linspace(0.0, 1.0, 3), 1e-9
        ftraj = fock.flow_element(sys_, one, f, one, zero, grid, tol=tol)
        gtraj = fock.pair_element(sys_, one, f, one, zero, grid, tol=tol)
        assert (ftraj.support.size, gtraj.support.size) == sizes
        n = sys_.dim
        eye = scipy.sparse.identity(n, dtype=complex, format="csr")
        d, dd = ({key: to_scipy(maps[key]) for key in sys_.noise}
                 for maps in (sys_.delta_t, sys_.delta_dag_t))
        ito = sum(scipy.sparse.kron(dd[key], d[key], format="csr") for key in sys_.noise)
        F, G = ftraj.F[0].copy(), gtraj.G[0].reshape(-1).copy()
        for cell in range(8):
            A = to_scipy(sys_.lhat_t)
            for key in f.mode_keys():
                A = A + np.conj(f.cell_value(key, cell)) * d[key]
            F = scipy.linalg.expm(A.toarray() / 8) @ F
            K = scipy.sparse.kron(A, eye) + scipy.sparse.kron(eye, A) + ito
            G = scipy.sparse.linalg.expm_multiply(K.tocsr() / 8, G)
            if cell in (3, 7):
                t = (cell + 1) // 4
                assert np.abs(ftraj.F[t] - F).max() <= tol + 1e-12 * np.abs(F).max()
                assert np.abs(gtraj.G[t].reshape(-1) - G).max() <= tol + 1e-12 * np.abs(G).max()

    def test_a_cell_holds_no_pair_matrix(self):
        # On the connected window G's support is all 65 536 pairs.  Each
        # cell's G generator keeps only its F generator restricted to the
        # rows and to the columns of the support: two matrices of at most
        # 256 strings x the pattern's column count entries each (at most
        # 32 bytes an entry, with its index and row pointer).  An assembled
        # pair matrix would hold 2 x 65 536 x that count entries per cell.
        held = {}
        for cells in (1, 8):
            sys_, one, f = self.connected_system(cells)
            f, g = fock._harmonize(f, None)
            d = fock._drive(sys_, np.linspace(0.0, 1.0, 3), f, g)
            rects = fock._pair_support(sys_, d, fock._initial_vector(sys_, one, one, f, g))
            assert fock._pair_index(rects, sys_.dim).size == sys_.dim ** 2
            tracemalloc.start()
            pieces = fock._pair_pieces(sys_, d, rects)
            held[cells] = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            assert len({id(p.op) for p in pieces}) == cells
            del pieces
        column_count = np.bincount(d.cols).max()
        assert (held[8] - held[1]) / 7 <= 2 * sys_.dim * column_count * 32


def pair_problem(case):
    """(system, drive, F0) of a pair solve: the flow_n2_w4 shape at two seeds, with u = v = 1
    or random; the connected window; selftest's pair system; a 2-site system whose support
    has rectangles of three shapes, two of them interleaved in the order the closure finds
    them; and a 2-site system at N = 3, where a string's inverse differs from it."""
    grid = np.linspace(0.0, 1.0, 3)
    p2 = AlgebraParams(2, 1)
    sx = LocalOperator.site_word(p2, (0,), 1, 0)
    sz = LocalOperator.site_word(p2, (0,), 0, 1)
    one = LocalOperator.identity(p2)
    u = v = one
    g = None
    if case in ("flow_n2_w4-20240817", "flow_n2_w4-777"):
        sys_, one, f = TestInvariantSubspace.flow_pair_system(int(case.split("-")[1]))
    elif case == "flow_n2_w4-random_uv":
        sys_, one, f = TestInvariantSubspace.flow_pair_system(777)
        rng = np.random.default_rng(11)
        u = random_local(p2, rng, [(0,), (1,)], include_identity=True)
        v = random_local(p2, rng, [(1,), (2,)], include_identity=True)
    elif case == "connected":
        sys_, one, f = TestInvariantSubspace.connected_system(8)
    elif case == "selftest":
        sys_ = fock.build_generator_system(
            lb.Lindbladian.partial_state(p2, dense.StateSpec(np.eye(2) / 2)), [(0,)])
        u = sx + 0.3 * sz
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.9, 0.4, 0.7, 0.2]})
        g = fock.TestFunction.build(1.0, 4, {((0,), 1): [0.2, 0.8, 0.5, 0.3]})
        grid = np.linspace(0.0, 2.0, 9)
    elif case == "n3":
        p3 = AlgebraParams(3, 1)
        U = LocalOperator.site_word(p3, (0,), 1, 0)
        V = LocalOperator.site_word(p3, (0,), 0, 1)
        sys_ = fock.build_generator_system(
            lb.Lindbladian.single_kraus(U * (V * V).translate((1,)) + 0.5 * V), [(0,), (1,)])
        rng = np.random.default_rng(1)
        u = random_local(p3, rng, [(0,)], include_identity=True)
        v = random_local(p3, rng, [(1,)], include_identity=True)
        f = fock.TestFunction.build(1.0, 2, {((1,), 0): list(rng.normal(size=2))})
    else:  # "two_shapes"
        sys_ = fock.build_generator_system(
            lb.Lindbladian.single_kraus(sx * sx.translate((1,)) + 0.5 * sz), [(0,), (1,)])
        rng = np.random.default_rng(3)
        u = random_local(p2, rng, [(0,), (1,)], include_identity=True)
        v = random_local(p2, rng, [(1,)], include_identity=True)
        f = fock.TestFunction.build(1.0, 2, {((int(rng.choice(2)),), 0): list(rng.normal(size=2))})
    f, g = fock._harmonize(f, g)
    return sys_, fock._drive(sys_, grid, f, g), fock._initial_vector(sys_, u, v, f, g)


def shape_runs(rects):
    """The shapes (h, w) of consecutive runs of equal-shape rectangles, in order."""
    return [shape for shape, _run in itertools.groupby((rows.size, cols.size)
                                                       for rows, cols in rects)]


class TestPairInitialSupport:
    """G0 is evaluated on the pair support alone, which is found from F0 without it."""

    @staticmethod
    def full_initial_pair_vector(sys_, F0):
        """G0 over all n^2 pairs from the full n x n product tables, as it was built before."""
        kern, N = sys_.kernel, sys_.params.N
        phase = -(kern.b @ kern.a.T) % N
        rows = np.zeros((kern.dim, kern.dim), dtype=np.int64)
        for j in range(len(kern.sites)):
            a = (kern.a[:, j, None] + kern.a[None, :, j]) % N
            b = (kern.b[:, j, None] + kern.b[None, :, j]) % N
            rows += (a * N + b) * kern.place[j]
        root, val = kern.roots[phase].reshape(-1), F0[rows].reshape(-1)
        G0 = np.empty(root.size, dtype=complex)
        G0.real = root.real * val.real - root.imag * val.imag
        G0.imag = root.real * val.imag + root.imag * val.real
        return G0

    @staticmethod
    def full_table_support(sys_, drive, G0):
        """The rectangles from the component pairs of G0's nonzeros, as they were found before."""
        n, comp = drive.dim, drive.comp
        nc = int(comp.max()) + 1

        def moves(mat):
            m = to_scipy(mat).tocoo()
            return scipy.sparse.csr_matrix((np.ones(m.nnz), (comp[m.col], comp[m.row])),
                                           shape=(nc, nc))

        steps = [(moves(sys_.delta_dag_t[key]).T, moves(sys_.delta_t[key])) for key in sys_.noise]
        reach = np.zeros((nc, nc))
        a, b = np.divmod(np.flatnonzero(G0), n)
        reach[comp[a], comp[b]] = 1.0
        while True:
            new = reach.copy()
            for dd_t, d in steps:
                new += dd_t @ reach @ d
            new = (new > 0).astype(float)
            if np.array_equal(new, reach):
                break
            reach = new
        classes, which = np.unique(reach > 0, axis=0, return_inverse=True)
        which = which.reshape(-1)
        return [(np.flatnonzero(which[comp] == k), np.flatnonzero(cls[comp]))
                for k, cls in enumerate(classes) if cls.any()]

    @staticmethod
    def grouped(rects):
        """``rects`` with each shape's rectangles together, the shapes in order of first
        appearance."""
        first = {}
        for rows, cols in rects:
            first.setdefault((rows.size, cols.size), len(first))
        return sorted(rects, key=lambda rect: first[rect[0].size, rect[1].size])

    @pytest.mark.parametrize("case", ["flow_n2_w4-20240817", "flow_n2_w4-777",
                                      "flow_n2_w4-random_uv", "connected", "selftest",
                                      "two_shapes", "n3"])
    def test_support_and_values_match_the_full_table(self, case, monkeypatch):
        # The rectangles equal those of the sparse construction, grouped by
        # shape, though _pair_support builds no sparse matrix (no CSR, no
        # transpose): each noise mode's component moves are dense 0/1 arrays.
        sys_, d, F0 = pair_problem(case)
        full = self.full_initial_pair_vector(sys_, F0)
        found = self.full_table_support(sys_, d, full)
        if case in ("two_shapes", "n3"):
            assert len(shape_runs(found)) > len(set(shape_runs(found)))  # interleaved
        want = self.grouped(found)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a sparse matrix was built for the component moves")

        with monkeypatch.context() as patch:
            patch.setattr(CSR, "__new__", forbidden)
            patch.setattr(CSR, "from_coo", forbidden)
            patch.setattr(CSR, "transpose", forbidden)
            rects = fock._pair_support(sys_, d, F0)
        assert len(rects) == len(want) > 0
        for (rows, cols), (rows_w, cols_w) in zip(rects, want):
            assert np.array_equal(rows, rows_w) and np.array_equal(cols, cols_w)
        runs = shape_runs(rects)
        assert len(runs) == len(set(runs))  # each shape's rectangles are consecutive
        support = fock._pair_index(rects, sys_.dim)
        assert not np.delete(full, support).any()  # every nonzero of G0 is on the support
        assert np.array_equal(fock._initial_pair_vector(sys_, F0, support), full[support])

    def test_no_full_product_table_is_built(self, monkeypatch):
        # The flow_n2_w4 pair solve asks the kernel for products at its
        # 8 192 support pairs only, of 65 536.
        sys_, one, f = TestInvariantSubspace.flow_pair_system(20240817)
        sizes = []
        products = sys_.kernel.products
        monkeypatch.setattr(sys_.kernel, "products",
                            lambda i, k: sizes.append(np.size(i)) or products(i, k))
        traj = fock.pair_element(sys_, one, f, one, None, np.linspace(0.0, 1.0, 3), tol=1e-9)
        assert sizes == [traj.support.size] == [8192]


class CountingMatrix:
    """A matrix whose products are counted in ``calls``."""

    def __init__(self, mat, calls):
        self.mat, self.calls = mat, calls

    def dot(self, other):
        self.calls.append(1)
        return self.mat.dot(other)

    def tdot(self, other):
        self.calls.append(1)
        return self.mat.tdot(other)


class TestBatchedPairProduct:
    """The pair product takes the rectangles of one shape together."""

    @staticmethod
    def per_rectangle_product(sys_, drive, rects, values, mu):
        """(A (x) 1 + 1 (x) A + Ito - mu) v with two sparse products per rectangle.

        The product as it was made before, rectangle by rectangle, with A
        restricted to each rectangle's rows and columns by scipy indexing.
        """
        n = drive.dim
        support = fock._pair_index(rects, n)
        ito = to_scipy(fock._ito(sys_, support, n)[0]).T  # the Ito sum in CSC
        A = scipy.sparse.csr_matrix((values, (drive.rows, drive.cols)), shape=(n, n))
        blocks, lo = [], 0
        for rows, cols in rects:
            A_rows, A_cols = (
                (A[idx][:, idx] - 0.5 * mu * scipy.sparse.identity(idx.size, format="csr")).tocsr()
                for idx in (rows, cols))
            blocks.append((lo, rows.size, cols.size, A_rows, A_cols))
            lo += rows.size * cols.size

        def product(v):
            out = ito @ v
            for lo, h, w, A_rows, A_cols in blocks:
                G, block = v[lo:lo + h * w].reshape(h, w), out[lo:lo + h * w].reshape(h, w)
                block += A_rows @ G
                block += (A_cols @ G.T).T
            return out

        return product

    @pytest.mark.parametrize("case", ["flow_n2_w4-20240817", "two_shapes", "n3"])
    def test_matches_the_per_rectangle_product(self, case, rng):
        sys_, d, F0 = pair_problem(case)
        rects = fock._pair_support(sys_, d, F0)
        # Each shape's rectangles are consecutive, one slice of the support.
        if case == "two_shapes":
            assert shape_runs(rects) == [(1, 14), (1, 15), (12, 16)]
        elif case == "n3":
            assert shape_runs(rects) == [(27, 54), (3, 48)]
        else:
            assert len(rects) == 8 and shape_runs(rects) == [(32, 32)]
        pieces = fock._pair_pieces(sys_, d, rects)
        size = fock._pair_index(rects, sys_.dim).size
        for piece, (_a, _b, cell) in zip(pieces, d.stretches):
            ref = self.per_rectangle_product(sys_, d, rects, d.values(cell), piece.op.mu)
            for _ in range(2):
                v = rng.normal(size=size) + 1j * rng.normal(size=size)
                assert np.array_equal(piece.op.shifted(v), ref(v))

    def test_one_product_per_shape_and_side(self, rng):
        # On flow_n2_w4 the 8 rectangles share one shape: a pair product
        # takes the Ito sum and one product for each side, 3 in all, where
        # a product per rectangle and side takes 17.
        sys_, d, F0 = pair_problem("flow_n2_w4-20240817")
        rects = fock._pair_support(sys_, d, F0)
        shapes = {(rows.size, cols.size) for rows, cols in rects}
        v = rng.normal(size=fock._pair_index(rects, sys_.dim).size) + 0j
        for piece in fock._pair_pieces(sys_, d, rects):
            calls, product = [], piece.op.shifted
            counted = product._replace(
                ito=CountingMatrix(product.ito, calls),
                groups=[(at, R, h, w, CountingMatrix(rows, calls), CountingMatrix(cols, calls))
                        for at, R, h, w, rows, cols in product.groups])
            assert np.array_equal(counted(v), product(v))
            assert 0 < len(calls) <= 1 + 2 * len(shapes)


class TestPairSystem:
    def test_initial_product_identity(self, eta_sys, p2, rng, driven_pair):
        f, g = driven_pair
        u = random_local(p2, rng, [(0,)], include_identity=True)
        v = random_local(p2, rng, [(0,)])
        ftraj = fock.flow_element(eta_sys, u, f, v, g, [0.0])
        gtraj = fock.pair_element(eta_sys, u, f, v, g, [0.0])
        for a in eta_sys.basis:
            for b in eta_sys.basis:
                xa, yb = LocalOperator.weyl(p2, a), LocalOperator.weyl(p2, b)
                assert abs(gtraj.of_pair(xa, yb)[0]
                           - ftraj.of_operator(xa * yb)[0]) < 1e-12

    def test_identity_slot_matches_f(self, eta_sys, p2, pauli, driven_pair):
        f, g = driven_pair
        sx, sz, _, one = pauli
        ftraj = fock.flow_element(eta_sys, sx, f, sz, g, GRID)
        gtraj = fock.pair_element(eta_sys, sx, f, sz, g, GRID)
        id_row = gtraj.G[:, eta_sys.index[WeylLabel.identity()], :]
        assert np.abs(id_row - ftraj.F).max() < 1e-9
        rep, = fock.homomorphism_defect(ftraj, gtraj, [(sx, sz)])
        assert rep.consistent
        # A planted change to G's identity row, past 10 x F's largest estimate.
        id_row[-1, 1] += 20 * ftraj.error_estimate.max()
        rep, = fock.homomorphism_defect(ftraj, gtraj, [(sx, sz)])
        assert not rep.consistent

    def test_vacuum_pair_example(self, eta_sys, p2, pauli, zf):
        sx, _, _, one = pauli
        ftraj = fock.flow_element(eta_sys, one, zf, one, zf, GRID)
        gtraj = fock.pair_element(eta_sys, one, zf, one, zf, GRID)
        vals = gtraj.of_pair(sx, sx)
        assert np.abs(vals - 1.0).max() < 1e-10
        with pytest.raises(WindowError):
            gtraj.of_pair(sx, sx.translate((1,)))

    def test_needs_matching_f_trajectory(self, eta_sys, p2, maxmix, pauli, zf):
        # homomorphism_defect reads F and G of one system and grid.
        sx, _, _, one = pauli
        gtraj = fock.pair_element(eta_sys, one, zf, one, zf, GRID)
        short = fock.flow_element(eta_sys, one, zf, one, zf, GRID[:3])
        with pytest.raises(ValueError, match="one system, grid"):
            fock.homomorphism_defect(short, gtraj, [(sx, sx)])
        L = lb.Lindbladian.partial_state(p2, maxmix)
        wide = fock.flow_element(fock.build_generator_system(L, [(0,), (1,)]),
                                 one, zf, one, zf, GRID)
        with pytest.raises(ValueError, match="one system, grid"):
            fock.homomorphism_defect(wide, gtraj, [(sx, sx)])

    def test_needs_the_same_problem(self, eta_sys, pauli, zf):
        # F of (sx, f; 1, 0) against G of (sz, 0; sx, f) would read a defect
        # of order 1 against an estimate of order 1e-10.
        sx, sz, _, one = pauli
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.9, 0.4, 0.7, 0.2]})
        ftraj = fock.flow_element(eta_sys, sx, f, one, zf, GRID)
        gtraj = fock.pair_element(eta_sys, sz, zf, sx, f, GRID)
        with pytest.raises(ValueError, match=r"\(u, f, v, g\)"):
            fock.homomorphism_defect(ftraj, gtraj, [(sx, sz)])
        # The same vectors and equal test functions pose the same problem.
        f_again = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.9, 0.4, 0.7, 0.2]})
        again = fock.pair_element(eta_sys, sx, f_again, one, fock.TestFunction.zero(), GRID)
        rep, = fock.homomorphism_defect(ftraj, again, [(sx, sz)])
        assert rep.consistent and rep.defect < 1e-9


class TestHomomorphism:
    def test_single_site_all_pairs(self, eta_sys, p2, pauli, driven_pair):
        f, g = driven_pair
        sx, sz, _, one = pauli
        pairs = [(LocalOperator.weyl(p2, a), LocalOperator.weyl(p2, b))
                 for a in eta_sys.basis for b in eta_sys.basis]
        reps = _homomorphism(eta_sys, pairs, sx + 0.3 * sz, f, one, g, GRID)
        assert len(reps) == 16
        assert max(rep.defect for rep in reps) < 1e-8

    def test_unit_second_slot(self, eta_sys, p2, pauli, driven_pair):
        f, g = driven_pair
        sx, _, _, one = pauli
        rep, = _homomorphism(eta_sys, [(sx, one)], sx, f, one, g, GRID)
        assert rep.defect < 1e-9

    def test_window_ladder_decreases(self, p2, pauli):
        sx, sz, _, one = pauli
        r = sx * LocalOperator.site_word(p2, (1,), 1, 1)  # X (x) XZ word
        L = lb.Lindbladian.single_kraus(r)
        f = fock.TestFunction.build(0.25, 4, {((0,), 0): [1.0, 0.7, 0.4, 0.1],
                                              ((1,), 0): [0.3, 0.6, 0.2, 0.5]})
        g = fock.TestFunction.build(0.25, 4, {((0,), 0): [0.5, 0.9, 0.2, 0.6],
                                              ((-1,), 0): [0.8, 0.1, 0.3, 0.4]})
        grid = np.linspace(0.0, 0.25, 6)
        defects = []
        for w in ([(0,), (1,)], [(-1,), (0,), (1,)], [(-1,), (0,), (1,), (2,)]):
            sys_ = fock.build_generator_system(L, w)
            rep, = _homomorphism(sys_, [(sz, sz)], one, f, one, g, grid)
            assert rep.defect <= rep.error_estimate
            defects.append(rep.defect)
        assert defects[0] > defects[1] > defects[2]


class TestContraction:
    def test_identity_equality(self, eta_sys, p2, zf, pauli):
        one = pauli[3]
        rep, = fock.contraction_check(eta_sys, [one], [(1.0, one, zf)], 1.0, tol=1e-13)
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)

    def test_unitary_word(self, eta_sys, p2, pauli, zf):
        sx, _, _, one = pauli
        rep, = fock.contraction_check(eta_sys, [sx], [(1.0, one, zf), (0.5j, sx, zf)], 1.0)
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-10)

    def test_mixed_observable(self, eta_sys, p2, pauli, driven_pair):
        f, g = driven_pair
        sx, sz, _, one = pauli
        reps = fock.contraction_check(
            eta_sys, [sx + sz, sx, 3.0 * sz], [(1.0, one, f), (0.5, sx, g)], 1.0)
        assert len(reps) == 3
        for rep in reps:
            assert rep.lhs <= rep.rhs + rep.error + 1e-9
            assert rep.lhs >= -(rep.error + 1e-9)

    def test_reads_the_callers_solve(self, eta_sys, pauli, driven_pair, monkeypatch):
        f, g = driven_pair
        sx, sz, _, one = pauli
        family = [(1.0, one, f), (0.5, sx, g)]
        fwd = fock.flow_element(eta_sys, one, f, sx, g, [0.0, 0.5, 1.0])
        expected = fock.contraction_check(eta_sys, [sx + sz, sz], family, 0.5)
        calls = []
        real = fock.flow_element
        monkeypatch.setattr(fock, "flow_element",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        # The grid's breakpoints up to t = 0.5 are those of a solve to 0.5 alone.
        got = fock.contraction_check(eta_sys, [sx + sz, sz], family, 0.5, solved={(0, 1): fwd})
        assert got == expected
        assert len(calls) == 2
        with pytest.raises(ValueError):
            fock.contraction_check(eta_sys, [sz], family, 0.75, solved={(0, 1): fwd})

    def test_rejects_a_solve_of_another_problem(self, eta_sys, p2, maxmix, pauli, driven_pair):
        # ``solved`` must hold the pair's own solve: (u_i, f_i; u_j, f_j) on sys.
        f, g = driven_pair
        sx, sz, _, one = pauli
        family = [(1.0, one, f), (0.5, sx, g)]
        for wrong in (fock.flow_element(eta_sys, one, f, sz, g, [0.0, 0.5]),
                      fock.flow_element(eta_sys, one, g, sx, f, [0.0, 0.5]),
                      fock.flow_element(eta_sys, sx, g, one, f, [0.0, 0.5]),
                      fock.flow_element(
                          fock.build_generator_system(lb.Lindbladian.partial_state(p2, maxmix),
                                                      [(0,)]),
                          one, f, sx, g, [0.0, 0.5])):
            with pytest.raises(ValueError, match="is not its solve"):
                fock.contraction_check(eta_sys, [sz], family, 0.5, solved={(0, 1): wrong})

    def test_family_guard(self, eta_sys, p2, zf, pauli):
        fam = [(1.0, pauli[3], zf)] * 9
        with pytest.raises(SizeGuardError):
            fock.contraction_check(eta_sys, [pauli[0]], fam, 1.0)


class TestCovariance:
    def test_zero_shift(self, p2, pauli, driven_pair):
        f, g = driven_pair
        sx, sz, _, _ = pauli
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(-1,), (0,), (1,)])
        traj = fock.flow_element(sys_, sz, f, sx, g, GRID)
        rep, = fock.covariance_check(traj, [sz], (0,))
        assert rep.deviation < 1e-12

    def test_vacuum_case(self, p2, pauli, zf, rng):
        sx, sz, _, _ = pauli
        u = random_local(p2, rng, [(0,)])
        v = random_local(p2, rng, [(0,)])
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(-1,), (0,), (1,)])
        traj = fock.flow_element(sys_, u, zf, v, zf, GRID)
        reps = fock.covariance_check(traj, [sz, sx, sz * sx], (1,))
        assert len(reps) == 3
        assert max(rep.deviation for rep in reps) < 1e-9

    def test_driven_within_estimate(self, p2, pauli):
        sx, sz, _, _ = pauli
        r = sx * LocalOperator.site_word(p2, (1,), 1, 0)
        L = lb.Lindbladian.single_kraus(r, unital=True)
        f = fock.TestFunction.build(0.5, 2, {((0,), 0): [0.8, 0.3]})
        g = fock.TestFunction.build(0.5, 2, {((1,), 0): [0.4, 0.6]})
        grid = np.linspace(0.0, 0.5, 5)
        sys_ = fock.build_generator_system(L, [(0,), (1,)])
        traj = fock.flow_element(sys_, sz, f, sx, g, grid)
        rep, = fock.covariance_check(traj, [sz], (1,))
        assert rep.deviation <= max(2 * rep.error_estimate, 1e-9)

    def test_reads_its_problem_from_the_solve(self, p2, pauli, driven_pair, monkeypatch):
        # The translated solve takes the forward solve's problem, grid and tol.
        f, g = driven_pair
        sx, sz, _, _ = pauli
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(-1,), (0,), (1,)])
        traj = fock.flow_element(sys_, sz, f, sx, g, GRID, tol=1e-12)
        seen = []
        real = fock.flow_element

        def recorded(*args, **kwargs):
            seen.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(fock, "flow_element", recorded)
        rep, = fock.covariance_check(traj, [sz], (1,))
        (sys_b, u, fb, v, gb, grid), kwargs = seen[0]
        assert sys_b.sites == ((-2,), (-1,), (0,))
        assert u.sup_diff(sz.translate((-1,))) == 0.0 and v.sup_diff(sx.translate((-1,))) == 0.0
        assert (fb, gb) == (f.shifted((1,)), g.shifted((1,)))
        assert grid is traj.grid and kwargs == {"tol": 1e-12}
        assert rep.deviation <= max(2 * rep.error_estimate, 1e-9)

    def test_solve_without_test_functions(self, p2, pauli):
        # f and g are recorded as passed (None here) and read as zero.
        sx, sz, _, _ = pauli
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(-1,), (0,), (1,)])
        traj = fock.flow_element(sys_, sz, None, sx, None, GRID)
        assert traj.problem == (sz, None, sx, None)
        rep, = fock.covariance_check(traj, [sz], (1,))
        assert rep.deviation < 1e-12


class TestEtaFlows:
    """Partial-state flows are ``flow_element`` solves on leak-free windows."""

    def test_site_flow_closed_form(self, p2, pauli, zf, eta_sys, leak_free):
        sx, _, _, one = pauli
        assert leak_free(eta_sys)
        traj = fock.flow_element(eta_sys, sx, zf, one, zf, GRID, tol=1e-13)
        assert np.abs(traj.of_operator(sx) - np.exp(-GRID)).max() < 1e-12

    def test_site_flow_support_check(self, p2, maxmix, pauli, zf):
        sys1 = fock.build_generator_system(lb.Lindbladian.partial_state(p2, maxmix), [(1,)])
        traj = fock.flow_element(sys1, pauli[3], zf, pauli[3], zf, GRID)
        with pytest.raises(WindowError):
            traj.of_operator(pauli[0])

    def test_product_matches_direct_window(self, p2, leak_free):
        # The 2-site flow of x0 x1 factors into the two 1-site flows; a mode
        # on site 5 meets no acting member and contributes exp<f5, g5>.
        rho = dense.StateSpec(np.array([[0.7, 0.1], [0.1, 0.3]]))
        L = lb.Lindbladian.partial_state(p2, rho)

        def word(k, a, b):
            return LocalOperator.site_word(p2, (k,), a, b)

        x = [word(0, 1, 0) + 0.3 * word(0, 0, 1), word(1, 0, 1) - 0.5j * word(1, 1, 1)]
        u = [word(0, 1, 1) + 0.2 * word(0, 0, 0), word(1, 1, 0)]
        v = [word(0, 0, 1), word(1, 0, 0) + 0.4 * word(1, 1, 0)]
        f = [{((0,), 0): [0.9, 0.4, 0.7, 0.2]}, {((1,), 2): [0.3, 0.1, 0.5, 0.6]}]
        g = [{((0,), 1): [0.2, 0.8, 0.5, 0.3]}, {((1,), 2): [0.6, 0.2, 0.9, 0.1]}]
        f5 = {((5,), 0): [0.5, -0.2, 0.1, 0.4j]}
        g5 = {((5,), 0): [0.3, 0.7, -0.6, 0.2]}

        def tf(*parts):
            modes = {k: w for part in parts for k, w in part.items()}
            return fock.TestFunction.build(1.0, 4, modes)

        sys2 = fock.build_generator_system(L, [(0,), (1,)])
        assert leak_free(sys2)
        direct = fock.flow_element(sys2, u[0] * u[1], tf(f[0], f[1], f5),
                                   v[0] * v[1], tf(g[0], g[1], g5), GRID,
                                   tol=1e-15).of_operator(x[0] * x[1])
        prod = fock.exp_inner(tf(f5), tf(g5))
        for k in (0, 1):
            sys1 = fock.build_generator_system(L, [(k,)])
            prod = prod * fock.flow_element(sys1, u[k], tf(f[k]), v[k], tf(g[k]),
                                            GRID, tol=1e-15).of_operator(x[k])
        assert np.abs(direct - prod).max() < 1e-12 * np.abs(direct).max()

    def test_identity_constant(self, p2, pauli, driven_pair, eta_sys):
        f, g = driven_pair
        traj = fock.flow_element(eta_sys, pauli[0], f, pauli[1], g, GRID)
        vals = traj.of_operator(pauli[3])
        assert np.abs(vals - vals[0]).max() < 1e-10


class TestErgodicityScan:
    def test_traceless_silent_case(self, p2, maxmix, pauli, zf):
        # u = v = 1 and tr(sx) = 0: the element vanishes identically.
        scan = fock.eta_ergodicity_scan(maxmix, pauli[0], pauli[3], zf, pauli[3], zf, GRID)
        assert np.abs(scan.values).max() < 1e-14

    def test_vacuum_rate(self, p2, maxmix, pauli, zf):
        sx, _, _, one = pauli
        scan = fock.eta_ergodicity_scan(maxmix, sx, sx, zf, one, zf,
                                        np.linspace(0.0, 8.0, 33))
        assert scan.rate == pytest.approx(1.0, abs=1e-3)

    def test_driven_scan(self, p2, maxmix, pauli):
        sx, _, _, one = pauli
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [1.0, 0.5, 0.25, 0.1]})
        g = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.5, 0.5, 0.5, 0.5]})
        scan = fock.eta_ergodicity_scan(maxmix, sx, sx, f, one, g,
                                        np.linspace(0.0, 15.0, 61))
        assert scan.rate == pytest.approx(1.0, abs=1e-2)
        assert scan.values[-1] < 1e-6

    def test_vacuum_trajectory_is_the_semigroup(self, p2, zf):
        # Without drive F_t(x) = <u, T_t(x) v>, read from the closed form.
        rho = dense.StateSpec(np.array([[0.7, 0.1], [0.1, 0.3]]))
        sx0, sz0 = (LocalOperator.site_word(p2, (0,), a, b) for a, b in [(1, 0), (0, 1)])
        sx1, sz1 = (LocalOperator.site_word(p2, (1,), a, b) for a, b in [(1, 0), (0, 1)])
        x = sx0 * sx1 + 0.5 * sz1 - 0.3j * sz0
        one = LocalOperator.identity(p2)
        u, v = one + sx0 + 0.2 * sz1, one + sx1
        scan = fock.eta_ergodicity_scan(rho, x, u, zf, v, zf, GRID)
        exact = [gns_inner(u, lb.partial_semigroup_exact(rho, x, float(t)) * v) for t in GRID]
        assert np.abs(scan.trajectory - exact).max() < 1e-12

    def test_empty_support_scans_the_origin(self, p2, maxmix, pauli, driven_pair):
        one = pauli[3]
        f, g = driven_pair
        scan = fock.eta_ergodicity_scan(maxmix, one, one, f, one, g, GRID)
        const = gns_inner(one, one) * fock.exp_inner(f, g)
        assert np.abs(scan.trajectory - const).max() <= 1e-12
        assert np.abs(scan.values).max() <= 1e-12

    def test_matches_the_union_window_solve(self, p2):
        # u and v enter through F_0 alone, and modes off x's support through
        # exp<f, g>: the solve on x's site equals the one on the union window.
        rho = dense.StateSpec(np.array([[0.6, 0.2j], [-0.2j, 0.4]]))
        L = lb.Lindbladian.partial_state(p2, rho)

        def word(k, a, b, c=1.0):
            return LocalOperator.site_word(p2, (k,), a, b, c)

        one = LocalOperator.identity(p2)
        x = word(0, 1, 0) + word(0, 1, 1, 0.4j)
        u = one + word(1, 1, 0) * word(3, 0, 1) + word(2, 1, 1, 0.5)
        v = word(1, 0, 1) + word(2, 1, 0, -0.3) * word(3, 1, 1)
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.9, 0.4, 0.7, 0.2],
                                             ((1,), 1): [0.3, -0.5, 0.1, 0.6]})
        g = fock.TestFunction.build(1.0, 4, {((2,), 2): [0.2, 0.8, 0.5j, 0.3],
                                             ((0,), 3): [0.4, 0.1, 0.2, 0.7]})
        union = fock.build_generator_system(L, [(0,), (1,), (2,), (3,)])
        want = fock.flow_element(union, u, f, v, g, GRID).of_operator(x)
        scan = fock.eta_ergodicity_scan(rho, x, u, f, v, g, GRID)
        assert np.abs(scan.trajectory - want).max() <= 1e-12 * np.abs(want).max()

    def test_vectors_beyond_the_size_guard(self, p2, zf):
        # x on one site, u and v on seven: only x's support is solved for.
        rho = dense.StateSpec(np.array([[0.7, 0.1], [0.1, 0.3]]))
        x = LocalOperator.site_word(p2, (3,), 1, 0) + LocalOperator.site_word(p2, (3,), 0, 1)
        u = v = LocalOperator.identity(p2)
        for k in range(7):
            u = u * LocalOperator.site_word(p2, (k,), 1, 0)
            v = v * (LocalOperator.identity(p2) + LocalOperator.site_word(p2, (k,), 0, 1, 0.5))
        scan = fock.eta_ergodicity_scan(rho, x, u, zf, v, zf, GRID)
        exact = [gns_inner(u, lb.partial_semigroup_exact(rho, x, float(t)) * v) for t in GRID]
        assert np.abs(scan.trajectory - exact).max() < 1e-12

    def test_support_beyond_the_size_guard(self, p2, maxmix, zf):
        x = LocalOperator.identity(p2)
        for k in range(8):  # 8 sites: basis 4^8 > dense.MAX_WINDOW_DIM
            x = x * LocalOperator.site_word(p2, (k,), 1, 0)
        with pytest.raises(SizeGuardError):
            fock.eta_ergodicity_scan(maxmix, x, x, zf, x, zf, GRID)

    def test_unit_observable(self, p2, maxmix, pauli, driven_pair):
        f, g = driven_pair
        scan = fock.eta_ergodicity_scan(maxmix, pauli[3], pauli[0], f, pauli[1], g, GRID)
        assert np.abs(scan.values).max() < 1e-9

    def test_fit_error_leaves_rate_unset(self, p2, maxmix, pauli, zf, monkeypatch):
        def unusable(*_args, **_kwargs):
            raise FitError("unusable data")

        monkeypatch.setattr(lb, "decay_rate_fit", unusable)
        sx, _, _, one = pauli
        scan = fock.eta_ergodicity_scan(maxmix, sx, sx, zf, one, zf, np.linspace(0.0, 8.0, 33))
        assert scan.rate is None and scan.r2 is None

    def test_other_fit_errors_propagate(self, p2, maxmix, pauli, zf, monkeypatch):
        def broken(*_args, **_kwargs):
            raise RuntimeError("broken fit")

        monkeypatch.setattr(lb, "decay_rate_fit", broken)
        sx, _, _, one = pauli
        with pytest.raises(RuntimeError, match="broken fit"):
            fock.eta_ergodicity_scan(maxmix, sx, sx, zf, one, zf, np.linspace(0.0, 8.0, 33))


class TestHpWitness:
    def test_d1_counts(self, p2, pauli):
        sums = fock.hp_divergence_witness(pauli[0], pauli[3], 10)
        assert sums == [2 * k + 1 for k in range(1, 11)]

    def test_d2_counts(self, p2d2):
        r = LocalOperator.site_word(p2d2, (0, 0), 1, 0)
        one = LocalOperator.identity(p2d2)
        sums = fock.hp_divergence_witness(r, one, 4)
        assert sums == [(2 * k + 1) ** 2 for k in range(1, 5)]

    def test_zero_kraus(self, p2, pauli):
        sums = fock.hp_divergence_witness(LocalOperator.zero(p2), pauli[3], 3)
        assert sums == [0.0, 0.0, 0.0]
