"""Flow matrix elements: F/G systems, eta flows, scans and witnesses."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import uhfflow.dense as dense
import uhfflow.fock as fock
import uhfflow.lindblad as lb
from uhfflow.algebra import AlgebraParams, LocalOperator, WeylLabel, gns_inner, random_local
from uhfflow.errors import FitError, SizeGuardError, WindowError


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
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [1, 1, 1, 1]})
        spec = fock.ExponentialVectorSpec(LocalOperator.identity(p2), f)
        assert spec.norm() == pytest.approx(math.exp(0.5))


class TestGeneratorSystem:
    def test_partial_site_closes(self, eta_sys):
        assert eta_sys.dim == 4
        assert eta_sys.leak_free()
        assert [m for (_k, m) in eta_sys.noise] == [0, 1, 2, 3]

    def test_translation_noise_indices(self, p2, pauli):
        L = lb.Lindbladian.single_kraus(pauli[0], unital=True)
        sys_ = fock.build_generator_system(L, [(-1,), (0,), (1,)])
        assert [k for (k, _m) in sys_.noise] == [(-1,), (0,), (1,)]
        assert sys_.leak_free()

    def test_lhat_annihilates_identity(self, eta_sys):
        from uhfflow.algebra import WeylLabel

        col = eta_sys.index[WeylLabel.identity()]
        assert np.abs(eta_sys.lhat_t.toarray()[col]).max() < 1e-14

    def test_dimension_guard(self, p2, maxmix):
        # 8 sites: 4^8 strings, above dense.MAX_WINDOW_DIM.
        L = lb.Lindbladian.partial_state(p2, maxmix)
        with pytest.raises(SizeGuardError):
            fock.build_generator_system(L, [(i,) for i in range(8)])

    def test_two_site_word_leaks(self, p2, pauli):
        r2 = pauli[0] * pauli[0].translate((1,))
        L = lb.Lindbladian.single_kraus(r2, unital=True)
        sys_ = fock.build_generator_system(L, [(0,), (1,)])
        assert not sys_.leak_free()


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

    def test_error_budget_scales_with_l1(self, p2, pauli):
        # The estimate bounds one basis string; an observable's budget is
        # l1(x) times it (l1(x) l1(y) times it for a pair).
        sx, sz, _, one = pauli
        L = lb.Lindbladian.single_kraus(sx * sx.translate((1,)), unital=True)
        sys_ = fock.build_generator_system(L, [(0,), (1,)])
        assert not sys_.leak_free()
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

    def test_vacuum_reduction_translation(self, p2, pauli, zf, rng):
        sx, sz, _, one = pauli
        L = lb.Lindbladian.single_kraus(sx, unital=True)
        sys_ = fock.build_generator_system(L, [(0,)])
        u = random_local(p2, rng, [(0,)], include_identity=True)
        v = random_local(p2, rng, [(0,)])
        traj = fock.flow_element(sys_, u, zf, v, zf, GRID)
        oracle = dense.hilbert_evolve(L, dense.window(p2, [(0,)]), "interior", GRID, sz)
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


class TestPieces:
    """The G pieces double the F pieces: A (x) 1 + 1 (x) A + the Ito sum."""

    @pytest.fixture
    def leaky(self, p2, pauli):
        sx, sz = pauli[0], pauli[1]
        L = lb.Lindbladian.single_kraus(sx * sx.translate((1,)) + 0.5 * sz)
        sys_ = fock.build_generator_system(L, [(0,), (1,)])
        assert not sys_.leak_free()
        f = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.9, 0.4, 0.7, 0.2],
                                             ((-1,), 0): [0.3, 0.1, 0.5, 0.6]})
        g = fock.TestFunction.build(1.0, 4, {((1,), 0): [0.2, 0.8, 0.5, 0.3],
                                             ((0,), 0): [0.6, 0.2, 0.9, 0.1]})
        grid = np.linspace(0.0, 1.5, 4)  # runs past t_max = 1
        F = fock._flow_pieces(sys_, grid, f, g)
        return sys_, f, g, F, fock._pair_pieces(sys_, F)

    @staticmethod
    def kron_forms(sys_, f, g, G):
        """The old assembled G generator of each piece, as a dense matrix."""
        n = sys_.dim
        eye = scipy.sparse.identity(n, dtype=complex, format="csr")

        def both(m):
            return scipy.sparse.kron(m, eye) + scipy.sparse.kron(eye, m)

        static = both(sys_.lhat_t)
        for key in sys_.noise:
            static = static + scipy.sparse.kron(sys_.delta_dag_t[key], sys_.delta_t[key])
        forms = []
        for piece in G:
            cell = fock._cell_of(0.5 * (piece.a + piece.b), f)
            expected = static
            for key in sys_.noise:
                expected = (expected + np.conj(f.cell_value(key, cell)) * both(sys_.delta_t[key])
                            + g.cell_value(key, cell) * both(sys_.delta_dag_t[key]))
            forms.append(expected.toarray())
        return forms

    def test_pair_matrix_is_the_kron_form(self, leaky, rng):
        # Applied to random complex vectors, each matrix-free G piece acts
        # as its assembled kron form A (x) 1 + 1 (x) A + Ito.
        sys_, f, g, F, G = leaky
        assert [(p.a, p.b) for p in G] == [(p.a, p.b) for p in F]
        assert F[-1].a >= f.t_max  # one piece lies past the drive
        n = sys_.dim
        for piece, expected in zip(G, self.kron_forms(sys_, f, g, G)):
            for _ in range(3):
                v = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
                assert np.abs(piece.op.apply(v) - expected @ v).max() < 1e-14

    def test_pair_matvec_in_place_is_bitwise(self, leaky, rng):
        # Summing into the first product's array gives the bits of the sum
        # of fresh arrays, and leaves the input vector alone.
        sys_, _f, _g, F, G = leaky
        n = sys_.dim
        ito = sum(scipy.sparse.kron(sys_.delta_dag_t[key], sys_.delta_t[key], format="csr")
                  for key in sys_.noise)
        ito_op = lb.step_operator(ito)
        for fp, gp in zip(F, G):
            v = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
            kept = v.copy()
            M = v.reshape(n, n)
            expected = (fp.op.shifted(M) + fp.op.shifted(M.T).T).reshape(-1) + ito_op.shifted(v)
            got = gp.op.shifted(v)
            assert np.array_equal(got.view(float), expected.view(float))
            assert np.array_equal(v, kept)

    def test_pair_shift_and_norm_bound(self, leaky):
        # The G operator's norms and log-norm bound those of the kron form.
        sys_, f, g, _F, G = leaky
        n2 = sys_.dim ** 2
        for piece, expected in zip(G, self.kron_forms(sys_, f, g, G)):
            mu = np.trace(expected) / n2
            assert abs(piece.op.mu - mu) < 1e-14
            shifted = np.abs(expected - mu * np.eye(n2))
            assert piece.op.norm >= shifted.sum(axis=0).max()
            assert piece.op.norm_inf >= shifted.sum(axis=1).max()
            diag = np.diag(expected)
            growth = (diag.real + np.abs(expected).sum(axis=1) - np.abs(diag)).max()
            assert piece.op.growth >= growth

    @pytest.mark.parametrize("system", ["F", "G"])
    @pytest.mark.parametrize("tol", [1e-4, 1e-9])
    def test_propagate_meets_tol_on_a_growing_system(self, leaky, rng, system, tol):
        # Both systems have log-norm bounds > 0 here, so each piece's share
        # of tol is shrunk for the growth after it; every state is still
        # within tol of dense expm stepping (roundoff aside) at every grid time.
        sys_, _f, _g, F, G = leaky
        pieces = {"F": F, "G": G}[system]
        dim = sys_.dim if system == "F" else sys_.dim ** 2
        assert min(p.op.growth for p in pieces) > 0
        grid = np.linspace(0.0, 1.5, 4)
        x0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states, _est = fock._propagate(pieces, x0, grid, tol, 1.0)
        exact, ref = {0.0: x0}, x0
        for p in pieces:
            mat = np.column_stack([p.op.apply(e) for e in np.eye(dim, dtype=complex)])
            ref = exact[p.b] = scipy.linalg.expm((p.b - p.a) * mat) @ ref
        for t, state in zip(grid, states):
            want = exact[float(t)]
            assert np.abs(state - want).max() <= tol + 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("system", ["F", "G"])
    def test_long_grid_costs_no_more_than_the_roundoff_stop(self, leaky, rng, system,
                                                             roundoff_stop_matvecs):
        # Over t in [0, 10] the G pieces' log-norm bound (about 12) shrinks
        # the early pieces' shares of tol by e^-100 and more, far below
        # roundoff; those sums stop at unit roundoff instead, so the solve
        # returns within tol of dense stepping (roundoff aside) on no more
        # matvecs than scipy's 2^-53 stop takes.
        sys_, f, g, _F, _G = leaky
        grid = np.linspace(0.0, 10.0, 9)
        F = fock._flow_pieces(sys_, grid, f, g)
        pieces = {"F": F, "G": fock._pair_pieces(sys_, F)}[system]
        dim = sys_.dim if system == "F" else sys_.dim ** 2
        x0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        calls, limit, exact, ref = [], 0, {0.0: x0}, x0
        for p in pieces:
            limit += roundoff_stop_matvecs(p.op, ref, p.b - p.a)
            mat = np.column_stack([p.op.apply(e) for e in np.eye(dim, dtype=complex)])
            ref = exact[p.b] = scipy.linalg.expm((p.b - p.a) * mat) @ ref
        counted = [p._replace(op=p.op._replace(
            shifted=lambda v, op=p.op: calls.append(1) or op.shifted(v))) for p in pieces]
        states, _est = fock._propagate(counted, x0, grid, 1e-9, 1.0)
        assert len(calls) <= limit
        for t, state in zip(grid, states):
            want = exact[float(t)]
            assert np.abs(state - want).max() <= 1e-9 + 1e-12 * np.abs(want).max()

    def test_pair_leak_rate_adds_the_ito_rate(self, leaky):
        sys_, _f, _g, F, G = leaky
        ito_rate = 0.0
        for key in sys_.noise:
            ld, ldd = sys_.leak_max(("d", key)), sys_.leak_max(("dd", key))
            ito_rate += ldd * sys_.map_l1(key) + sys_.map_l1(key) * ld + ldd * ld
        assert ito_rate > 0.0
        for fp, gp in zip(F, G):
            assert fp.leak_rate > 0.0
            assert gp.leak_rate == pytest.approx(2.0 * fp.leak_rate + ito_rate, rel=1e-15)


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

    def test_site_flow_closed_form(self, p2, pauli, zf, eta_sys):
        sx, _, _, one = pauli
        assert eta_sys.leak_free()
        traj = fock.flow_element(eta_sys, sx, zf, one, zf, GRID, tol=1e-13)
        assert np.abs(traj.of_operator(sx) - np.exp(-GRID)).max() < 1e-12

    def test_site_flow_support_check(self, p2, maxmix, pauli, zf):
        sys1 = fock.build_generator_system(lb.Lindbladian.partial_state(p2, maxmix), [(1,)])
        traj = fock.flow_element(sys1, pauli[3], zf, pauli[3], zf, GRID)
        with pytest.raises(WindowError):
            traj.of_operator(pauli[0])

    def test_product_matches_direct_window(self, p2):
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
        assert sys2.leak_free()
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
