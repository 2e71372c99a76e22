"""Dense realization, both evolution oracles, Choi positivity, Kraus families."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import uhfflow.algebra as algebra
import uhfflow.dense as dense
import uhfflow.fock as fock
import uhfflow.kernel as kernel
import uhfflow.lindblad as lindblad
from uhfflow.algebra import AlgebraParams, LocalOperator, WeylLabel, random_local
from uhfflow.errors import SizeGuardError, StateError, WindowError
from uhfflow.lindblad import KrausFamily, Lindbladian


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestClockShift:
    def test_pauli_at_two(self):
        U, V = dense.clock_shift(2)
        assert np.abs(U - SX).max() == 0.0
        assert np.abs(V - SZ).max() == 0.0

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_relations(self, N):
        U, V = dense.clock_shift(N)
        w = np.exp(2j * np.pi / N)
        eye = np.eye(N)
        assert np.abs(np.linalg.matrix_power(U, N) - eye).max() < 1e-13
        assert np.abs(np.linalg.matrix_power(V, N) - eye).max() < 1e-13
        assert np.abs(U @ V - w * V @ U).max() < 1e-13
        assert np.abs(U @ U.conj().T - eye).max() < 1e-14

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            dense.clock_shift(1)


class TestRealize:
    def test_word_matrix(self, p2):
        x = LocalOperator.site_word(p2, (0,), 1, 1)
        got = dense.realize(x, dense.window(p2, [(0,)]))
        assert np.abs(got - SX @ SZ).max() < 1e-15

    def test_identity(self, p2):
        win = dense.window(p2, [(0,), (1,)])
        got = dense.realize(LocalOperator.identity(p2), win)
        assert np.abs(got - np.eye(4)).max() == 0.0

    def test_homomorphism_random(self, p2, rng):
        win = dense.window(p2, [(0,), (1,), (2,)])
        for _ in range(20):
            x = random_local(p2, rng, win.sites)
            y = random_local(p2, rng, win.sites)
            lhs = dense.realize(x * y, win)
            rhs = dense.realize(x, win) @ dense.realize(y, win)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_window_violation(self, p2):
        x = LocalOperator.site_word(p2, (5,), 1, 0)
        with pytest.raises(WindowError):
            dense.realize(x, dense.window(p2, [(0,)]))

    def test_translate_consistency(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        win = dense.window(p2, [(0,), (1,)])
        shifted = dense.window(p2, [(3,), (4,)])
        a = dense.realize(x, win)
        b = dense.realize(x.translate((3,)), shifted)
        assert np.abs(a - b).max() == 0.0

    def test_trace_consistency(self, p2, rng):
        win = dense.window(p2, [(0,), (1,)])
        x = random_local(p2, rng, win.sites, include_identity=True)
        mat = dense.realize(x, win)
        assert abs(np.trace(mat) / 4 - x.trace()) < 1e-13

    @pytest.mark.parametrize("n_sites", [2, 5])  # cached, and above STRING_MATRIX_CACHE_DIM
    def test_result_is_a_fresh_array(self, p2, rng, n_sites):
        win = dense.window(p2, [(k,) for k in range(n_sites)])
        x = LocalOperator.weyl(p2, algebra.random_label(p2, rng, [(0,), (1,)]))
        first = dense.realize(x, win)
        want = np.kron(dense.realize(x, dense.window(p2, [(0,), (1,)])),
                       np.eye(2 ** (n_sites - 2)))
        assert np.abs(first - want).max() == 0.0
        first[:] = 7.0
        assert np.abs(dense.realize(x, win) - want).max() == 0.0
        assert np.abs(dense.realize(x * 2.0, win) - 2.0 * want).max() == 0.0

    def test_cached_matrices_read_only(self):
        # One write into a shared cached array would corrupt every later
        # realization in the process.
        mat = dense._string_matrix(2, ((1, 0), (0, 0), (1, 1)))
        assert mat.shape == (8, 8)
        for arr in (mat, dense.site_word(3, 1, 2), *dense.clock_shift(3)):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


SITES = [(-1,), (0,), (1,)]


@st.composite
def label_pairs(draw):
    """(params, g, h): random labels on the sites -1, 0, 1."""
    N = draw(st.sampled_from([2, 3, 4, 5]))

    def label():
        chosen = draw(st.lists(st.sampled_from(SITES), max_size=3, unique=True))
        return WeylLabel.from_entries(
            [(s, (draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1)))) for s in chosen],
            N, 1)

    return AlgebraParams(N, 1), label(), label()


class TestProductTable:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(label_pairs())
    def test_matches_product_law_and_dense_product(self, case):
        params, g, h = case
        N = params.N
        uncached = algebra._product.__wrapped__(N, g, h)
        # A first call fills the table, a second reads it back, and equal
        # but distinct label objects find the same entry.
        twins = WeylLabel(g.entries), WeylLabel(h.entries)
        for phase, label in (algebra.weyl_mul(params, g, h), algebra.weyl_mul(params, g, h),
                             algebra.weyl_mul(params, *twins)):
            assert (phase, label) == uncached
            assert 0 <= phase < N
        phase, label = uncached
        win = dense.window(params, SITES)
        lhs = (dense.realize(LocalOperator.weyl(params, g), win)
               @ dense.realize(LocalOperator.weyl(params, h), win))
        rhs = params.root(phase) * dense.realize(LocalOperator.weyl(params, label), win)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestOperatorNorm:
    def test_unitary_words(self, p2, rng):
        from uhfflow.algebra import random_label

        for _ in range(10):
            g = random_label(p2, rng, [(0,), (1,)])
            assert abs(dense.operator_norm(LocalOperator.weyl(p2, g)) - 1.0) < 1e-12

    def test_sx_plus_sz(self, pauli):
        sx, sz, _, _ = pauli
        assert abs(dense.operator_norm(sx + sz) - np.sqrt(2)) < 1e-12

    def test_scalar(self, p2):
        assert dense.operator_norm(LocalOperator.identity(p2) * 2.0) == 2.0
        assert dense.operator_norm(LocalOperator.zero(p2)) == 0.0


@pytest.fixture
def partial_maxmix(p2):
    return Lindbladian.partial_state(p2, dense.StateSpec(np.eye(2) / 2))


class TestSuperoperator:
    def test_partial_eigenvalues(self, p2, partial_maxmix):
        sop = dense.superoperator(partial_maxmix, dense.window(p2, [(0,)]))
        eigs = sorted(np.linalg.eigvals(sop.matrix).real)
        assert np.abs(np.array(eigs) - np.array([-1, -1, -1, 0])).max() < 1e-12

    def test_annihilates_identity(self, p2, partial_maxmix):
        sop = dense.superoperator(partial_maxmix, dense.window(p2, [(0,), (1,)]))
        vec = dense.coefficient_vector(LocalOperator.identity(p2), sop.index)
        assert np.abs(sop.matrix @ vec).max() < 1e-14

    def test_matches_symbolic_interior(self, p2, rng):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx, unital=True)
        win = dense.window(p2, [(-1,), (0,), (1,)])
        sop = dense.superoperator(L, win, "interior")
        for _ in range(10):
            x = random_local(p2, rng, win.sites)
            vec = dense.coefficient_vector(x, sop.index)
            image = sop.matrix @ vec
            sym = L.windowed_apply(x, win.sites, "interior")
            sym_vec = dense.coefficient_vector(sym, sop.index)
            assert np.abs(image - sym_vec).max() < 1e-12

    def test_built_without_symbolic_arithmetic(self, p2, monkeypatch):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        r = sx * sx.translate((1,)) + LocalOperator.site_word(p2, (0,), 0, 1, 0.5)
        L = Lindbladian.single_kraus(r)
        win = dense.window(p2, [(0,), (1,), (3,)])
        expected = dense.superoperator(L, win, "clipped").matrix

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the oracle must not use symbolic products")

        monkeypatch.setattr(LocalOperator, "__mul__", forbidden)
        monkeypatch.setattr(Lindbladian, "windowed_apply", forbidden)
        got = dense.superoperator(L, win, "clipped").matrix
        assert np.array_equal(got, expected)

    def test_dim_guard(self, p2, partial_maxmix):
        big = dense.window(p2, [(i,) for i in range(8)])
        with pytest.raises(SizeGuardError):
            dense.superoperator(partial_maxmix, big)


class TestExpmEvolve:
    def test_time_zero(self, p2, partial_maxmix, rng):
        win = dense.window(p2, [(0,), (1,)])
        sop = dense.superoperator(partial_maxmix, win)
        x = random_local(p2, rng, win.sites, include_identity=True)
        assert dense.expm_evolve(sop, 0.0, x).sup_diff(x) < 1e-14

    def test_partial_closed_form(self, p2, partial_maxmix, pauli):
        sx = pauli[0]
        sop = dense.superoperator(partial_maxmix, dense.window(p2, [(0,)]))
        got = dense.expm_evolve(sop, 0.7, sx)
        assert got.sup_diff(sx * np.exp(-0.7)) < 1e-13

    def test_semigroup_law(self, p2, partial_maxmix, rng):
        win = dense.window(p2, [(0,), (1,)])
        sop = dense.superoperator(partial_maxmix, win)
        x = random_local(p2, rng, win.sites)
        once = dense.expm_evolve(sop, 0.9, x)
        twice = dense.expm_evolve(sop, 0.5, dense.expm_evolve(sop, 0.4, x))
        assert once.sup_diff(twice) < 1e-10

    def test_grid_matches_pointwise(self, p2, rng):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx * sx.translate((1,)) + sx * 0.5)
        sop = dense.superoperator(L, dense.window(p2, [(0,), (1,), (2,)]), "clipped")
        x = random_local(p2, rng, [(0,), (1,), (2,)])
        grid = [0.0, 0.3, 0.7, 1.1, 1.5]
        stepped = dense.expm_evolve(sop, grid, x)
        assert len(stepped) == len(grid)
        for t, got in zip(grid, stepped):
            assert got.sup_diff(dense.expm_evolve(sop, t, x)) < 1e-12

    def test_one_expm_per_distinct_step(self, p2, partial_maxmix, pauli, monkeypatch):
        sop = dense.superoperator(partial_maxmix, dense.window(p2, [(0,)]))
        calls = []
        real = dense.scipy.linalg.expm
        monkeypatch.setattr(dense.scipy.linalg, "expm", lambda A: calls.append(1) or real(A))
        vals = dense.expm_evolve(sop, np.linspace(0.0, 1.0, 5), pauli[0])
        assert len(calls) == 1
        for t, got in zip(np.linspace(0.0, 1.0, 5), vals):
            assert got.sup_diff(pauli[0] * np.exp(-t)) < 1e-13
        assert isinstance(dense.expm_evolve(sop, 0.5, pauli[0]), LocalOperator)

    def test_descending_grid(self, p2, partial_maxmix, pauli):
        sop = dense.superoperator(partial_maxmix, dense.window(p2, [(0,)]))
        with pytest.raises(ValueError):
            dense.expm_evolve(sop, [0.5, 0.2], pauli[0])

    def test_negative_time(self, p2, partial_maxmix, pauli):
        sop = dense.superoperator(partial_maxmix, dense.window(p2, [(0,)]))
        with pytest.raises(ValueError):
            dense.expm_evolve(sop, -0.1, pauli[0])


@st.composite
def oracle_cases(draw):
    """(Lindbladian, window, closure mode, observable) for the two oracles.

    N = 2 windows have one to three sites, N = 3 windows one or two, drawn
    distinct from -2..2; the generator is a translation-covariant family
    of one or two random members on the origin and its neighbour, or the
    partial-state generator of a random full-rank state.
    """
    N = draw(st.sampled_from([2, 3]))
    params = AlgebraParams(N, 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_sites = draw(st.integers(1, 3 if N == 2 else 2))
    sites = [(int(k),) for k in rng.choice(np.arange(-2, 3), size=n_sites, replace=False)]
    if draw(st.booleans()):
        ops = []
        for _ in range(draw(st.integers(1, 2))):
            op = random_local(params, rng, [(0,), (1,)], n_terms=draw(st.integers(1, 3)),
                              include_identity=draw(st.booleans()))
            ops.append(op * (1.0 / op.l1()))
        L = Lindbladian.translation_covariant(KrausFamily(tuple(ops)))
    else:
        A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        rho = A @ A.conj().T
        L = Lindbladian.partial_state(params, dense.StateSpec(rho / np.trace(rho).real))
    x = random_local(params, rng, sites, include_identity=draw(st.booleans()))
    return L, dense.window(params, sites), draw(st.sampled_from(["interior", "clipped"])), x


class TestHilbertEvolve:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(oracle_cases())
    @pytest.mark.parametrize("grid", [
        [0.0], [0.0, 0.4, 0.4, 1.0], [0.3, 0.9], [0.5, 0.5, 1.2],
    ])
    def test_matches_pade_oracle(self, grid, case):
        L, win, closure, x = case
        got = dense.hilbert_evolve(L, win, closure, grid, x)
        ref = dense.expm_evolve(dense.superoperator(L, win, closure), grid, x)
        assert len(got) == len(grid)
        for a, b in zip(got, ref):
            assert a.sup_diff(b) <= 1e-11

    def test_built_without_kernel_or_exponential(self, p2, monkeypatch):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        r = sx * sx.translate((1,)) + LocalOperator.site_word(p2, (0,), 0, 1, 0.5)
        L = Lindbladian.single_kraus(r)
        win = dense.window(p2, [(0,), (1,), (3,)])
        x = sx.translate((1,)) + LocalOperator.site_word(p2, (3,), 1, 1)
        expected = dense.hilbert_evolve(L, win, "clipped", [0.0, 0.5, 1.0], x)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the Hilbert-space oracle must not use this")

        monkeypatch.setattr(LocalOperator, "__mul__", forbidden)
        monkeypatch.setattr(Lindbladian, "windowed_apply", forbidden)
        for module in (kernel, lindblad, fock):
            monkeypatch.setattr(module, "WindowKernel", forbidden)
        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", forbidden)
        monkeypatch.setattr(fock, "expm_multiply", forbidden)
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        got = dense.hilbert_evolve(L, win, "clipped", [0.0, 0.5, 1.0], x)
        assert all(a.sup_diff(b) == 0.0 for a, b in zip(got, expected))

    def test_matches_evolve_on_five_sites(self, p2, rng):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        sz = LocalOperator.site_word(p2, (0,), 0, 1)
        L = Lindbladian.translation_covariant(
            KrausFamily((sx * sx.translate((1,)) * 0.5 + sz * 0.5, sz)))
        sites = [(i,) for i in range(5)]
        x = random_local(p2, rng, sites[1:4], include_identity=True)
        grid = [0.0, 0.5, 1.0]
        got = dense.hilbert_evolve(L, dense.window(p2, sites), "interior", grid, x)
        res = lindblad.evolve(L, x, grid, method="ode", tol=1e-12, window=sites,
                              closure_mode="interior")
        for a, b in zip(got, res.values):
            assert a.sup_diff(b) <= 1e-12

    def test_partial_closed_form(self, p2, partial_maxmix, pauli):
        sx = pauli[0]
        grid = np.linspace(0.0, 1.0, 5)
        got = dense.hilbert_evolve(partial_maxmix, dense.window(p2, [(0,), (1,)]), "interior",
                                   grid, sx)
        for t, val in zip(grid, got):
            assert val.sup_diff(sx * np.exp(-t)) < 1e-13

    def test_grid_at_zero_needs_no_solve(self, p2, partial_maxmix, rng, monkeypatch):
        win = dense.window(p2, [(0,), (1,)])
        x = random_local(p2, rng, win.sites, include_identity=True)
        monkeypatch.setattr(dense.scipy.integrate, "solve_ivp", None)
        got = dense.hilbert_evolve(partial_maxmix, win, "interior", [0.0, 0.0], x)
        assert len(got) == 2 and all(val.sup_diff(x) < 1e-15 for val in got)

    def test_rejects_bad_grid_and_window(self, p2, partial_maxmix, pauli):
        win = dense.window(p2, [(0,)])
        with pytest.raises(ValueError):
            dense.hilbert_evolve(partial_maxmix, win, "interior", [0.5, 0.2], pauli[0])
        with pytest.raises(ValueError):
            dense.hilbert_evolve(partial_maxmix, win, "interior", [-0.1], pauli[0])
        with pytest.raises(WindowError):
            dense.hilbert_evolve(partial_maxmix, win, "interior", [0.5],
                                 pauli[0].translate((1,)))


class TestChoi:
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_positive_semidefinite(self, p2, partial_maxmix, t):
        sop = dense.superoperator(partial_maxmix, dense.window(p2, [(0,), (1,)]))
        choi = dense.choi_matrix(sop, t)
        assert np.abs(choi - choi.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(choi).min() > -1e-9

    def test_translation_interior_window(self, p2, t=0.5):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx, unital=True)
        sop = dense.superoperator(L, dense.window(p2, [(0,), (1,)]), "interior")
        assert np.linalg.eigvalsh(dense.choi_matrix(sop, t)).min() > -1e-9


class TestStateKraus:
    def test_maximally_mixed(self):
        state = dense.StateSpec(np.eye(2) / 2)
        ops = dense.state_kraus(state)
        assert len(ops) == 4
        total = sum(K.conj().T @ SZ @ K for K in ops)
        assert np.abs(total).max() < 1e-12  # Tr(rho sz) = 0

    def test_pure_state(self):
        state = dense.StateSpec(np.diag([1.0, 0.0]))
        ops = dense.state_kraus(state)
        assert len(ops) == 2
        got = {tuple(np.flatnonzero(np.abs(K) > 1e-12)) for K in ops}
        x = np.array([[0.3, 0.4], [0.4, 0.7]], dtype=complex)
        total = sum(K.conj().T @ x @ K for K in ops)
        assert np.abs(total - x[0, 0] * np.eye(2)).max() < 1e-12

    def test_random_state_normalization(self, rng):
        for _ in range(5):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = A @ A.conj().T
            rho /= np.trace(rho).real
            ops = dense.state_kraus(dense.StateSpec(rho))
            total = sum(K.conj().T @ K for K in ops)
            assert np.abs(total - np.eye(3)).max() < 1e-12

    def test_state_validation(self):
        with pytest.raises(StateError):
            dense.StateSpec(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(StateError):
            dense.StateSpec(np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(StateError):
            dense.StateSpec(np.diag([0.9, 0.9]))  # trace != 1


class TestMatrixToLocal:
    def test_round_trip(self, p2, rng):
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        op = dense.matrix_to_local(p2, (0,), mat)
        back = dense.realize(op, dense.window(p2, [(0,)]))
        assert np.abs(back - mat).max() < 1e-12

    def test_n3(self, p3, rng):
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = dense.matrix_to_local(p3, (0,), mat)
        back = dense.realize(op, dense.window(p3, [(0,)]))
        assert np.abs(back - mat).max() < 1e-12
