"""Dense realization, the window action and its one evolution oracle,
Choi matrices, Kraus families.

The Weyl-basis matrix of ``dense.window_action`` is built here by the
``weyl_matrix`` fixture, and scipy's Pade ``expm`` of it is the
reference ``hilbert_evolve`` is checked against.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg
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

    @pytest.mark.parametrize("size", [3, 5])  # cached, and above STRING_MATRIX_CACHE_DIM
    def test_embedded_words(self, size):
        # Site 1 of ``size`` at N = 2: 1 (x) U^a V^b (x) 1, a fresh array each call.
        W = dense.embedded_words(2, 1, size)
        ref = [np.kron(np.kron(np.eye(2), dense.site_word(2, a, b)), np.eye(2 ** (size - 2)))
               for a, b in ((0, 1), (1, 0), (1, 1))]
        np.testing.assert_array_equal(W, ref)
        W[0, 0, 0] = 7.0
        assert dense.embedded_words(2, 1, size)[0, 0, 0] == ref[0][0, 0]


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

    @pytest.mark.parametrize("stack_bytes, svds", [(None, 3), (1024, 6)])
    def test_batched_norms_are_the_single_norms(self, p2, rng, monkeypatch, stack_bytes, svds):
        # Operators on 0 to 3 sites: one SVD call per realized dimension, or
        # more once a stack fills its bytes (at 1024: 16 matrices of 2 x 2,
        # 4 of 4 x 4, 1 of 8 x 8), and each norm bit for bit the one its
        # matrix alone gives.
        xs = [LocalOperator.zero(p2), LocalOperator.identity(p2) * (0.3 - 0.4j)]
        for sites in ([(0,)], [(2,)], [(0,), (1,)], [(1,), (3,)], [(0,), (1,), (2,)]) * 3:
            xs.append(random_local(p2, rng, sites))
        want = [0.0, 0.5] + [float(np.linalg.norm(dense.realize(x, dense.window(p2, x.support())),
                                                  2)) for x in xs[2:]]
        stacks = []
        norm = np.linalg.norm
        if stack_bytes:
            monkeypatch.setattr(dense, "NORM_STACK_BYTES", stack_bytes)
        monkeypatch.setattr(np.linalg, "norm",
                            lambda a, *r, **k: stacks.append(a.nbytes) or norm(a, *r, **k))
        got = dense.operator_norms(xs)
        assert got == want and len(stacks) == svds and max(stacks) <= dense.NORM_STACK_BYTES


def per_label_window_basis(params, sites):
    """The window basis built one label at a time: each index's digits by
    ``divmod``, each label's entries sorted (the construction before the
    per-site entry tuples)."""
    sites = tuple(tuple(int(c) for c in s) for s in sites)
    N = params.N
    labels = []
    for digits in itertools.product(range(N * N), repeat=len(sites)):
        entries = []
        for site, digit in zip(sites, digits):
            a, b = divmod(digit, N)
            if (a, b) != (0, 0):
                entries.append((site, (a, b)))
        labels.append(WeylLabel(tuple(sorted(entries))))
    return labels


class TestWindowBasis:
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("sites", [
        [(0,)], [(0,), (1,), (2,)], [(2,), (0,), (1,)], [(1,), (-1,)],
        [(0, 0), (0, 1), (1, 0)], [(1, 0), (0, 0), (0, 1)], [(0, 1), (-1, 0)],
    ], ids=["d1_one", "d1_sorted", "d1_unsorted", "d1_descending",
            "d2_sorted", "d2_unsorted", "d2_descending"])
    def test_is_the_per_label_construction(self, N, sites):
        # Digits follow the window as given, the first site most significant;
        # only each label's entries are sorted.
        params = AlgebraParams(N, len(sites[0]))
        got = dense.window_basis(params, sites)
        assert len(got) == N ** (2 * len(sites))
        assert got == per_label_window_basis(params, sites)

    def test_empty_window_is_the_identity(self, p2):
        assert dense.window_basis(p2, []) == [WeylLabel.identity()]


@pytest.fixture
def partial_maxmix(p2):
    return Lindbladian.partial_state(p2, dense.StateSpec(np.eye(2) / 2))


def pade_evolve(matrix, win, grid, x):
    """e^{t L} x by the Pade exponential of the Weyl-basis matrix, one operator per time."""
    basis = dense.window_basis(win.params, win.sites)
    vec = dense.coefficient_vector(x, {lab: i for i, lab in enumerate(basis)})
    return [LocalOperator(win.params, zip(basis, scipy.linalg.expm(t * matrix) @ vec))
            for t in grid]


class TestSuperoperator:
    """The window action, and its matrix in the Weyl basis."""

    def test_partial_eigenvalues(self, p2, partial_maxmix, weyl_matrix):
        matrix = weyl_matrix(partial_maxmix, dense.window(p2, [(0,)]), "interior")
        eigs = sorted(np.linalg.eigvals(matrix).real)
        assert np.abs(np.array(eigs) - np.array([-1, -1, -1, 0])).max() < 1e-12

    def test_annihilates_identity(self, p2, partial_maxmix):
        action = dense.window_action(partial_maxmix, dense.window(p2, [(0,), (1,)]), "interior")
        assert np.abs(action(np.eye(4))).max() < 1e-14

    def test_matches_symbolic_interior(self, p2, rng, weyl_matrix):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx, unital=True)
        win = dense.window(p2, [(-1,), (0,), (1,)])
        matrix = weyl_matrix(L, win, "interior")
        index = {lab: i for i, lab in enumerate(dense.window_basis(p2, win.sites))}
        for _ in range(10):
            x = random_local(p2, rng, win.sites)
            image = matrix @ dense.coefficient_vector(x, index)
            sym = L.windowed_apply(x, win.sites, "interior")
            assert np.abs(image - dense.coefficient_vector(sym, index)).max() < 1e-12

    def test_acts_on_each_matrix_of_a_stack(self, p3, rng):
        op = random_local(p3, rng, [(0,), (1,)], n_terms=3)
        L = Lindbladian.single_kraus(op * (1.0 / op.l1()))
        action = dense.window_action(L, dense.window(p3, [(0,), (2,)]), "clipped")
        stack = rng.normal(size=(2, 3, 9, 9)) + 1j * rng.normal(size=(2, 3, 9, 9))
        images = action(stack)
        assert images.shape == stack.shape
        for k in np.ndindex(2, 3):
            assert np.abs(images[k] - action(stack[k])).max() < 1e-13

    @pytest.mark.parametrize("closure", ["interior", "clipped"])
    def test_bound_covers_the_action(self, p3, rng, closure):
        # beta = sum_m ||m||^2 + ||K|| from the realized members, and
        # ||action(X)|| <= beta ||X|| on random matrices.
        op = random_local(p3, rng, [(0,), (1,)], n_terms=3)
        L = Lindbladian.single_kraus(op * (1.0 / op.l1()))
        win = dense.window(p3, [(0,), (1,)])
        action = dense.window_action(L, win, closure)
        M = np.array([dense.realize(m, win) for m in L.window_members(win.sites, closure)])
        K = sum(m.conj().T @ m for m in M)
        want = sum(np.linalg.norm(m, 2) ** 2 for m in M) + np.linalg.norm(K, 2)
        assert abs(action.bound - want) <= 1e-12 * want
        for _ in range(20):
            X = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            assert np.linalg.norm(action(X), 2) <= action.bound * np.linalg.norm(X, 2)

    def test_built_without_symbolic_arithmetic(self, p2, monkeypatch):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        r = sx * sx.translate((1,)) + LocalOperator.site_word(p2, (0,), 0, 1, 0.5)
        L = Lindbladian.single_kraus(r)
        win = dense.window(p2, [(0,), (1,), (3,)])
        expected = dense.choi_matrix(L, win, "clipped", 0.5)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the oracle must not use symbolic products")

        monkeypatch.setattr(LocalOperator, "__mul__", forbidden)
        monkeypatch.setattr(Lindbladian, "windowed_apply", forbidden)
        got = dense.choi_matrix(L, win, "clipped", 0.5)
        assert np.array_equal(got, expected)

    def test_dim_guard(self, p2, partial_maxmix, monkeypatch):
        # 5 sites: D^4 = 4^10 Choi entries, above dense.MAX_PAIR_DIM; 4 sites fit.
        assert 4**8 <= dense.MAX_PAIR_DIM < 4**10

        def forbidden(*_args, **_kwargs):
            raise AssertionError("realized past the guard")

        monkeypatch.setattr(dense, "window_action", forbidden)
        big = dense.window(p2, [(i,) for i in range(5)])
        with pytest.raises(SizeGuardError, match="Choi"):
            dense.choi_matrix(partial_maxmix, big, "interior", 0.5)


class TestExpmEvolve:
    """``hilbert_evolve`` against e^{t L} by the Pade exponential of the Weyl-basis matrix."""

    def test_time_zero(self, p2, partial_maxmix, rng, weyl_matrix, hilbert_operators):
        win = dense.window(p2, [(0,), (1,)])
        x = random_local(p2, rng, win.sites, include_identity=True)
        ref, = pade_evolve(weyl_matrix(partial_maxmix, win, "interior"), win, [0.0], x)
        got, = hilbert_operators(partial_maxmix, win, "interior", [0.0], x)
        assert ref.sup_diff(x) < 1e-14 and got.sup_diff(x) < 1e-14

    def test_partial_closed_form(self, p2, partial_maxmix, pauli, weyl_matrix,
                                 hilbert_operators):
        sx = pauli[0]
        win = dense.window(p2, [(0,)])
        ref, = pade_evolve(weyl_matrix(partial_maxmix, win, "interior"), win, [0.7], sx)
        got, = hilbert_operators(partial_maxmix, win, "interior", [0.7], sx)
        assert ref.sup_diff(sx * np.exp(-0.7)) < 1e-13 and got.sup_diff(ref) < 1e-13

    def test_semigroup_law(self, p2, partial_maxmix, rng, hilbert_operators):
        win = dense.window(p2, [(0,), (1,)])
        x = random_local(p2, rng, win.sites)
        once, = hilbert_operators(partial_maxmix, win, "interior", [0.9], x)
        half, = hilbert_operators(partial_maxmix, win, "interior", [0.4], x)
        twice, = hilbert_operators(partial_maxmix, win, "interior", [0.5], half)
        assert once.sup_diff(twice) < 1e-10

    def test_grid_matches_pointwise(self, p2, rng, weyl_matrix, hilbert_operators):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx * sx.translate((1,)) + sx * 0.5)
        win = dense.window(p2, [(0,), (1,), (2,)])
        x = random_local(p2, rng, win.sites)
        grid = [0.0, 0.3, 0.7, 1.1, 1.5]
        stepped = hilbert_operators(L, win, "clipped", grid, x)
        assert len(stepped) == len(grid)
        pointwise = pade_evolve(weyl_matrix(L, win, "clipped"), win, grid, x)
        for got, ref in zip(stepped, pointwise):
            assert got.sup_diff(ref) < 1e-11


@st.composite
def oracle_cases(draw):
    """(Lindbladian, window, closure mode, observable) for the oracle cross-check.

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
    def test_matches_pade_oracle(self, grid, weyl_matrix, hilbert_operators, case):
        L, win, closure, x = case
        got = hilbert_operators(L, win, closure, grid, x)
        ref = pade_evolve(weyl_matrix(L, win, closure), win, grid, x)
        assert len(got) == len(grid)
        for a, b in zip(got, ref):
            assert a.sup_diff(b) <= 1e-11

    def test_built_without_kernel_or_exponential(self, p2, monkeypatch, hilbert_operators):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        r = sx * sx.translate((1,)) + LocalOperator.site_word(p2, (0,), 0, 1, 0.5)
        L = Lindbladian.single_kraus(r)
        win = dense.window(p2, [(0,), (1,), (3,)])
        x = sx.translate((1,)) + LocalOperator.site_word(p2, (3,), 1, 1)
        expected = hilbert_operators(L, win, "clipped", [0.0, 0.5, 1.0], x)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the Hilbert-space oracle must not use this")

        monkeypatch.setattr(LocalOperator, "__mul__", forbidden)
        monkeypatch.setattr(Lindbladian, "windowed_apply", forbidden)
        for module in (kernel, lindblad, fock):
            monkeypatch.setattr(module, "WindowKernel", forbidden)
        monkeypatch.setattr(lindblad, "expm_multiply", forbidden)
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        got = hilbert_operators(L, win, "clipped", [0.0, 0.5, 1.0], x)
        assert all(a.sup_diff(b) == 0.0 for a, b in zip(got, expected))

    def test_matches_evolve_on_five_sites(self, p2, rng, hilbert_operators):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        sz = LocalOperator.site_word(p2, (0,), 0, 1)
        L = Lindbladian.translation_covariant(
            KrausFamily((sx * sx.translate((1,)) * 0.5 + sz * 0.5, sz)))
        sites = [(i,) for i in range(5)]
        x = random_local(p2, rng, sites[1:4], include_identity=True)
        grid = [0.0, 0.5, 1.0]
        got = hilbert_operators(L, dense.window(p2, sites), "interior", grid, x)
        res = lindblad.evolve(L, x, grid, tol=1e-12, window=sites,
                              closure_mode="interior")
        for a, b in zip(got, res.values):
            assert a.sup_diff(b) <= 1e-12

    def test_partial_closed_form(self, p2, partial_maxmix, pauli, hilbert_operators):
        sx = pauli[0]
        grid = np.linspace(0.0, 1.0, 5)
        got = hilbert_operators(partial_maxmix, dense.window(p2, [(0,), (1,)]), "interior",
                                grid, sx)
        for t, val in zip(grid, got):
            assert val.sup_diff(sx * np.exp(-t)) < 1e-13

    def test_grid_at_zero_needs_no_solve(self, p2, partial_maxmix, rng, monkeypatch,
                                         hilbert_operators):
        win = dense.window(p2, [(0,), (1,)])
        x = random_local(p2, rng, win.sites, include_identity=True)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a grid at 0 needs no generator and no step")

        monkeypatch.setattr(dense, "window_action", forbidden)
        monkeypatch.setattr(dense, "_taylor_propagate", forbidden)
        got = hilbert_operators(partial_maxmix, win, "interior", [0.0, 0.0], x)
        assert len(got) == 2 and all(val.sup_diff(x) < 1e-15 for val in got)

    @staticmethod
    def long_interval_case(p2, rng):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx * sx.translate((1,)) + sx * 0.5)
        win = dense.window(p2, [(0,), (1,), (2,)])
        return L, win, random_local(p2, rng, win.sites, include_identity=True)

    @staticmethod
    def count_actions(monkeypatch):
        """Patch ``dense.window_action``; the returned list gets, per action,
        the number of window matrices it acts on."""
        actions = []
        window_action = dense.window_action

        def counted(*args):
            action = window_action(*args)

            def count(X):
                actions.append(X.size // X.shape[-1] ** 2)
                return action(X)

            count.bound = action.bound
            return count

        monkeypatch.setattr(dense, "window_action", counted)
        return actions

    @pytest.mark.parametrize("t", [10.0, 40.0])
    def test_one_long_interval_matches_pade(self, p2, rng, weyl_matrix, hilbert_operators, t):
        # One grid interval of many norm bounds: the substeps keep the
        # series' terms small, so the result stays at roundoff.
        L, win, x = self.long_interval_case(p2, rng)
        got = hilbert_operators(L, win, "clipped", [0.0, t], x)
        ref = pade_evolve(weyl_matrix(L, win, "clipped"), win, [0.0, t], x)
        assert max(a.sup_diff(b) for a, b in zip(got, ref)) <= 1e-11

    @pytest.mark.parametrize("t", [10.0, 40.0])
    def test_an_uncapped_single_substep_fails_a_long_interval(self, p2, rng, weyl_matrix,
                                                              hilbert_operators,
                                                              monkeypatch, t):
        # Without the cap on a substep's scale the plan takes one substep
        # of high degree, whose terms grow to about e^(t beta) before they
        # cancel: every digit is lost.
        L, win, x = self.long_interval_case(p2, rng)
        monkeypatch.setattr(dense, "TAYLOR_THETA_MAX", np.inf)
        assert dense._taylor_plan(t * dense.window_action(L, win, "clipped").bound)[0] == 1
        got = hilbert_operators(L, win, "clipped", [t], x)[0]
        ref = pade_evolve(weyl_matrix(L, win, "clipped"), win, [t], x)[0]
        assert got.sup_diff(ref) > 1e-11

    @pytest.mark.parametrize("fine", [False, True], ids=["config_grid", "fine_grid"])
    @pytest.mark.parametrize("job", ["evolve_n2_w5", "evolve_n3_w3"])
    def test_fewer_actions_than_an_explicit_runge_kutta_pair(self, bench_config, monkeypatch,
                                                             job, fine):
        # On the evolve_window benchmark configs, on their own grid and on
        # 101 points, the oracle acts at most half as often as DOP853 at
        # rtol 1e-13, atol 1e-15 on the same action (its dense output too).
        import scipy.integrate

        cfg = bench_config("evolve_window", job)
        x = cfg.observables["x"]
        win = dense.window(cfg.params, cfg.window)
        grid = np.linspace(0.0, cfg.t_grid[-1], 101) if fine else cfg.t_grid
        D, times = win.dim, np.unique(grid)
        action = dense.window_action(cfg.generator, win, cfg.closure)
        actions = self.count_actions(monkeypatch)
        dense.hilbert_evolve(cfg.generator, win, cfg.closure, grid, x)
        sol = scipy.integrate.solve_ivp(lambda _t, y: action(y.reshape(D, D)).reshape(-1),
                                        (0.0, times[-1]), dense.realize(x, win).reshape(-1),
                                        method="DOP853", t_eval=times, rtol=1e-13, atol=1e-15)
        assert sol.status == 0
        assert 0 < sum(actions) <= sol.nfev / 2

    def test_grid_times_cost_no_actions(self, p2, rng, weyl_matrix, hilbert_operators,
                                        monkeypatch):
        # Grid times inside a substep are read off its Taylor polynomial:
        # 2 or 401 grid times to t = 10 take the same actions, and each
        # stays within 1e-11 of the Pade reference.
        L, win, x = self.long_interval_case(p2, rng)
        actions = self.count_actions(monkeypatch)
        dense.hilbert_evolve(L, win, "clipped", [0.0, 10.0], x)
        coarse = sum(actions)
        grid = np.sort(np.append(np.linspace(0.0, 10.0, 400), np.pi))
        got = hilbert_operators(L, win, "clipped", grid, x)
        assert sum(actions) == 2 * coarse
        ref = pade_evolve(weyl_matrix(L, win, "clipped"), win, grid, x)
        assert max(a.sup_diff(b) for a, b in zip(got, ref)) <= 1e-11

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
        choi = dense.choi_matrix(partial_maxmix, dense.window(p2, [(0,), (1,)]), "interior", t)
        assert np.abs(choi - choi.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(choi).min() > -1e-9

    def test_translation_interior_window(self, p2, t=0.5):
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx, unital=True)
        choi = dense.choi_matrix(L, dense.window(p2, [(0,), (1,)]), "interior", t)
        assert np.linalg.eigvalsh(choi).min() > -1e-9

    def test_matches_evolved_matrix_units(self, p2, weyl_matrix):
        # sum_ij e^{tL}(E_ij) (x) E_ij, each E_ij evolved by the Pade
        # reference in the Weyl basis and realized again.
        # A complex, non-normal member: no symmetry hides swapped Choi factors.
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx * sx.translate((1,)) * (0.6 + 0.3j)
                                     + LocalOperator.site_word(p2, (1,), 1, 1, 0.5))
        win = dense.window(p2, [(0,), (1,)])
        basis = dense.window_basis(p2, win.sites)
        propagator = scipy.linalg.expm(0.3 * weyl_matrix(L, win, "clipped"))
        want = np.zeros((16, 16), dtype=complex)
        for i, j in np.ndindex(4, 4):
            unit = np.zeros((4, 4), dtype=complex)
            unit[i, j] = 1.0
            coeffs = propagator @ dense._weyl_coefficients(unit[None], 2, 2)[0]
            want += np.kron(dense.realize(LocalOperator(p2, zip(basis, coeffs)), win), unit)
        assert np.abs(dense.choi_matrix(L, win, "clipped", 0.3) - want).max() < 1e-12

    def test_steps_without_a_dense_exponential(self, p2, monkeypatch):
        # The matrix units are stepped by the oracle's Taylor propagator:
        # scipy's Pade exponential is not called, and the result is the
        # Pade exponential of the action's matrix to roundoff.
        sx = LocalOperator.site_word(p2, (0,), 1, 0)
        L = Lindbladian.single_kraus(sx * sx.translate((1,)) * (0.6 + 0.3j)
                                     + LocalOperator.site_word(p2, (1,), 1, 1, 0.5))
        win = dense.window(p2, [(0,), (1,), (2,)])
        units = np.eye(64, dtype=complex).reshape(64, 8, 8)
        generator = dense.window_action(L, win, "clipped")(units).reshape(64, 64)
        want = scipy.linalg.expm(1.5 * generator).reshape(8, 8, 8, 8).transpose(
            2, 0, 3, 1).reshape(64, 64)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the Choi matrix must not take a dense exponential")

        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        got = dense.choi_matrix(L, win, "clipped", 1.5)
        assert np.abs(got - want).max() < 1e-14

    def test_time_zero_is_the_identity_channel(self, p2, partial_maxmix, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("t = 0 needs no generator and no step")

        monkeypatch.setattr(dense, "window_action", forbidden)
        monkeypatch.setattr(dense, "_taylor_propagate", forbidden)
        choi = dense.choi_matrix(partial_maxmix, dense.window(p2, [(0,), (1,)]), "interior", 0.0)
        units = np.eye(16).reshape(16, 4, 4)
        assert np.array_equal(choi, sum(np.kron(unit, unit) for unit in units))

    @pytest.mark.parametrize("t", [-0.1, -1e-300, np.inf, np.nan])
    def test_rejects_a_negative_or_non_finite_time(self, p2, partial_maxmix, monkeypatch, t):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("realized before the time was checked")

        monkeypatch.setattr(dense, "window_action", forbidden)
        monkeypatch.setattr(dense, "realize", forbidden)
        with pytest.raises(ValueError, match="finite, nonnegative"):
            dense.choi_matrix(partial_maxmix, dense.window(p2, [(0,)]), "interior", t)


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
