"""Weyl kernel window matrices against per-label symbolic references.

The references below apply the symbolic generator (``windowed_apply``,
``Lindbladian.apply``) or the structure maps to one basis label at a
time, as the assemblers did before the kernel; the Weyl-basis matrix of
the dense oracle's ``window_action`` (the ``weyl_matrix`` fixture) is
compared with both.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uhfflow.dense as dense
import uhfflow.fock as fock
import uhfflow.lindblad as lb
from uhfflow.algebra import AlgebraParams, LocalOperator, WeylLabel, random_local, weyl_mul
from uhfflow.errors import SizeGuardError, WindowError
from uhfflow.kernel import WindowKernel

from conftest import to_scipy

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)
MAX_BASIS = 81  # per-label references cost about 1 ms per label


@st.composite
def windowed_generators(draw):
    """(Lindbladian, window sites, closure mode) with a random Kraus family.

    Windows are distinct sites drawn from a box, so they are often not
    contiguous and not in lattice order; members have one to three terms
    on the origin and a neighbour, sometimes with an identity term.
    """
    N = draw(st.sampled_from([2, 3, 4]))
    d = draw(st.sampled_from([1, 2]))
    params = AlgebraParams(N, d)
    max_sites = max(n for n in range(1, 5) if N ** (2 * n) <= MAX_BASIS)
    n_sites = draw(st.sampled_from(range(max_sites, 0, -1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = [tuple(int(c) - 2 for c in s) for s in np.ndindex(*(5,) * d)]
    sites = [box[i] for i in rng.choice(len(box), size=n_sites, replace=False)]
    origin = (0,) * d
    axis = draw(st.integers(0, d - 1))
    neighbour = tuple(int(c == axis) for c in range(d))
    ops = []
    for _ in range(draw(st.integers(1, 2))):
        op = random_local(params, rng, [origin, neighbour], n_terms=draw(st.integers(1, 3)),
                          include_identity=draw(st.booleans()))
        ops.append(op * (1.0 / op.l1()))
    L = lb.Lindbladian.translation_covariant(lb.KrausFamily(tuple(ops)))
    return L, tuple(sites), draw(st.sampled_from(["interior", "clipped"]))


def _case(N, text, sites, closure_mode):
    L = lb.Lindbladian.single_kraus(LocalOperator.from_text(AlgebraParams(N, 1), text))
    return L, tuple(sites), closure_mode


def with_fixed_windows(test):
    """Also run ``test`` on 1-D windows with gaps and out of lattice order."""
    for case in (
        _case(2, "0.5 0.2 ; 0:1,0 1:1,0\n-0.1 0.2 ; 0:0,1", [(2,), (-1,), (0,)], "clipped"),
        _case(2, "0.5 0.2 ; 0:1,0 1:1,0\n-0.1 0.2 ; 0:0,1", [(0,), (1,), (3,)], "interior"),
        _case(3, "0.4 -0.2 ; 0:1,0 1:2,0\n0.3 0.1 ; 1:2,1", [(0,), (2,)], "clipped"),
        _case(3, "0.4 -0.2 ; 0:1,0 1:2,0\n0.3 0.1 ; 1:2,1", [(3,), (2,)], "interior"),
    ):
        test = example(case)(test)
    return test


def reference_generator(L, sites, closure_mode):
    basis = dense.window_basis(L.params, sites)
    index = {lab: i for i, lab in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, lab in enumerate(basis):
        image = L.windowed_apply(LocalOperator.weyl(L.params, lab), sites, closure_mode)
        for out, c in image.items():
            mat[index[out], col] = c
    return mat


def map_to_matrix(params, basis, index, allowed, fn):
    """Per-label matrix and leak of ``fn``, as fock assembled them before the kernel."""
    dim = len(basis)
    rows, cols, vals = [], [], []
    leak = np.zeros(dim)
    for col, lab in enumerate(basis):
        for out, c in fn(LocalOperator.weyl(params, lab)).items():
            if set(out.support) <= allowed:
                rows.append(index[out])
                cols.append(col)
                vals.append(c)
            else:
                leak[col] += abs(c)
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    return mat, leak


class TestKernelBasis:
    @pytest.mark.parametrize("N,sites", [
        (2, [(0,), (1,), (2,)]),
        (3, [(2,), (0,)]),
        (2, [(0, 1), (3, -1)]),
    ])
    def test_digits_follow_window_basis(self, N, sites):
        params = AlgebraParams(N, len(sites[0]))
        kern = WindowKernel(params, sites)
        basis = dense.window_basis(params, sites)
        assert kern.dim == len(basis)
        for i, lab in enumerate(basis):
            a, b, outside = kern.split(lab)
            assert outside.is_identity()
            assert (a == kern.a[i]).all() and (b == kern.b[i]).all()

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("sites", [[(1,), (-1,)], [(0, 1), (2, 0)]])
    def test_basis_and_index_are_the_window_basis(self, N, sites):
        params = AlgebraParams(N, len(sites[0]))
        kern = WindowKernel(params, sites)
        assert kern.basis == dense.window_basis(params, sites)
        assert len(kern.index) == kern.dim == len(kern.basis)
        assert all(kern.basis[kern.index[lab]] == lab for lab in kern.basis)

    def test_products_follow_weyl_mul(self, p3):
        sites = [(0,), (2,)]
        kern = WindowKernel(p3, sites)
        basis = dense.window_basis(p3, sites)
        i, k = np.divmod(np.arange(kern.dim ** 2), kern.dim)
        phase, rows = (arr.reshape(kern.dim, kern.dim) for arr in kern.products(i, k))
        for i, g in enumerate(basis):
            for k, h in enumerate(basis):
                ph, lab = weyl_mul(p3, g, h)
                assert phase[i, k] == ph and basis[rows[i, k]] == lab


class TestWindowSites:
    """Every window path checks its sites through the kernel."""

    @pytest.mark.parametrize("sites", [[(0,), (1,), (0,)], [(0,), (1, 0)]])
    def test_bad_window_raises(self, p2, sites):
        L = lb.Lindbladian.single_kraus(LocalOperator.site_word(p2, (0,), 1, 0))
        x = LocalOperator.site_word(p2, (1,), 0, 1)
        with pytest.raises(WindowError):
            lb.generator_matrix(L, sites)
        with pytest.raises(WindowError):
            lb.evolve(L, x, [0.0, 0.5], window=sites)
        with pytest.raises(WindowError):
            fock.build_generator_system(L, sites)

    def test_noise_modes_of_a_multi_member_family(self, p2):
        # Members sx_0 sz_2 + 0.3 sz_1, sz_0 and sx_1 on the window 0..3:
        # a translate k keeps a member when the member's own support,
        # shifted by k, meets the window.
        def word(site, a, b):
            return LocalOperator.site_word(p2, (site,), a, b)

        ops = (word(0, 1, 0) * word(2, 0, 1) + word(1, 0, 1) * 0.3, word(0, 0, 1),
               word(1, 1, 0))
        L = lb.Lindbladian.translation_covariant(lb.KrausFamily(ops))
        sys_ = fock.build_generator_system(L, [(0,), (1,), (2,), (3,)])
        assert sys_.noise == [
            ((-2,), 0),
            ((-1,), 0), ((-1,), 2),
            ((0,), 0), ((0,), 1), ((0,), 2),
            ((1,), 0), ((1,), 1), ((1,), 2),
            ((2,), 0), ((2,), 1), ((2,), 2),
            ((3,), 0), ((3,), 1),
        ]


# Every window path, given 8 sites at N = 2 (4^8 strings, above
# dense.MAX_WINDOW_DIM) directly or as the default window of x's support.
WIDE = [(k,) for k in range(8)]
BIASED = dense.StateSpec(np.diag([0.7, 0.3]))
ZERO = fock.TestFunction.zero()
WINDOW_PATHS = {
    "WindowKernel": lambda L, x: WindowKernel(x.params, WIDE),
    "generator_matrix": lambda L, x: lb.generator_matrix(L, WIDE),
    "evolve": lambda L, x: lb.evolve(L, x, [0.0, 0.5]),
    "build_generator_system": lambda L, x: fock.build_generator_system(L, WIDE),
    "eta_ergodicity_scan": lambda L, x: fock.eta_ergodicity_scan(BIASED, x, x, ZERO, x, ZERO,
                                                                 [0.0, 0.5]),
    "perturbed_ergodic_state": lambda L, x: lb.perturbed_ergodic_state(
        lb.Lindbladian.perturbed(BIASED, L.kraus, 0.1), x),
}


class TestSizePolicy:
    """``WindowKernel`` is the one window-size check; pair objects meet ``MAX_PAIR_DIM``."""

    @staticmethod
    def _forbid(monkeypatch, module, name):
        def forbidden(*_args, **_kwargs):
            raise AssertionError(f"{name} called past the guard")

        monkeypatch.setattr(module, name, forbidden)

    @pytest.mark.parametrize("path", WINDOW_PATHS)
    def test_every_window_path_refuses_before_its_basis(self, p2, monkeypatch, path):
        L = lb.Lindbladian.single_kraus(LocalOperator.site_word(p2, (0,), 1, 0))
        x = LocalOperator.identity(p2)
        for site in WIDE:
            x = x * LocalOperator.site_word(p2, site, 1, 1)
        self._forbid(monkeypatch, dense, "window_basis")
        with pytest.raises(SizeGuardError):
            WINDOW_PATHS[path](L, x)

    def test_seven_sites_are_admitted(self, p2):
        assert WindowKernel(p2, WIDE[:7]).dim == dense.MAX_WINDOW_DIM

    def test_pair_system_is_bounded(self, p2, monkeypatch):
        # 5 sites: n^2 = 4^10 pair entries, above dense.MAX_PAIR_DIM.
        L = lb.Lindbladian.single_kraus(LocalOperator.site_word(p2, (0,), 1, 0))
        sys_ = fock.build_generator_system(L, WIDE[:5])
        one = LocalOperator.identity(p2)
        self._forbid(monkeypatch, fock, "_initial_pair_vector")
        with pytest.raises(SizeGuardError, match="pair"):
            fock.pair_element(sys_, one, ZERO, one, ZERO, [0.0])


class TestEvolveWindowShapes:
    """The two benchmark window shapes, against the per-label reference.

    Every seventh column and the identity column are checked, to keep the
    reference affordable at 729 labels.
    """

    @pytest.mark.parametrize("N,sites,kraus,closure", [
        (2, [(0,), (1,), (2,), (3,), (4,)], ["0:1,0 1:1,0", "0:0,1"], "interior"),
        (3, [(0,), (1,), (2,)], ["0:1,0 1:2,0", "0:0,1 1:0,2", "0:1,1", "1:2,1"], "clipped"),
    ])
    def test_pattern_and_identity_column(self, N, sites, kraus, closure, rng):
        params = AlgebraParams(N, 1)
        coeffs = rng.normal(size=len(kraus)) + 1j * rng.normal(size=len(kraus))
        coeffs /= np.abs(coeffs).sum()  # unit l1, as the benchmark draws them
        text = "\n".join(f"{c.real:.17g} {c.imag:.17g} ; {lab}" for c, lab in zip(coeffs, kraus))
        L = lb.Lindbladian.single_kraus(LocalOperator.from_text(params, text))
        mat, basis, index, _edge = lb.generator_matrix(L, sites, closure)
        mat = to_scipy(mat)
        dense_mat = mat.toarray()
        assert mat[:, index[WeylLabel.identity()]].nnz == 0
        for col in range(0, len(basis), 7):
            ref = np.zeros(len(basis), dtype=complex)
            image = L.windowed_apply(LocalOperator.weyl(params, basis[col]), sites, closure)
            for out, c in image.items():
                ref[index[out]] = c
            assert ((dense_mat[:, col] != 0) == (ref != 0)).all()
            assert np.abs(dense_mat[:, col] - ref).max() <= 1e-14


class TestKernelProperties:
    @PROPERTY
    @given(windowed_generators())
    @with_fixed_windows
    def test_generator_matrix_matches_windowed_apply(self, case):
        L, sites, closure = case
        mat, basis, index, _edge = lb.generator_matrix(L, sites, closure)
        mat = to_scipy(mat)
        ref = reference_generator(L, sites, closure)
        assert np.abs(mat.toarray() - ref).max() <= 1e-14
        assert ((mat.toarray() != 0) == (ref != 0)).all()
        assert mat[:, index[WeylLabel.identity()]].nnz == 0

    @PROPERTY
    @given(windowed_generators())
    @with_fixed_windows
    def test_flow_maps_match_per_label_maps(self, case):
        L, sites, _closure = case
        sys_ = fock.build_generator_system(L, sites)
        allowed = set(sys_.sites)
        members = L.base_members()
        leaks = {}
        for key in sys_.noise:
            k, member_id = key
            m = members[member_id].translate(k)
            md = m.adjoint()
            for tag, fn, got in (("d", lambda y: y * m - m * y, sys_.delta_t[key]),
                                 ("dd", lambda y: md * y - y * md, sys_.delta_dag_t[key])):
                mat, leaks[(tag, key)] = map_to_matrix(L.params, sys_.basis, sys_.index,
                                                       allowed, fn)
                assert np.abs((mat.T - to_scipy(got)).toarray()).max() <= 1e-14
        mat, leaks["lhat"] = map_to_matrix(L.params, sys_.basis, sys_.index, allowed, L.apply)
        assert np.abs((mat.T - to_scipy(sys_.lhat_t)).toarray()).max() <= 1e-14
        assert leaks.keys() == sys_.leak.keys()
        for key, leak in leaks.items():
            assert np.abs(leak - sys_.leak[key]).max() <= 1e-14
        # Each map leaks exactly where its per-label map does.
        assert {key: leak.any() for key, leak in leaks.items()} == {
            key: leak.any() for key, leak in sys_.leak.items()}

    @PROPERTY
    @given(windowed_generators())
    @with_fixed_windows
    def test_dense_oracle_matches_kernel_and_reference(self, weyl_matrix, case):
        L, sites, closure = case
        oracle = weyl_matrix(L, dense.window(L.params, sites), closure)
        mat, basis, _index, _edge = lb.generator_matrix(L, sites, closure)
        assert basis == dense.window_basis(L.params, sites)
        assert np.abs(oracle - to_scipy(mat).toarray()).max() <= 1e-12
        assert np.abs(oracle - reference_generator(L, sites, closure)).max() <= 1e-12

    @PROPERTY
    @given(windowed_generators())
    @with_fixed_windows
    def test_edge_rates_are_the_dropped_l1_mass(self, case):
        L, sites, closure = case
        _mat, basis, _index, edge = lb.generator_matrix(L, sites, closure)
        for i, lab in enumerate(basis):
            u = LocalOperator.weyl(L.params, lab)
            dropped = (L.apply(u) - L.windowed_apply(u, sites, closure)).l1()
            assert abs(edge[i] - dropped) <= 1e-12


class TestPairInitialVector:
    @pytest.mark.parametrize("N,sites", [(2, [(0,), (1,)]), (3, [(0,), (2,)]), (4, [(1,)])])
    def test_equals_loop_exactly(self, N, sites, rng):
        params = AlgebraParams(N, 1)
        L = lb.Lindbladian.single_kraus(LocalOperator.site_word(params, (0,), 1, 0))
        sys_ = fock.build_generator_system(L, sites)
        F0 = rng.normal(size=sys_.dim) + 1j * rng.normal(size=sys_.dim)
        loop = np.empty(sys_.dim ** 2, dtype=complex)
        for ia, la in enumerate(sys_.basis):
            for ib, lb_ in enumerate(sys_.basis):
                phase, lab = weyl_mul(params, la, lb_)
                loop[ia * sys_.dim + ib] = params.root(phase) * F0[sys_.index[lab]]
        assert np.array_equal(fock._initial_pair_vector(sys_, F0, np.arange(sys_.dim ** 2)), loop)
