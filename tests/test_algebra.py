"""String-algebra layer: product law, adjoints, trace, seminorms.

Derived expectations are frozen against a self-contained matrix oracle
built inline from clock and shift matrices, independent of uhfflow.dense.
"""

import copy
import itertools
import math
import pickle

import numpy as np
import pytest

import uhfflow.algebra as algebra
import uhfflow.dense as dense
import uhfflow.lindblad as lb
from uhfflow.kernel import WindowKernel
from uhfflow.algebra import (
    COEFF_TOL,
    AlgebraParams,
    LocalOperator,
    WeylLabel,
    c_const,
    commutator,
    gns_inner,
    gns_norm,
    random_label,
    random_local,
    seminorm_one,
    theta,
    weyl_mul,
)
from uhfflow.errors import ParamsMismatchError


def ref_word(N, a, b):
    """Independent clock/shift word: raising shift, diag(omega^-j)."""
    U = np.zeros((N, N), dtype=complex)
    for i in range(N):
        U[(i + 1) % N, i] = 1.0
    V = np.diag(np.exp(2j * np.pi / N) ** (-np.arange(N)))
    return np.linalg.matrix_power(U, a) @ np.linalg.matrix_power(V, b)


def ref_realize(x, sites):
    """Inline Kronecker oracle over an ordered site list."""
    N = x.params.N
    dim = N ** len(sites)
    out = np.zeros((dim, dim), dtype=complex)
    for lab, c in x.items():
        acc = np.eye(1, dtype=complex)
        for s in sites:
            a, b = lab.exponents(s)
            acc = np.kron(acc, ref_word(N, a, b))
        out += c * acc
    return out


class TestParams:
    def test_invalid(self):
        with pytest.raises(ValueError):
            AlgebraParams(1, 1)
        with pytest.raises(ValueError):
            AlgebraParams(2, 0)

    def test_primitive_root(self):
        for N in (2, 3, 4, 5):
            p = AlgebraParams(N, 1)
            assert abs(p.omega**N - 1) < 1e-14
            for k in range(1, N):
                assert abs(p.root(k) - 1) > 1e-2

    def test_immutable(self, p2):
        with pytest.raises(Exception):
            p2.N = 3


class TestWeylMul:
    def test_sx_then_sz_no_phase(self, p2):
        g = WeylLabel.single((0,), 1, 0, 2, 1)
        h = WeylLabel.single((0,), 0, 1, 2, 1)
        phase, label = weyl_mul(p2, g, h)
        assert phase == 0
        assert label.entries == (((0,), (1, 1)),)

    def test_sz_then_sx_picks_minus(self, p2):
        g = WeylLabel.single((0,), 0, 1, 2, 1)
        h = WeylLabel.single((0,), 1, 0, 2, 1)
        phase, label = weyl_mul(p2, g, h)
        assert phase == 1
        assert label.entries == (((0,), (1, 1)),)

    def test_identity_neutral(self, p2, rng):
        g = random_label(p2, rng, [(0,), (1,)])
        phase, label = weyl_mul(p2, g, WeylLabel.identity())
        assert phase == 0 and label == g

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_against_matrix_oracle_single_site(self, N):
        p = AlgebraParams(N, 1)
        site = (0,)
        for a1, b1, a2, b2 in itertools.product(range(N), repeat=4):
            g = WeylLabel.from_entries([(site, (a1, b1))], N, 1)
            h = WeylLabel.from_entries([(site, (a2, b2))], N, 1)
            phase, label = weyl_mul(p, g, h)
            a, b = label.exponents(site)
            lhs = ref_word(N, a1, b1) @ ref_word(N, a2, b2)
            rhs = p.root(phase) * ref_word(N, a, b)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestProducts:
    def test_sx_squared_is_identity(self, pauli):
        sx, _, _, one = pauli
        assert (sx * sx).sup_diff(one) == 0.0

    def test_word_squared_is_minus_one(self, pauli):
        sx, sz, sxz, one = pauli
        assert ((sx * sz) * (sx * sz) + one).is_zero(1e-15)

    def test_identity_neutral(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)], include_identity=True)
        assert (x * LocalOperator.identity(p2)).sup_diff(x) == 0.0

    def test_associative_distributive(self, p2, rng):
        sites = [(0,), (1,), (2,)]
        for _ in range(25):
            x = random_local(p2, rng, sites)
            y = random_local(p2, rng, sites)
            z = random_local(p2, rng, sites)
            assert ((x * y) * z).sup_diff(x * (y * z)) < 1e-12
            assert (x * (y + z)).sup_diff(x * y + x * z) < 1e-12

    def test_faithful_on_oracle(self, p2, p3, rng):
        sites = [(0,), (1,)]
        for p in (p2, p3):
            for _ in range(25):
                x = random_local(p, rng, sites, include_identity=True)
                y = random_local(p, rng, sites)
                lhs = ref_realize(x * y, sites)
                rhs = ref_realize(x, sites) @ ref_realize(y, sites)
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_params_mismatch(self, p2, p3):
        with pytest.raises(ParamsMismatchError):
            LocalOperator.identity(p2) * LocalOperator.identity(p3)


class TestAdjoint:
    def test_word_adjoint_phase(self, pauli):
        sx, sz, sxz, _ = pauli
        # (sigma_x sigma_z)* = sigma_z sigma_x = -sigma_x sigma_z
        assert (sx * sz).adjoint().sup_diff(sxz * -1.0) == 0.0

    def test_antilinear(self, pauli):
        sx, _, _, one = pauli
        assert (sx * 1j).adjoint().sup_diff(sx * -1j) == 0.0
        assert one.adjoint().sup_diff(one) == 0.0

    def test_involution_and_product_rule(self, p2, rng):
        sites = [(0,), (1,)]
        for _ in range(25):
            x = random_local(p2, rng, sites)
            y = random_local(p2, rng, sites)
            assert x.adjoint().adjoint().sup_diff(x) < 1e-14
            assert (x * y).adjoint().sup_diff(y.adjoint() * x.adjoint()) < 1e-12

    def test_oracle(self, p3, rng):
        sites = [(0,), (1,)]
        for _ in range(10):
            x = random_local(p3, rng, sites)
            assert np.abs(ref_realize(x.adjoint(), sites)
                          - ref_realize(x, sites).conj().T).max() < 1e-12


class TestCommutator:
    def test_pauli_commutator(self, pauli):
        sx, sz, sxz, _ = pauli
        assert commutator(sx, sz).sup_diff(sxz * 2.0) == 0.0

    def test_disjoint_supports_vanish(self, p2, rng):
        x = random_local(p2, rng, [(0,)])
        y = random_local(p2, rng, [(1,)])
        assert commutator(x, y).is_zero()

    def test_with_identity(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        assert commutator(x, LocalOperator.identity(p2)).is_zero()


class TestOnePassCommutator:
    """``commutator`` against the two products it replaces and the dense oracle."""

    CASES = [(2, 1), (3, 1), (4, 1), (2, 2)]

    @pytest.mark.parametrize("N,d", CASES)
    def test_matches_products_and_oracle(self, N, d, rng):
        params = AlgebraParams(N, d)
        sites = [(0,) * d, (1,) + (0,) * (d - 1), (0,) * (d - 1) + (2,)]
        for _ in range(10):
            x = random_local(params, rng, sites, n_terms=4, include_identity=True)
            y = random_local(params, rng, sites, n_terms=4)
            got = commutator(x, y)
            assert got.sup_diff(x * y - y * x) <= 1e-15 * x.l1() * y.l1()
            win = dense.window(params, sorted(set(x.support()) | set(y.support())))
            X, Y = dense.realize(x, win), dense.realize(y, win)
            assert np.abs(dense.realize(got, win) - (X @ Y - Y @ X)).max() <= 1e-12

    def test_commuting_pairs_leave_no_entry(self, p2, pauli):
        sx, sz, sxz, one = pauli
        # sx commutes with sx, sx(1) and 1; only the pair (sx, sz) survives.
        y = sx * 0.5 + sz + sx.translate((1,)) * 2.0 + one
        got = commutator(sx, y)
        assert [lab for lab, _ in got.items()] == [sxz.items()[0][0]]
        assert got.sup_diff(sxz * 2.0) == 0.0
        assert commutator(sx * sz.translate((1,)), sz * sx.translate((1,))).num_terms() == 0

    def test_reads_both_orders_of_every_term_pair(self, p3, rng, monkeypatch):
        calls = []
        original = algebra.weyl_mul

        def counting(params, g, h):
            calls.append((g, h))
            return original(params, g, h)

        monkeypatch.setattr(algebra, "weyl_mul", counting)
        x = random_local(p3, rng, [(0,), (1,)], n_terms=4, include_identity=True)
        y = random_local(p3, rng, [(1,), (2,)], n_terms=3)
        for _ in range(2):  # the second round reads the product table
            calls.clear()
            commutator(x, y)
            assert len(calls) == 2 * x.num_terms() * y.num_terms()


class TestTranslate:
    def test_shift(self, p2, pauli):
        sx = pauli[0]
        assert sx.translate((2,)).support() == ((2,),)

    def test_group_action(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        assert x.translate((0,)).sup_diff(x) == 0.0
        assert x.translate((3,)).translate((-3,)).sup_diff(x) == 0.0

    def test_star_homomorphism(self, p2, rng):
        for _ in range(10):
            x = random_local(p2, rng, [(0,), (1,)])
            y = random_local(p2, rng, [(0,), (1,)])
            k = (2,)
            assert (x * y).translate(k).sup_diff(x.translate(k) * y.translate(k)) < 1e-13
            assert x.adjoint().translate(k).sup_diff(x.translate(k).adjoint()) < 1e-13

    def test_trace_and_seminorm_invariant(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)], include_identity=True)
        assert abs(x.translate((5,)).trace() - x.trace()) == 0.0
        assert abs(seminorm_one(x.translate((5,))) - seminorm_one(x)) < 1e-10

    def test_d2(self, p2d2):
        x = LocalOperator.site_word(p2d2, (0, 0), 1, 0)
        assert x.translate((1, -2)).support() == ((1, -2),)


class TestTrace:
    def test_identity(self, pauli):
        assert pauli[3].trace() == 1.0

    def test_word_traceless(self, pauli):
        sx, sz, sxz, _ = pauli
        for op in (sx, sz, sxz):
            assert op.trace() == 0.0

    def test_linear(self, pauli):
        sx, _, _, one = pauli
        assert (one * 3.0 + sx * 2.0).trace() == 3.0

    def test_against_matrix_trace(self, p3, rng):
        sites = [(0,), (1,)]
        for _ in range(10):
            x = random_local(p3, rng, sites, include_identity=True)
            mat = ref_realize(x, sites)
            assert abs(np.trace(mat) / mat.shape[0] - x.trace()) < 1e-12


class TestGns:
    def test_orthonormal_vs_trace_oracle(self, p2, rng):
        sites = [(0,), (1,)]
        for _ in range(20):
            g = random_label(p2, rng, sites)
            h = random_label(p2, rng, sites)
            ug, uh = LocalOperator.weyl(p2, g), LocalOperator.weyl(p2, h)
            mat = ref_realize(ug, sites).conj().T @ ref_realize(uh, sites)
            expected = np.trace(mat) / mat.shape[0]
            assert abs(gns_inner(ug, uh) - expected) < 1e-12

    def test_identity(self, p2):
        one = LocalOperator.identity(p2)
        assert gns_inner(one, one) == 1.0

    def test_norm_positive(self, p2, rng):
        u = random_local(p2, rng, [(0,), (1,)])
        expected = sum(abs(c) ** 2 for _l, c in u.items())
        assert abs(gns_norm(u) ** 2 - expected) < 1e-12

    def test_equals_trace_form(self, p2, rng):
        u = random_local(p2, rng, [(0,), (1,)], include_identity=True)
        v = random_local(p2, rng, [(0,), (1,)])
        assert abs(gns_inner(u, v) - (u.adjoint() * v).trace()) < 1e-12


class TestThetaAndConstants:
    def test_theta_definition(self, p2):
        lab = WeylLabel.from_entries([((0,), (1, 0)), ((1,), (1, 0))], 2, 1)
        x = LocalOperator.weyl(p2, lab, 0.5)
        assert theta(x, 1) == 1.0
        assert theta(x, 2) == 2.0

    def test_theta_identity_zero(self, p2):
        assert theta(LocalOperator.identity(p2), 3) == 0.0

    def test_theta_adjoint_invariant(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)], include_identity=True)
        assert abs(theta(x, 2) - theta(x.adjoint(), 2)) < 1e-12

    def test_c_const(self, p2, pauli):
        sx, sz, _, one = pauli
        assert c_const(sz) == 2.0
        assert c_const(one) == 0.0
        assert c_const(sx + sx.translate((1,))) == 6.0


class TestSeminorm:
    def test_identity_zero(self, pauli):
        assert seminorm_one(pauli[3]) == 0.0

    def test_sx_frozen_value(self, pauli):
        # Oracle: sum over (a,b) != (0,0) of ||[word, sigma_x]||; the two
        # anticommuting words contribute 2 each.
        sx = pauli[0]
        total = 0.0
        for a, b in [(0, 1), (1, 0), (1, 1)]:
            w = ref_word(2, a, b)
            total += np.linalg.norm(w @ ref_word(2, 1, 0) - ref_word(2, 1, 0) @ w, 2)
        assert abs(total - 4.0) < 1e-12
        assert abs(seminorm_one(sx) - 4.0) < 1e-12

    def test_adjoint_invariant(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        assert abs(seminorm_one(x) - seminorm_one(x.adjoint())) < 1e-10


def seminorm_reference(x):
    """One symbolic commutator and one dense norm per site word."""
    N = x.params.N
    total = 0.0
    for j in x.support():
        for a in range(N):
            for b in range(N):
                if (a, b) != (0, 0):
                    w = LocalOperator.site_word(x.params, j, a, b)
                    total += dense.operator_norm(commutator(w, x))
    return total


class TestBatchedSeminorm:
    def test_identity_and_zero(self, p3):
        assert seminorm_one(LocalOperator.identity(p3) * 2.5) == 0.0
        assert seminorm_one(LocalOperator.zero(p3)) == 0.0
        assert seminorm_reference(LocalOperator.identity(p3)) == 0.0

    @pytest.mark.parametrize("N,d,sites", [
        (2, 1, [(0,)]),
        (3, 1, [(0,)]),
        (3, 1, [(0,), (1,), (3,)]),
        (2, 2, [(0, 0), (1, 0), (0, -1)]),
    ])
    def test_matches_per_word_loop(self, N, d, sites, rng):
        params = AlgebraParams(N, d)
        for _ in range(4):
            x = random_local(params, rng, sites, n_terms=5, max_weight=3,
                             include_identity=True)
            ref = seminorm_reference(x)
            assert abs(seminorm_one(x) - ref) <= 1e-12 * max(1.0, ref)


class TestCanonicalization:
    def test_zero_coefficients_dropped(self, p2, pauli):
        sx = pauli[0]
        assert (sx - sx).num_terms() == 0
        assert (sx * 1e-16).num_terms() == 0

    def test_deterministic_order(self, p2):
        x = LocalOperator.site_word(p2, (1,), 1, 0) + LocalOperator.site_word(p2, (0,), 0, 1)
        labels = [lab for lab, _ in x.items()]
        assert labels == sorted(labels, key=lambda l: l.entries)

    def test_immutability(self, pauli):
        sx = pauli[0]
        with pytest.raises(AttributeError):
            sx.params = None
        label = next(iter(sx.items()))[0]
        with pytest.raises(AttributeError):
            label.entries = ()

    def test_self_difference_is_empty(self, p2, p3, rng):
        for p in (p2, p3):
            x = random_local(p, rng, [(0,), (1,)], n_terms=5, include_identity=True)
            assert (x - x).num_terms() == 0

    def test_add_then_subtract_restores(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)], n_terms=5, include_identity=True)
        # Disjoint labels: (c + 0) - 0 and 0 + d - d are exact.
        y = random_local(p2, rng, [(4,), (5,)], n_terms=5)
        back = (x + y) - y
        assert back.sup_diff(x) == 0.0
        assert back.num_terms() == x.num_terms()
        # Dyadic coefficients on shared labels sum exactly as well.
        a = LocalOperator(p2, {lab: complex(k / 4, -k / 8) for k, (lab, _) in enumerate(x.items())})
        b = LocalOperator(p2, {lab: complex(-k / 2, k) for k, (lab, _) in enumerate(x.items())})
        assert ((a + b) - b).sup_diff(a) == 0.0

    def test_small_products_dropped(self, p2, pauli):
        sx, sz, _, _ = pauli
        assert ((sx * 1e-8) * (sz * 1e-8)).num_terms() == 0
        assert ((sx * 1e-6) * (sz * 1e-8)).num_terms() == 1
        # (sx + sz)(sx - sz) = 1 - sx sz + sz sx - 1 = -2 sx sz: the identity
        # cancels exactly and its label is dropped.
        prod = (sx + sz) * (sx - sz)
        assert prod.num_terms() == 1
        assert prod.trace() == 0j
        assert prod.sup_diff(sx * sz * -2.0) == 0.0

    def test_merged_results_match_public_merge(self, p2, p3, pauli, rng):
        """Sums, differences, negatives, products, adjoints and translates
        hold exactly what the public constructor's merge would hold: no
        coefficient below COEFF_TOL and no -0.0 part."""

        def bits(op):
            return [(lab.entries, math.copysign(1.0, c.real), c.real,
                     math.copysign(1.0, c.imag), c.imag) for lab, c in op.items()]

        sx, sz, sxz, one = pauli
        cases = [(sx * -2.0 + sz, sxz * 3.0 - one), (sx + sz * 1j, sx * -1j - sxz)]
        for p in (p2, p3):
            for _ in range(3):
                cases.append((random_local(p, rng, [(0,), (1,)], include_identity=True),
                              random_local(p, rng, [(0,), (1,)], include_identity=True)))
        for x, y in cases:
            for got in (x + y, x - y, y - x, -x, x * y, y * x, x.adjoint(), x.translate((2,))):
                again = LocalOperator(got.params, dict(got.items()))
                assert bits(got) == bits(again)
                assert all(abs(c) >= COEFF_TOL for _, c in got.items())


class TestLabelIdentity:
    def test_equal_labels_from_every_builder(self, p2):
        built = WeylLabel.from_entries([((1,), (1, 0)), ((2,), (0, 1))], 2, 1)
        moved = WeylLabel.from_entries([((0,), (1, 0)), ((1,), (0, 1))], 2, 1).translated((1,))
        phase, product = weyl_mul(p2, WeylLabel.single((1,), 1, 0, 2, 1),
                                  WeylLabel.single((2,), 0, 1, 2, 1))
        # Digits a*N + b per site, first site most significant: (2, 1) -> 9.
        from_basis = dense.window_basis(p2, [(1,), (2,)])[9]
        assert phase == 0
        labels = [built, moved, product, from_basis]
        for a, b in itertools.product(labels, repeat=2):
            assert a is b and hash(a) == hash(b)
        assert len({*labels}) == 1
        assert {built: 1.0}[from_basis] == 1.0

    def test_not_equal_to_entries(self, p2, rng):
        label = random_label(p2, rng, [(0,), (1,)])
        assert label != label.entries
        assert label.entries != label
        assert label.entries not in {label: 1}
        assert WeylLabel.identity() != ()

    def test_unequal_labels(self):
        g = WeylLabel.single((0,), 1, 0, 2, 1)
        assert g != WeylLabel.single((0,), 0, 1, 2, 1)
        assert g != WeylLabel.single((1,), 1, 0, 2, 1)
        assert g != WeylLabel.identity()


class TestInterning:
    """Equal entries give one label object, whichever constructor builds it."""

    def test_direct_and_from_entries(self, p3):
        lab = WeylLabel.from_entries([((1,), (4, -1)), ((0,), (0, 2))], 3, 1)
        assert lab is WeylLabel((((0,), (0, 2)), ((1,), (1, 2))))
        assert lab is WeylLabel.from_entries([((0,), (3, 2)), ((1,), (1, 2))], 3, 1)
        assert WeylLabel.identity() is WeylLabel.from_entries([((0,), (3, 3))], 3, 1)
        assert "__eq__" not in vars(WeylLabel) and "__hash__" not in vars(WeylLabel)

    def test_translated(self, p2):
        lab = WeylLabel.from_entries([((0,), (1, 0)), ((1,), (1, 1))], 2, 1)
        assert lab.translated((3,)) is WeylLabel.from_entries(
            [((3,), (1, 0)), ((4,), (1, 1))], 2, 1)

    def test_product_and_adjoint(self, p3):
        g = WeylLabel.from_entries([((0,), (1, 2)), ((1,), (2, 0))], 3, 1)
        h = WeylLabel.from_entries([((1,), (1, 1))], 3, 1)
        expected = WeylLabel.from_entries([((0,), (1, 2)), ((1,), (0, 1))], 3, 1)
        assert weyl_mul(p3, g, h)[1] is expected
        assert algebra._product.__wrapped__(3, g, h)[1] is expected
        assert algebra.weyl_adjoint(p3, g)[1] is WeylLabel.from_entries(
            [((0,), (2, 1)), ((1,), (1, 0))], 3, 1)

    def test_window_basis_and_kernel_split(self, p2):
        basis = dense.window_basis(p2, [(0,), (1,)])
        assert basis[7] is WeylLabel.from_entries([((0,), (0, 1)), ((1,), (1, 1))], 2, 1)
        kern = WindowKernel(p2, [(0,), (1,)])
        lab = WeylLabel.from_entries([((1,), (1, 0)), ((5,), (0, 1))], 2, 1)
        assert kern.split(lab)[2] is WeylLabel.from_entries([((5,), (0, 1))], 2, 1)
        assert kern.index[WeylLabel.from_entries([((1,), (1, 0))], 2, 1)] == 2

    def test_lindblad_clips(self, p2, pauli):
        sx, sz, _, _ = pauli
        L = lb.Lindbladian.single_kraus(sx * sz.translate((1,)))
        clipped = L._clip_factors(sx * sz.translate((1,)), {(0,)})
        assert clipped.items()[0][0] is sx.items()[0][0]
        # phi(sz) != 0, so the closed form keeps the string with site 0 dropped.
        x = sz * sx.translate((1,))
        out = lb.partial_semigroup_exact(dense.StateSpec(np.diag([0.7, 0.3])), x, 0.5)
        labels = {lab.entries: lab for lab, _ in out.items()}
        assert labels[(((1,), (1, 0)),)] is sx.translate((1,)).items()[0][0]

    def test_copy_and_pickle_return_the_interned_label(self):
        lab = WeylLabel.from_entries([((0,), (1, 0)), ((2,), (0, 1))], 2, 1)
        assert copy.deepcopy(lab) is lab
        assert copy.copy(lab) is lab
        assert pickle.loads(pickle.dumps(lab)) is lab

    def test_clearing_caches_keeps_labels_interned(self):
        lab = WeylLabel.from_entries([((0,), (1, 1))], 2, 1)
        for value in vars(algebra).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        assert WeylLabel((((0,), (1, 1)),)) is lab

    def test_labels_are_immutable(self):
        lab = WeylLabel.identity()
        with pytest.raises(AttributeError):
            lab.entries = (((0,), (1, 0)),)


class TestProductCounter:
    def test_every_term_pair_calls_weyl_mul(self, p3, rng, monkeypatch):
        """Each product of term pairs goes through the module-level
        ``weyl_mul``, which is where a tracer counts them."""
        calls = []
        original = algebra.weyl_mul

        def counting(params, g, h):
            calls.append((g, h))
            return original(params, g, h)

        monkeypatch.setattr(algebra, "weyl_mul", counting)
        x = random_local(p3, rng, [(0,), (1,)], n_terms=4, include_identity=True)
        y = random_local(p3, rng, [(1,), (2,)], n_terms=3)
        for _ in range(2):  # the second round reads the product table
            calls.clear()
            x * y
            assert len(calls) == x.num_terms() * y.num_terms()


class TestTextFormat:
    def test_round_trip(self, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)], include_identity=True) * (0.3 + 0.7j)
        assert LocalOperator.from_text(p2, x.to_text()).sup_diff(x) < 1e-15

    def test_identity_line(self, p2):
        op = LocalOperator.from_text(p2, "2.5 -1.0 ;")
        assert op.num_terms() == 1 and op.trace() == 2.5 - 1.0j

    def test_d2_sites(self, p2d2):
        op = LocalOperator.from_text(p2d2, "1 0 ; 1,-2:1,0 0,0:0,1")
        assert op.support() == ((0, 0), (1, -2))
        assert LocalOperator.from_text(p2d2, op.to_text()).sup_diff(op) == 0.0

    def test_malformed(self, p2):
        with pytest.raises(ValueError):
            LocalOperator.from_text(p2, "1.0 ; 0:1,0")
