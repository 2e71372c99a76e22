"""Generators, semigroups, the matrix-exponential stepper, the quadrature rules,
ergodic states and the derivation-bound harness."""

import cmath

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse

import uhfflow.dense as dense
import uhfflow.lindblad as lb
import uhfflow.selftest as selftest
from uhfflow.algebra import (
    LocalOperator,
    WeylLabel,
    commutator,
    gns_norm,
    random_local,
    seminorm_one,
)
from uhfflow.errors import DivergenceError, FitError, SizeGuardError, WindowError


@pytest.fixture
def maxmix():
    return dense.StateSpec(np.eye(2) / 2)


@pytest.fixture
def biased():
    return dense.StateSpec(np.diag([0.7, 0.3]))


@pytest.fixture
def L_flip(pauli):
    """Translation family of the single unitary word sigma_x."""
    return lb.Lindbladian.single_kraus(pauli[0], unital=True)


@pytest.fixture
def L_partial(p2, maxmix):
    return lb.Lindbladian.partial_state(p2, maxmix)


class TestKrausFamily:
    def test_unital_flag_checked(self, pauli):
        sx, _, _, _ = pauli
        lb.KrausFamily((sx,), unital=True)
        with pytest.raises(ValueError):
            lb.KrausFamily((sx * 2.0,), unital=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lb.KrausFamily(())


class TestDerivations:
    def test_delta_example(self, L_flip, pauli):
        _, sz, sxz, _ = pauli
        assert L_flip.derivation(1, (0,), sz).sup_diff(sxz * -2.0) == 0.0

    def test_delta_of_identity(self, L_flip, pauli):
        assert L_flip.derivation(1, (0,), pauli[3]).is_zero()

    def test_delta_disjoint_support(self, L_flip, p2, rng):
        x = random_local(p2, rng, [(3,)])
        assert L_flip.derivation(1, (0,), x).is_zero()

    def test_leibniz_rule(self, L_flip, p2, rng):
        sites = [(0,), (1,)]
        for _ in range(10):
            x = random_local(p2, rng, sites)
            y = random_local(p2, rng, sites)
            lhs = L_flip.derivation(1, (0,), x * y)
            rhs = x * L_flip.derivation(1, (0,), y) + L_flip.derivation(1, (0,), x) * y
            assert lhs.sup_diff(rhs) < 1e-12

    def test_member_indexing(self, p2, maxmix):
        L = lb.Lindbladian.partial_state(p2, maxmix)
        assert len(L.base_members()) == 4
        for eps in (1, -1):  # the derivations need a single-member family
            with pytest.raises(ValueError, match="single-operator translation family"):
                L.derivation(eps, (0,), LocalOperator.identity(p2))


class TestLindZero:
    def test_identity_annihilated(self, L_flip, L_partial, pauli):
        one = pauli[3]
        assert L_flip.lind_k((0,), one).is_zero(1e-14)
        assert L_partial.lind_k((0,), one).is_zero(1e-14)

    def test_flip_example(self, L_flip, pauli):
        _, sz, _, _ = pauli
        assert L_flip.lind_k((0,), sz).sup_diff(sz * -2.0) == 0.0

    def test_forms_agree(self, L_flip, L_partial, p2, rng):
        for L in (L_flip, L_partial):
            for _ in range(10):
                x = random_local(p2, rng, [(0,), (1,)])
                assert L.lind_k((0,), x).sup_diff(
                    L.lind_zero_anticommutator_form(x)) < 1e-12

    def test_partial_is_state_minus_identity(self, L_partial, p2, rng, maxmix):
        x = random_local(p2, rng, [(0,)], include_identity=True)
        expected = LocalOperator.identity(p2) * lb.ergodic_state(maxmix, x) - x
        assert L_partial.lind_k((0,), x).sup_diff(expected) < 1e-12


class TestLindTotal:
    def test_identity(self, L_flip, L_partial, pauli):
        for L in (L_flip, L_partial):
            assert L.apply(pauli[3]).is_zero(1e-14)

    def test_partial_single_site(self, L_partial, pauli):
        sx = pauli[0]
        assert L_partial.apply(sx).sup_diff(sx * -1.0) < 1e-12

    def test_translation_covariance(self, L_flip, L_partial, p2, rng):
        for L in (L_flip, L_partial):
            for _ in range(10):
                x = random_local(p2, rng, [(0,), (1,)])
                assert L.apply(x.translate((2,))).sup_diff(
                    L.apply(x).translate((2,))) < 1e-12

    def test_star_reality(self, L_flip, L_partial, p2, rng):
        for L in (L_flip, L_partial):
            x = random_local(p2, rng, [(0,), (1,)])
            assert L.apply(x.adjoint()).sup_diff(L.apply(x).adjoint()) < 1e-12

    def test_cocycle_identity(self, L_flip, L_partial, p2, rng):
        for L in (L_flip, L_partial):
            for _ in range(10):
                x = random_local(p2, rng, [(0,), (1,)])
                y = random_local(p2, rng, [(0,), (1,)])
                assert L.cocycle_defect(x, y) < 1e-12

    def test_perturbed_combination(self, p2, maxmix, pauli, rng):
        sx, sz, _, _ = pauli
        kraus = lb.KrausFamily((sx,), unital=True)
        c = 0.3
        Lc = lb.Lindbladian.perturbed(p2, maxmix, kraus, c)
        Lp = lb.Lindbladian.partial_state(p2, maxmix)
        Lr = lb.Lindbladian.translation_covariant(kraus)
        x = random_local(p2, rng, [(0,), (1,)])
        expected = Lp.apply(x) + Lr.apply(x) * c
        assert Lc.apply(x).sup_diff(expected) < 1e-12


def direct_lind_k(L, k, x):
    """(1/2) sum_m [m*, x] m + m* [x, m] over the members translated to k, on all of x."""
    out = LocalOperator.zero(L.params)
    for op in L.base_members():
        m = op.translate(k)
        md = m.adjoint()
        out = out + (commutator(md, x) * m + md * commutator(x, m)) * 0.5
    return out


class TestMemberAndImageTables:
    """lind_k reads per-string images L_k(U_b); the maps read per-translate member pairs."""

    @pytest.fixture
    def generators(self, p2, pauli, biased):
        sx, sz = pauli[0], pauli[1]
        kraus = lb.KrausFamily((sx * sx.translate((1,)) + 0.5 * sz,))
        return {
            "translation": lb.Lindbladian.translation_covariant(kraus),
            "partial": lb.Lindbladian.partial_state(p2, biased),
            "perturbed": lb.Lindbladian.perturbed(p2, biased, kraus, 0.3),
        }

    @pytest.mark.parametrize("kind", ["translation", "partial", "perturbed"])
    @pytest.mark.parametrize("k", [(-1,), (0,), (2,)])
    def test_table_matches_direct_formula(self, generators, kind, k, p2, rng):
        L = generators[kind]
        for n_terms in (1, 2, 3, 3, 3):
            for sites in ([k, (k[0] + 1,)], [(0,), (1,)]):
                x = random_local(p2, rng, sites, n_terms=n_terms)
                assert L.lind_k(k, x).sup_diff(direct_lind_k(L, k, x)) <= 1e-13

    @pytest.mark.parametrize("k", [(-1,), (0,), (2,)])
    def test_derivations_read_the_member_table_exactly(self, k, p2, pauli, rng):
        sx, sz = pauli[0], pauli[1]
        r = sx * sx.translate((1,)) + 0.5j * sz
        L = lb.Lindbladian.single_kraus(r)
        r_k = L.single_r().translate(k)
        for _ in range(5):
            x = random_local(p2, rng, [k, (k[0] + 1,)], n_terms=3)
            assert L.derivation(1, k, x).sup_diff(commutator(x, r_k)) == 0.0
            assert L.derivation(-1, k, x).sup_diff(commutator(r_k.adjoint(), x)) == 0.0

    def test_second_apply_multiplies_nothing(self, p2, pauli, biased, rng, monkeypatch):
        sx, sz = pauli[0], pauli[1]
        L = lb.Lindbladian.perturbed(
            p2, biased, lb.KrausFamily((sx * sx.translate((1,)) + 0.5 * sz,)), 0.3)
        x = random_local(p2, rng, [(0,), (1,)], n_terms=3)
        calls = []
        mul, comm = LocalOperator.__mul__, lb.commutator
        monkeypatch.setattr(LocalOperator, "__mul__",
                            lambda a, b: calls.append("mul") or mul(a, b))
        monkeypatch.setattr(lb, "commutator", lambda a, b: calls.append("comm") or comm(a, b))
        first = L.apply(x)
        assert calls
        calls.clear()
        second = L.apply(x)
        assert calls == []
        assert second.sup_diff(first) == 0.0

    def test_planted_image_fails_the_identities(self, p2, monkeypatch):
        # Image keys are absolute: L(tau_1 x) reads the entry at (k, U_b)
        # = ((1,), sigma_z at 1), tau_1 L(x) the entry at ((0,), sigma_z at
        # 0).  A wrong entry therefore shows in the covariance identity
        # instead of being compared with itself.
        label = WeylLabel.single((1,), 0, 1, p2.N, p2.d)
        build = lb.Lindbladian.single_kraus

        def planted(r, unital=False):
            L = build(r, unital=unital)
            true = L._image((1,), label)
            L._images[((1,), label)] = true + LocalOperator.weyl(p2, label, 1e-3)
            return L

        def identities():
            verdicts = selftest.lindblad_checks(np.random.default_rng(20240817))
            return next(v for v in verdicts if v.name == "lindblad.identities")

        assert identities().passed
        monkeypatch.setattr(lb.Lindbladian, "single_kraus", staticmethod(planted))
        verdict = identities()
        assert not verdict.passed and verdict.value >= 1e-4


class TestWindowedApply:
    def test_interior_stays_inside(self, L_flip, p2, rng):
        sites = [(0,), (1,)]
        x = random_local(p2, rng, sites)
        out = L_flip.windowed_apply(x, sites, "interior")
        assert set(out.support()) <= set(sites)

    def test_clipped_fixes_identity(self, p2, pauli):
        r2 = pauli[0] * pauli[0].translate((1,))
        L = lb.Lindbladian.single_kraus(r2, unital=True)
        out = L.windowed_apply(LocalOperator.identity(p2), [(0,)], "clipped")
        assert out.is_zero(1e-14)

    def test_support_violation(self, L_flip, p2):
        with pytest.raises(WindowError):
            L_flip.windowed_apply(LocalOperator.site_word(p2, (5,), 1, 0), [(0,)])


class TestPerMemberClosure:
    """The interior closure keeps each Kraus member by its own support."""

    @pytest.fixture
    def perturbed_window(self, p2, pauli):
        sx, sz = pauli[0], pauli[1]
        kraus = lb.KrausFamily((sx * sx.translate((1,)) + 0.5 * sz,))
        state = dense.StateSpec(np.array([[0.7, 0.1], [0.1, 0.3]]))
        Lc = lb.Lindbladian.perturbed(p2, state, kraus, 0.1)
        return Lc, lb.default_window(Lc, sx)

    def test_edge_site_keeps_its_partial_state_members(self, perturbed_window):
        Lc, sites = perturbed_window
        edge = max(sites)
        n_site = len(Lc.base_members()) - 1  # the partial-state members, then the pair
        flags = {key: inside for key, _m, inside in Lc.window_translates(sites)}
        assert [flags[(edge, i)] for i in range(n_site + 1)] == [True] * n_site + [False]
        kept = Lc.window_members(sites, "interior")
        assert sum(m.support() == (edge,) for m in kept) == n_site
        assert all(set(m.support()) <= set(sites) for m in kept)

    def test_window_generator_has_one_stationary_state(self, perturbed_window):
        Lc, sites = perturbed_window
        mat = lb.generator_matrix(Lc, sites, "interior")[0]
        assert np.linalg.matrix_rank(mat.toarray()) == mat.shape[0] - 1


class TestEvolve:
    def test_time_zero(self, L_partial, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        res = lb.evolve(L_partial, x, [0.0], window=[(0,), (1,)])
        assert res.values[0].sup_diff(x) < 1e-12

    def test_two_site_product_decay(self, L_partial, p2, pauli):
        sx = pauli[0]
        x = sx * sx.translate((1,))
        grid = [0.0, 0.4, 1.0]
        res = lb.evolve(L_partial, x, grid, window=[(0,), (1,)])
        for t, val in zip(grid, res.values):
            assert val.sup_diff(x * np.exp(-2 * t)) < 1e-12

    def test_matches_dense_oracle(self, p2, maxmix, pauli, rng):
        sx = pauli[0]
        gens = [
            (lb.Lindbladian.partial_state(p2, maxmix), [(0,), (1,)]),
            (lb.Lindbladian.single_kraus(sx, unital=True), [(-1,), (0,), (1,)]),
        ]
        grid = [0.0, 0.25, 1.0]
        for L, sites in gens:
            x = random_local(p2, rng, sites[:2])
            res = lb.evolve(L, x, grid, window=sites)
            oracle = dense.hilbert_evolve(L, dense.window(p2, sites), "interior", grid, x)
            for val, ref in zip(res.values, oracle, strict=True):
                assert val.sup_diff(ref) < 1e-9

    @pytest.mark.parametrize("grid", [[0.0, 0.3, 0.3, 1.0], [0.5, 1.0], [0.0, 0.0]])
    def test_ode_steps_from_zero(self, grid, p2, biased, rng):
        # Repeated times, a grid starting past 0 and an all-zero grid: the
        # ode path steps from t = 0 and skips zero increments.
        L = lb.Lindbladian.partial_state(p2, biased)
        sites = [(0,), (1,)]
        x = random_local(p2, rng, sites, include_identity=True)
        res = lb.evolve(L, x, grid, window=sites)
        oracle = dense.hilbert_evolve(L, dense.window(p2, sites), "interior", grid, x)
        for val, ref in zip(res.values, oracle, strict=True):
            assert val.sup_diff(ref) < 1e-12
        for i in range(len(grid) - 1):
            if grid[i] == grid[i + 1]:
                assert res.values[i].sup_diff(res.values[i + 1]) == 0.0

    def test_unitality(self, L_flip, p2):
        res = lb.evolve(L_flip, LocalOperator.identity(p2), [0.0, 1.0, 2.0],
                        window=[(0,)])
        for val in res.values:
            assert val.sup_diff(LocalOperator.identity(p2)) < 1e-10

    def test_semigroup_law(self, L_partial, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        sites = [(0,), (1,)]
        full = lb.evolve(L_partial, x, [0.9], window=sites).values[0]
        half = lb.evolve(L_partial, x, [0.4], window=sites).values[0]
        again = lb.evolve(L_partial, half, [0.5], window=sites).values[0]
        assert full.sup_diff(again) < 1e-10

    def test_negative_time_rejected(self, L_partial, pauli):
        with pytest.raises(ValueError):
            lb.evolve(L_partial, pauli[0], [-1.0])

    def test_edge_budget_reported(self, p2, pauli):
        # 2-site Kraus word on a window that cuts translates: budget > 0.
        r2 = pauli[0] * pauli[0].translate((1,))
        L = lb.Lindbladian.single_kraus(r2, unital=True)
        res = lb.evolve(L, pauli[1], [0.0, 0.5], window=[(0,), (1,)], tol=1e-10)
        assert res.error_budget[0] <= 1e-10  # only the solver tolerance at t=0
        assert res.error_budget[1] > 1e-3  # edge translates omitted: real budget

    def test_edge_budget_accrues_from_zero(self, p2, pauli):
        # A grid that starts past 0 is stepped from 0; so is its budget.
        r2 = pauli[0] * pauli[0].translate((1,))
        L = lb.Lindbladian.single_kraus(r2, unital=True)
        full = lb.evolve(L, pauli[1], [0.0, 0.5, 1.0], window=[(0,), (1,)])
        late = lb.evolve(L, pauli[1], [0.5, 1.0], window=[(0,), (1,)])
        assert np.array_equal(late.error_budget, full.error_budget[1:])

    @pytest.mark.parametrize("closure", ["interior", "clipped"])
    def test_window_budgets_bound_window_difference(self, closure, p2, rng):
        # Each budget bounds the distance to the lattice evolution in
        # operator norm, so two windows differ by at most their sum.  The
        # l1 norm of the coefficients is checked first: it bounds the
        # operator norm and is much cheaper on seven sites.
        def unit_l1(labels):
            c = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
            c /= np.abs(c).sum()
            return LocalOperator.from_text(
                p2, "\n".join(f"{v.real:.17g} {v.imag:.17g} ; {lab}" for v, lab in zip(c, labels)))

        L = lb.Lindbladian.single_kraus(unit_l1(["0:1,0 1:1,0", "0:0,1"]))
        x = unit_l1(["0:1,0", "0:0,1", "-1:1,1 0:1,0"])
        grid = np.linspace(0.0, 1.0, 21)
        small, large = (lb.evolve(L, x, grid, window=[(k,) for k in range(-h, h + 1)],
                                  closure_mode=closure) for h in (1, 3))
        assert small.error_budget[-1] > 1e-3
        for a, b, budget in zip(small.values, large.values,
                                small.error_budget + large.error_budget):
            diff = a - b
            assert diff.l1() <= budget or dense.operator_norm(diff) <= budget

    def test_closed_form_within_budget(self, L_partial, p2, maxmix, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        res = lb.evolve(L_partial, x, [0.8], tol=1e-12, window=[(0,), (1,)])
        exact = lb.partial_semigroup_exact(maxmix, x, 0.8)
        assert res.values[0].sup_diff(exact) <= 1e-12 + res.error_budget[0]


def random_generator(rng, n, density=0.3):
    """A random complex sparse n x n matrix."""
    return scipy.sparse.random(
        n, n, density=density, format="csr", dtype=complex, random_state=rng,
        data_rvs=lambda k: rng.normal(size=k) + 1j * rng.normal(size=k))


def shift_matrix(n):
    """The nilpotent shift e_k -> e_(k-1): trace 0, 1-norm 1, J^n = 0."""
    return scipy.sparse.diags([np.ones(n - 1, dtype=complex)], [1], format="csr")


class TestExpmMultiply:
    """The package stepper against the dense exponential, and its matvec count."""

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    @pytest.mark.parametrize("h_norm", [0.5, 3.0, 30.0, 100.0])
    def test_matches_dense_expm(self, n, h_norm, rng):
        A = random_generator(rng, n) + (0.7j - 0.4) * scipy.sparse.identity(n)  # tr A != 0
        op = lb.step_operator(A)
        h = h_norm / op.norm if op.norm else 1.0
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = lb.expm_multiply(op, v, h)
        ref = scipy.linalg.expm(h * A.toarray()) @ v
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("h_norm", [0.0, 0.5, 30.0])
    def test_callers_vector_is_unchanged(self, h_norm, rng):
        op = lb.step_operator(random_generator(rng, 9) - 0.5 * scipy.sparse.identity(9))
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        kept = v.copy()
        out = lb.expm_multiply(op, v, h_norm / op.norm)
        assert np.array_equal(v, kept)
        assert not np.shares_memory(out, v)

    @pytest.mark.parametrize("h_norm", [1e-3, 0.5, 3.0, 30.0, 100.0])
    def test_same_bits_as_the_plain_loop(self, h_norm, rng):
        # The in-place sum and the gated norm of the sum change no bit of
        # the result against the loop that allocates every term and sum.
        def plain(op, v, h):
            m_star, s = lb.taylor_degree(h * op.norm)
            eta = cmath.exp(h * op.mu / s)
            out = v
            for _ in range(s):
                c1 = lb._inf_norm(v)
                for j in range(m_star):
                    v = (h / (s * (j + 1))) * op.shifted(v)
                    c2 = lb._inf_norm(v)
                    out = out + v
                    if c1 + c2 <= lb.TAYLOR_TOL * lb._inf_norm(out):
                        break
                    c1 = c2
                out = eta * out
                v = out
            return out

        for n in (4, 33):
            op = lb.step_operator(random_generator(rng, n) + 0.2j * scipy.sparse.identity(n))
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert same_bits(lb.expm_multiply(op, v, h_norm / op.norm),
                             plain(op, v, h_norm / op.norm))
        J = lb.step_operator(shift_matrix(4))
        v = np.array([0, 0, 0, 1], dtype=complex)
        assert same_bits(lb.expm_multiply(J, v, 3.0), plain(J, v, 3.0))

    def test_large_steps_are_split(self):
        # The two largest h ||A - mu I||_1 above need s > 1 Taylor steps.
        assert lb.taylor_degree(30.0) == (40, 5)
        assert lb.taylor_degree(100.0) == (50, 12)

    def test_zero_step_and_zero_matrix(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        op = lb.step_operator(random_generator(rng, 6))
        assert np.array_equal(lb.expm_multiply(op, v, 0.0), v)
        zero = lb.step_operator(scipy.sparse.csr_matrix((6, 6), dtype=complex))
        assert zero.mu == 0 and zero.norm == 0.0
        assert np.array_equal(lb.expm_multiply(zero, v, 2.5), v)

    def test_shift_is_restored(self, rng):
        # A multiple of the identity is all shift: e^{h mu} v with no Taylor term.
        op = lb.step_operator(-1.5 * scipy.sparse.identity(4, dtype=complex, format="csr"))
        assert op.norm == 0.0
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(lb.expm_multiply(op, v, 0.8), np.exp(-1.2) * v, rtol=1e-15)

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_stops_after_two_negligible_terms(self, scale):
        # J^4 = 0, so terms 1-3 are nonzero and term 4 vanishes; the loop
        # stops at term 5, the second zero in a row, whatever the scale.
        J = shift_matrix(4)
        calls = []
        base = lb.step_operator(J)
        op = base._replace(shifted=lambda v: calls.append(1) or base.shifted(v))
        v = np.array([0, 0, 0, scale], dtype=complex)
        h = 3.0
        m_star, s = lb.taylor_degree(h * op.norm)
        assert s == 1 and m_star > 5
        got = lb.expm_multiply(op, v, h)
        expected = scale * np.array([h**3 / 6, h**2 / 2, h, 1.0])
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        assert len(calls) == 5

    def test_degree_choice_is_scipys(self):
        # Below condition (3.13)'s threshold scipy chooses (m*, s) from the
        # 1-norm alone; the stepper's choice must be the same.
        core = pytest.importorskip("scipy.sparse.linalg._expm_multiply")
        if not all(hasattr(core, name) for name in ("_fragment_3_1", "LazyOperatorNormInfo")):
            pytest.skip("scipy's fragment 3.1 helpers are not available")
        for norm in np.concatenate([np.geomspace(1e-12, 63.0, 200), [0.0895, 3.54, 9.9, 63.36]]):
            info = core.LazyOperatorNormInfo(None, A_1_norm=float(norm), ell=2)
            assert lb.taylor_degree(float(norm)) == core._fragment_3_1(info, 1, 2.0**-53)

    def test_evolve_expm_prepares_the_matrix_once(self, rng, monkeypatch):
        built, steps = [], []
        prepare, stepper = lb.step_operator, lb.expm_multiply
        monkeypatch.setattr(lb, "step_operator", lambda m: built.append(1) or prepare(m))
        monkeypatch.setattr(lb, "expm_multiply", lambda *a: steps.append(1) or stepper(*a))
        A = random_generator(rng, 8)
        x0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        grid = [0.0, 0.1, 0.1, 0.4, 1.0]
        values = lb._evolve_expm(A, x0, grid)
        assert (len(built), len(steps)) == (1, 3)
        ref = scipy.linalg.expm(A.toarray()) @ x0
        assert np.abs(values[-1] - ref).max() <= 1e-12 * np.abs(ref).max()


def samples(rng, shape, kind):
    y = rng.normal(size=shape)
    return y + 1j * rng.normal(size=shape) if kind == "complex" else y


def same_bits(a, b):
    """Equal values, dtype and bytes: signed zeros count too."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestQuadrature:
    """The numpy rules give scipy.integrate's results bit for bit."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 65, 66, 1025])
    def test_trapezoids(self, rng, n, kind):
        y = samples(rng, n, kind)
        t = np.cumsum(rng.uniform(0.1, 1.0, size=n)) - 0.5
        got = lb.cumulative_trapezoid(y, t)
        assert same_bits(got, scipy.integrate.cumulative_trapezoid(y, t, initial=0))
        assert got[0] == 0 and not np.signbit(got[0].real)
        # The edge budget integrates a list of floats.
        assert same_bits(lb.cumulative_trapezoid(list(y), t),
                         scipy.integrate.cumulative_trapezoid(list(y), t, initial=0))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [3, 4, 5, 65, 66, 1025])
    def test_cumulative_simpson(self, rng, n, kind):
        dx = 0.3
        y = samples(rng, (n, 3), kind)
        got = lb.cumulative_simpson(y, dx)
        # Also scipy's rule on the real and imaginary parts separately.
        ref = scipy.integrate.cumulative_simpson(y.real, dx=dx, axis=0, initial=0)
        if kind == "complex":
            ref = ref + 1j * scipy.integrate.cumulative_simpson(y.imag, dx=dx, axis=0, initial=0)
            assert same_bits(got, scipy.integrate.cumulative_simpson(y, dx=dx, axis=0,
                                                                     initial=0))
        assert same_bits(got, ref)
        assert np.array_equal(got[0], np.zeros(3)) and not np.signbit(got[0].real).any()
        assert same_bits(lb.cumulative_simpson(y[:, 0], dx), got[:, 0])

    def test_cumulative_simpson_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 3"):
            lb.cumulative_simpson(np.ones(2), 0.3)

    def test_exact_on_low_degrees(self):
        t = np.linspace(0.0, 2.0, 9)
        assert lb.cumulative_simpson(t**3 - t, t[1])[-1] == pytest.approx(2.0, abs=1e-14)
        assert lb.cumulative_simpson(t**2 - t, t[1]) == pytest.approx(t**3 / 3 - t**2 / 2,
                                                                      abs=1e-14)


class TestPartialClosedForm:
    def test_single_word_decay(self, maxmix, p2, rng):
        from uhfflow.algebra import random_label

        g = random_label(p2, rng, [(0,)])
        x = LocalOperator.weyl(p2, g)
        got = lb.partial_semigroup_exact(maxmix, x, 1.3)
        assert got.sup_diff(x * np.exp(-1.3)) < 1e-14

    def test_identity_fixed(self, maxmix, p2):
        one = LocalOperator.identity(p2)
        assert lb.partial_semigroup_exact(maxmix, one, 2.0).sup_diff(one) == 0.0

    def test_matches_generic_evolution(self, p2, biased, rng):
        L = lb.Lindbladian.partial_state(p2, biased)
        x = random_local(p2, rng, [(0,), (1,)], include_identity=True)
        grid = [0.0, 0.5, 1.5]
        res = lb.evolve(L, x, grid, tol=1e-12, window=[(0,), (1,)])
        for i, t in enumerate(grid):
            assert res.values[i].sup_diff(
                lb.partial_semigroup_exact(biased, x, t)) < 1e-10

    def test_negative_time(self, maxmix, pauli):
        with pytest.raises(ValueError):
            lb.partial_semigroup_exact(maxmix, pauli[0], -0.5)


class TestErgodicState:
    def test_sz_expectation(self, biased, pauli):
        assert abs(lb.ergodic_state(biased, pauli[1]) - 0.4) < 1e-12

    def test_product_rule(self, biased, pauli):
        sz = pauli[1]
        x = sz * sz.translate((1,))
        assert abs(lb.ergodic_state(biased, x) - 0.4**2) < 1e-12

    def test_identity(self, biased, p2):
        assert lb.ergodic_state(biased, LocalOperator.identity(p2)) == 1.0

    def test_decay_to_ergodic_state(self, biased, p2, pauli):
        sx, sz, _, one = pauli
        x = sx + sz * 0.5
        ts = np.linspace(0.0, 3.0, 25)
        devs = [
            gns_norm(lb.partial_semigroup_exact(biased, x, t)
                     - one * lb.ergodic_state(biased, x))
            for t in ts
        ]
        rate, r2 = lb.decay_rate_fit(ts[1:], devs[1:], drop_frac=0.1)
        assert abs(rate - 1.0) < 1e-3
        assert r2 > 0.9999


class TestPerturbedErgodicState:
    def test_c_zero(self, biased, L_flip, pauli):
        val, err = lb.perturbed_ergodic_state(biased, L_flip, 0.0, pauli[1])
        assert val == lb.ergodic_state(biased, pauli[1])
        assert err == 0.0

    def test_identity(self, biased, L_flip, p2):
        val, _ = lb.perturbed_ergodic_state(biased, L_flip, 0.4, LocalOperator.identity(p2))
        assert abs(val - 1.0) < 1e-9

    def test_stationary_value(self, biased, L_flip, p2, pauli):
        # L^c(sz) = (0.4 - sz) - 2c sz has fixed point 0.4 / (1 + 2c).
        c = 0.1
        val, err = lb.perturbed_ergodic_state(biased, L_flip, c, pauli[1])
        assert abs(val - 0.4 / 1.2) < max(err, 1e-6)

    def test_dense_guard_before_assembly(self, p3, monkeypatch):
        # N=3 and a 2-site Kraus word: the default window has 5 sites and
        # 59 049 labels, far above dense.MAX_WINDOW_DIM.
        r = LocalOperator.site_word(p3, (0,), 1, 0) * LocalOperator.site_word(p3, (1,), 0, 1)
        L = lb.Lindbladian.single_kraus(r)
        state = dense.StateSpec(np.diag([0.5, 0.3, 0.2]))
        x = LocalOperator.site_word(p3, (0,), 1, 1)
        assert len(lb.default_window(lb.Lindbladian.perturbed(p3, state, L.kraus, 0.5), x)) == 5

        def forbidden(*_args, **_kwargs):
            raise AssertionError("built a basis past the guard")

        monkeypatch.setattr(dense, "window_basis", forbidden)
        with pytest.raises(SizeGuardError):
            lb.perturbed_ergodic_state(state, L, 0.5, x)

    @pytest.mark.parametrize("c", [0.1, 0.5, 2.0])
    def test_closed_forms(self, biased, L_flip, pauli, c):
        # L^c(sz) = (0.4 - sz) - 2c sz for sigma_x, and (0.4 - sz) - 4c sz
        # for sigma_x sigma_x, whose two translates both flip sz.
        sx, sz = pauli[0], pauli[1]
        pair = lb.Lindbladian.single_kraus(sx * sx.translate((1,)))
        val, _ = lb.perturbed_ergodic_state(biased, L_flip, c, sz)
        assert abs(val - 0.4 / (1 + 2 * c)) < 1e-12
        val, _ = lb.perturbed_ergodic_state(biased, pair, c, sz)
        assert abs(val - 0.4 / (1 + 4 * c)) < 1e-12

    def test_two_site_family_matches_quadrature(self, p2, pauli):
        # The window's interior closure keeps the right-edge site's
        # partial-state members, so P_t x relaxes to a multiple of 1 and the
        # integral of Phi(L(P_t x)) converges.
        sx, sz = pauli[0], pauli[1]
        L = lb.Lindbladian.single_kraus(sx * sx.translate((1,)) + 0.5 * sz)
        state = dense.StateSpec(np.array([[0.7, 0.1], [0.1, 0.3]]))
        c = 0.1
        val, err = lb.perturbed_ergodic_state(state, L, c, sx)
        assert abs(val - 0.19665075) < 1e-8 and err < 1e-12

        Lc = lb.Lindbladian.perturbed(p2, state, L.kraus, c)
        sites = lb.default_window(Lc, sx)
        basis = dense.window_basis(p2, sites)
        index = {lab: i for i, lab in enumerate(basis)}
        phi_l = np.array([lb.ergodic_state(state, L.apply(LocalOperator.weyl(p2, lab)))
                          for lab in basis])
        grid = np.linspace(0.0, 60.0, 1201)
        res = lb.evolve(Lc, sx, grid, window=sites)
        integrand = [phi_l @ dense.coefficient_vector(y, index) for y in res.values]
        ref = lb.ergodic_state(state, sx) + c * scipy.integrate.simpson(integrand, x=grid)
        assert abs(integrand[-1]) < 1e-12
        assert abs(val - ref) < 1e-6

    def test_several_stationary_states_raise(self, biased, L_flip, pauli, monkeypatch):
        # A zero window generator fixes every string: the bordered LU is
        # exactly singular.
        real = lb.generator_matrix

        def zero(*args, **kwargs):
            mat, basis, index, edge = real(*args, **kwargs)
            return scipy.sparse.csr_matrix(mat.shape, dtype=complex), basis, index, edge

        monkeypatch.setattr(lb, "generator_matrix", zero)
        with pytest.raises(DivergenceError, match="more than one stationary state"):
            lb.perturbed_ergodic_state(biased, L_flip, 0.1, pauli[1])

    def test_no_expm_multiply_step(self, biased, L_flip, pauli, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("stepped the semigroup")

        monkeypatch.setattr(lb, "expm_multiply", forbidden)
        val, _ = lb.perturbed_ergodic_state(biased, L_flip, 0.1, pauli[1])
        assert abs(val - 0.4 / 1.2) < 1e-12

    def test_callers_image_table_does_not_grow(self, pauli):
        # The row reads every basis string's image once; it must not leave
        # them in the caller's generator.
        sx, sz = pauli[0], pauli[1]
        L = lb.Lindbladian.single_kraus(sx * sx.translate((1,)) + 0.5 * sz)
        state = dense.StateSpec(np.array([[0.7, 0.1], [0.1, 0.3]]))
        val, _ = lb.perturbed_ergodic_state(state, L, 0.1, sx)
        assert abs(val - 0.19665075) < 1e-8
        assert L._images == {}

    def test_invariance_under_flow(self, biased, L_flip, p2, pauli):
        c = 0.1
        Lc = lb.Lindbladian.perturbed(p2, biased, L_flip.kraus, c)
        moved = lb.evolve(Lc, pauli[1], [0.0, 0.5], tol=1e-12).values[1]
        v1, e1 = lb.perturbed_ergodic_state(biased, L_flip, c, pauli[1])
        v2, e2 = lb.perturbed_ergodic_state(biased, L_flip, c, moved)
        assert abs(v1 - v2) < max(e1 + e2, 1e-6)


class TestDecayRateFit:
    def test_exponential(self):
        ts = np.linspace(0.0, 5.0, 40)
        rate, r2 = lb.decay_rate_fit(ts, np.exp(-ts))
        assert abs(rate - 1.0) < 1e-6 and r2 > 0.999999

    def test_scaled_half_rate(self):
        ts = np.linspace(0.0, 5.0, 40)
        rate, _ = lb.decay_rate_fit(ts, 2.0 * np.exp(-0.5 * ts))
        assert abs(rate - 0.5) < 1e-6

    def test_constant(self):
        ts = np.linspace(0.0, 5.0, 10)
        rate, r2 = lb.decay_rate_fit(ts, np.full(10, 2.2))
        assert abs(rate) < 1e-12 and r2 == 1.0

    def test_errors(self):
        with pytest.raises(FitError):
            lb.decay_rate_fit([0, 1], [1.0, 0.5])
        with pytest.raises(FitError):
            lb.decay_rate_fit([0, 1, 2, 3], [1.0, 0.5, -0.2, 0.1])


class TestPerturbedRateTable:
    def test_rates_positive_and_nonincreasing(self, p2, maxmix, pauli):
        # sigma_x commutes with the perturbing word, so its seminorm decay
        # stays at the unperturbed rate for every c.
        sx = pauli[0]
        kraus = lb.KrausFamily((sx,), unital=True)
        grid = np.linspace(0.0, 2.5, 11)
        rates = []
        for c in (0.0, 0.05, 0.1):
            L = (lb.Lindbladian.partial_state(p2, maxmix) if c == 0
                 else lb.Lindbladian.perturbed(p2, maxmix, kraus, c))
            res = lb.evolve(L, sx, grid, tol=1e-12)
            vals = [seminorm_one(v) for v in res.values]
            rate, r2 = lb.decay_rate_fit(grid, vals, drop_frac=0.1)
            assert r2 > 0.999
            rates.append(rate)
        assert all(r > 0 for r in rates)
        assert all(rates[i + 1] <= rates[i] + 1e-6 for i in range(len(rates) - 1))


class TestMultiDerivation:
    def test_single_lind(self, L_flip, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        m = lb.MultiIndex(((0,),), (0,))
        assert lb.multi_derivation(L_flip, x, m).sup_diff(L_flip.lind_k((0,), x)) == 0.0

    def test_composition_order(self, L_flip, p2, rng):
        x = random_local(p2, rng, [(0,), (1,)])
        m = lb.MultiIndex(((0,), (1,)), (1, -1))
        manual = L_flip.derivation(-1, (1,), L_flip.derivation(1, (0,), x))
        assert lb.multi_derivation(L_flip, x, m).sup_diff(manual) == 0.0

    def test_adjoint_eps_flip(self, L_flip, p2, rng):
        for _ in range(10):
            x = random_local(p2, rng, [(0,), (1,)])
            m = lb.MultiIndex(((0,), (0,)), (1, -1))
            flipped = lb.MultiIndex(m.kbar, tuple(-e for e in m.epsbar))
            lhs = lb.multi_derivation(L_flip, x, m).adjoint()
            rhs = lb.multi_derivation(L_flip, x.adjoint(), flipped)
            assert lhs.sup_diff(rhs) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            lb.MultiIndex(((0,),), (2,))
        with pytest.raises(ValueError):
            lb.MultiIndex((), ())


class TestLeibnizExpansion:
    def test_n1_exact(self, L_flip, pauli):
        assert lb.leibniz_expansion_check(L_flip, pauli[1], [(0,)]) == 0.0

    @pytest.mark.parametrize("kbar", [[(0,), (0,)], [(0,), (1,)], [(1,), (0,), (0,)]])
    def test_higher_orders(self, L_flip, p2, rng, kbar):
        x = random_local(p2, rng, [(0,), (1,)])
        assert lb.leibniz_expansion_check(L_flip, x, kbar) < 1e-12

    def test_identity_trivial(self, L_flip, p2):
        assert lb.leibniz_expansion_check(L_flip, LocalOperator.identity(p2),
                                          [(0,), (1,)]) < 1e-14

    def test_two_site_word(self, p2, pauli, rng):
        r2 = pauli[0] * pauli[0].translate((1,))
        L = lb.Lindbladian.single_kraus(r2, unital=True)
        x = random_local(p2, rng, [(0,), (1,)])
        assert lb.leibniz_expansion_check(L, x, [(0,), (-1,)]) < 1e-12


class TestLemmaBounds:
    def test_frozen_example(self, L_flip, pauli):
        rep = lb.lemma_bound_report(L_flip, pauli[1], 1, "pure")
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(4.0, abs=1e-12)

    def test_identity_observable(self, L_flip, p2):
        rep = lb.lemma_bound_report(L_flip, LocalOperator.identity(p2), 2, "pure")
        assert rep.lhs == 0.0

    def test_random_suite(self, p2, pauli, rng):
        sx = pauli[0]
        r2 = (sx + sx.translate((1,))) * 0.6
        for L in (lb.Lindbladian.single_kraus(sx, unital=True),
                  lb.Lindbladian.single_kraus(r2)):
            for _ in range(10):
                x = random_local(p2, rng, [(0,), (1,)])
                n = int(rng.integers(1, 3))
                eps = tuple(int(rng.choice([-1, 1])) for _ in range(n))
                rep = lb.lemma_bound_report(L, x, n, "pure", epsbar=eps)
                assert rep.lhs <= rep.rhs * (1 + 1e-12)
                eps0 = tuple(0 if rng.random() < 0.5 else e for e in eps)
                rep = lb.lemma_bound_report(L, x, n, "mixed", epsbar=eps0)
                assert rep.lhs <= rep.rhs * (1 + 1e-12)

    def test_product_mode(self, L_flip, p2, rng):
        x = random_local(p2, rng, [(0,)])
        y = random_local(p2, rng, [(0,), (1,)])
        rep = lb.lemma_bound_report(L_flip, x, 1, "product",
                                    y=y, eps1=(1,), eps2=(-1,))
        assert rep.lhs <= rep.rhs * (1 + 1e-12)
