"""Exterior algebra unit and property tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import brute_hodge, brute_wedge, shuffle_products
from wedgeopt import forms
from wedgeopt.errors import DomainError
from wedgeopt.forms import (
    KForm,
    MultiIndex,
    basis_form,
    contract,
    from_vector,
    hodge,
    inner,
    rank_multi_index,
    unrank_multi_index,
    wedge,
    zero_form,
)

coeff_elements = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def form_strategy(n, k):
    return arrays(np.float64, math.comb(n, k), elements=coeff_elements).map(
        lambda c: KForm(n, k, c)
    )


@st.composite
def wedgeable_pairs(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    l = draw(st.integers(0, n - k))
    return draw(form_strategy(n, k)), draw(form_strategy(n, l))


@st.composite
def single_forms(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    return draw(form_strategy(n, k))


class TestMultiIndex:
    @pytest.mark.parametrize(
        "indices,expected",
        [((1, 2), 0), ((1, 3), 1), ((2, 3), 2)],
    )
    def test_rank_examples(self, indices, expected):
        assert rank_multi_index(MultiIndex(indices, 3)) == expected

    def test_round_trip_exhaustive(self):
        import itertools

        for n in range(1, 9):
            for k in range(0, n + 1):
                for position in range(math.comb(n, k)):
                    index = unrank_multi_index(position, n, k)
                    assert rank_multi_index(index) == position
                for combo in itertools.combinations(range(1, n + 1), k):
                    index = MultiIndex(combo, n)
                    assert unrank_multi_index(rank_multi_index(index), n, k) == index

    def test_lex_order(self):
        previous = None
        for position in range(math.comb(5, 3)):
            current = unrank_multi_index(position, 5, 3).indices
            if previous is not None:
                assert previous < current
            previous = current

    @pytest.mark.parametrize("indices", [(2, 1), (1, 1), (0, 2), (1, 4)])
    def test_invalid_indices(self, indices):
        with pytest.raises(DomainError):
            MultiIndex(indices, 3)

    def test_unrank_out_of_range(self):
        with pytest.raises(DomainError):
            unrank_multi_index(3, 3, 2)


class TestKForm:
    def test_from_vector_examples(self):
        assert np.array_equal(from_vector([1, 0, 0]).coeffs, [1.0, 0.0, 0.0])
        assert np.array_equal(from_vector([0, 0, 0]).coeffs, [0.0, 0.0, 0.0])
        assert np.array_equal(from_vector([2, -1, 5]).coeffs, [2.0, -1.0, 5.0])

    def test_from_vector_empty(self):
        with pytest.raises(DomainError):
            from_vector([])

    def test_coeff_length_enforced(self):
        with pytest.raises(DomainError):
            KForm(3, 2, [1.0, 2.0])

    def test_finite_enforced(self):
        with pytest.raises(DomainError):
            KForm(2, 1, [np.nan, 0.0])

    def test_grade_bounds(self):
        with pytest.raises(DomainError):
            KForm(2, 3, [0.0])

    def test_scalar_grades_are_single_coefficients(self):
        assert zero_form(4, 0).coeffs.shape == (1,)
        assert zero_form(4, 4).coeffs.shape == (1,)

    def test_immutable(self):
        form = from_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            form.coeffs[0] = 5.0

    def test_dense_reconstruction_agrees_on_sorted_indices(self):
        from reference import dense_tensor, sorted_coeffs

        rng = np.random.default_rng(17)
        for n, k in [(3, 2), (4, 2), (5, 3), (5, 0), (4, 4)]:
            coeffs = rng.standard_normal(math.comb(n, k))
            dense = dense_tensor(n, k, coeffs)
            assert np.array_equal(sorted_coeffs(dense, n, k), coeffs)

    def test_dimension_cap_override(self, monkeypatch):
        monkeypatch.setenv("WEDGEOPT_MAX_DIMENSION", "4")
        with pytest.raises(DomainError, match="cap"):
            from_vector(np.ones(5))
        monkeypatch.setenv("WEDGEOPT_MAX_DIMENSION", "40")
        assert from_vector(np.ones(35)).n == 35
        monkeypatch.setenv("WEDGEOPT_MAX_DIMENSION", "not-a-number")
        with pytest.raises(DomainError):
            from_vector(np.ones(3))


class TestWedge:
    def test_basis_example(self):
        out = wedge(basis_form(3, [1]), basis_form(3, [2]))
        assert np.array_equal(out.coeffs, [1.0, 0.0, 0.0])

    def test_self_wedge_vanishes(self):
        v = from_vector([1.5, -2.0, 0.25, 3.0])
        assert np.all(wedge(v, v).coeffs == 0.0)

    def test_bilinear_basis_case(self):
        out = wedge(from_vector([1, 0, 0]), from_vector([0, 2, 0]))
        assert np.array_equal(out.coeffs, [2.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            wedge(from_vector([1, 0]), from_vector([1, 0, 0]))

    def test_grade_overflow(self):
        with pytest.raises(DomainError):
            wedge(basis_form(3, [1, 2]), basis_form(3, [1, 3]))

    def test_scalar_factor(self):
        scalar = KForm(3, 0, [2.5])
        v = from_vector([1.0, 2.0, 3.0])
        assert np.allclose(wedge(scalar, v).coeffs, 2.5 * v.coeffs)
        assert np.allclose(wedge(v, scalar).coeffs, 2.5 * v.coeffs)

    @settings(deadline=None, max_examples=60)
    @given(wedgeable_pairs())
    def test_graded_anticommutativity(self, pair):
        a, b = pair
        forward = wedge(a, b)
        backward = wedge(b, a)
        sign = -1.0 if (a.k * b.k) % 2 else 1.0
        scale = a.norm() * b.norm() + 1.0
        assert np.allclose(forward.coeffs, sign * backward.coeffs, rtol=1e-12, atol=1e-12 * scale)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_associativity_on_1_forms(self, n, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (from_vector(rng.standard_normal(n)) for _ in range(3))
        if u.k + v.k + w.k > n:
            return
        left = wedge(wedge(u, v), w)
        right = wedge(u, wedge(v, w))
        scale = u.norm() * v.norm() * w.norm() + 1.0
        assert np.allclose(left.coeffs, right.coeffs, rtol=1e-12, atol=1e-12 * scale)

    def test_dependent_1_forms_vanish(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 9)
            v = rng.standard_normal(n)
            c = rng.standard_normal() * 3.0
            out = wedge(from_vector(v), from_vector(c * v))
            assert np.max(np.abs(out.coeffs)) <= 1e-12 * (np.linalg.norm(v) ** 2 * abs(c) + 1.0)

    def test_against_dense_shuffle_sum(self):
        rng = np.random.default_rng(11)
        for n in range(1, 6):
            for k in range(0, n + 1):
                for l in range(0, n - k + 1):
                    a = KForm(n, k, rng.standard_normal(math.comb(n, k)))
                    b = KForm(n, l, rng.standard_normal(math.comb(n, l)))
                    expected = brute_wedge(n, k, l, a.coeffs, b.coeffs)
                    assert np.allclose(wedge(a, b).coeffs, expected, rtol=1e-12, atol=1e-12)


class TestContract:
    def test_basis_examples(self):
        e12 = basis_form(3, [1, 2])
        assert np.array_equal(contract(basis_form(3, [1]), e12).coeffs, basis_form(3, [2]).coeffs)
        assert np.array_equal(contract(basis_form(3, [2]), e12).coeffs, -basis_form(3, [1]).coeffs)
        assert np.array_equal(contract(basis_form(3, [3]), e12).coeffs, zero_form(3, 1).coeffs)
        assert np.array_equal(contract(e12, e12).coeffs, [1.0])

    def test_grade_and_dimension_checks(self):
        with pytest.raises(DomainError):
            contract(basis_form(3, [1, 2]), basis_form(3, [1]))
        with pytest.raises(DomainError):
            contract(from_vector([1, 0]), basis_form(3, [1, 2]))

    def test_adjoint_of_dense_wedge(self):
        # Every coefficient of contract(a, c) is <a ^ e_J, c> with the wedge
        # taken from the dense reference, so contract is the adjoint of a ^ .
        rng = np.random.default_rng(12)
        for n in range(1, 6):
            for k in range(0, n + 1):
                for l in range(0, n - k + 1):
                    a = rng.standard_normal(math.comb(n, k))
                    c = KForm(n, k + l, rng.standard_normal(math.comb(n, k + l)))
                    x = rng.standard_normal(math.comb(n, l))
                    out = contract(KForm(n, k, a), c)
                    assert out.k == l
                    basis = np.eye(math.comb(n, l))
                    expected = [brute_wedge(n, k, l, a, e) @ c.coeffs for e in basis]
                    assert np.allclose(out.coeffs, expected, rtol=1e-12, atol=1e-12)
                    lhs = brute_wedge(n, k, l, a, x) @ c.coeffs
                    assert lhs == pytest.approx(inner(KForm(n, l, x), out), rel=1e-10, abs=1e-12)


class TestSplitTable:
    """The one table kind that wedge and contract run on, composed from the
    grade-1 tables, against an explicit shuffle sum, through both the
    whole-table and the per-split branch of each kernel."""

    @staticmethod
    def shapes():
        for n in range(1, 9):
            for k in range(0, n + 1):
                for l in range(0, n - k + 1):
                    yield n, k, l
        for n in (9, 10):
            for g in range(1, n):
                yield n, g, 1
                yield n, 1, g

    def test_matches_shuffle_sum(self, monkeypatch):
        rng = np.random.default_rng(13)
        for n, k, l in self.shapes():
            a = rng.standard_normal(math.comb(n, k))
            b = rng.standard_normal(math.comb(n, l))
            c = rng.standard_normal(math.comb(n, k + l))
            product, interior = shuffle_products(n, k, l, a, b, c)
            form = KForm(n, k, a)
            # 0 sends every shape through the kernels' per-split loops
            for whole_table_max in (forms._WHOLE_TABLE_MAX, 0):
                with monkeypatch.context() as patch:
                    patch.setattr(forms, "_WHOLE_TABLE_MAX", whole_table_max)
                    wedged = wedge(form, KForm(n, l, b))
                    contracted = contract(form, KForm(n, k + l, c))
                assert np.max(np.abs(wedged.coeffs - product)) <= 1e-13
                assert np.max(np.abs(contracted.coeffs - interior)) <= 1e-13

    def test_vector_into_high_grade_uses_grade_one_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"contract built a split table {args}")

        monkeypatch.setattr(forms, "_split_table", refuse)
        rng = np.random.default_rng(14)
        v = from_vector(rng.standard_normal(18))
        c = KForm(18, 9, rng.standard_normal(math.comb(18, 9)))
        x = KForm(18, 8, rng.standard_normal(math.comb(18, 8)))
        out = contract(v, c)
        assert out.k == 8
        lhs = inner(wedge(v, x), c)
        assert lhs == pytest.approx(inner(x, out), rel=1e-10)

    def test_combos_match_itertools(self):
        for n in range(1, 13):
            for k in range(0, n + 1):
                expected = list(itertools.combinations(range(n), k))
                assert [tuple(row) for row in forms._combos(n, k).tolist()] == expected


class TestHodge:
    def test_examples(self):
        assert np.array_equal(hodge(basis_form(3, [1])).coeffs, basis_form(3, [2, 3]).coeffs)
        assert np.array_equal(hodge(basis_form(3, [1, 2, 3])).coeffs, [1.0])
        assert np.array_equal(hodge(basis_form(4, [1, 2])).coeffs, basis_form(4, [3, 4]).coeffs)

    def test_odd_parity_example(self):
        # parity of (1, 3, 2) is odd
        assert np.array_equal(hodge(basis_form(3, [1, 3])).coeffs, -basis_form(3, [2]).coeffs)

    def test_scalar_and_volume(self):
        assert np.array_equal(hodge(KForm(3, 0, [1.0])).coeffs, [1.0])
        assert np.array_equal(hodge(basis_form(5, [1, 2, 3, 4, 5])).coeffs, [1.0])

    def test_involution_all_basis_forms(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                sign = -1.0 if (k * (n - k)) % 2 else 1.0
                for position in range(math.comb(n, k)):
                    coeffs = np.zeros(math.comb(n, k))
                    coeffs[position] = 1.0
                    out = hodge(hodge(KForm(n, k, coeffs)))
                    assert np.array_equal(out.coeffs, sign * coeffs)

    @settings(deadline=None, max_examples=80)
    @given(single_forms())
    def test_involution_random_forms(self, form):
        sign = -1.0 if (form.k * (form.n - form.k)) % 2 else 1.0
        assert np.array_equal(hodge(hodge(form)).coeffs, sign * form.coeffs)

    def test_against_levi_civita_enumeration(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            for k in range(0, n + 1):
                for _ in range(3):
                    coeffs = rng.standard_normal(math.comb(n, k))
                    expected = brute_hodge(n, k, coeffs)
                    assert np.allclose(hodge(KForm(n, k, coeffs)).coeffs, expected, atol=1e-13)

    def test_cross_product_bridge(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            out = hodge(wedge(from_vector(u), from_vector(v)))
            assert np.allclose(out.coeffs, np.cross(u, v), rtol=1e-12, atol=1e-14)


class TestInner:
    def test_examples(self):
        e12 = basis_form(3, [1, 2])
        e13 = basis_form(3, [1, 3])
        assert inner(e12, e12) == 1.0
        assert inner(e12, e13) == 0.0
        two_e1 = KForm(3, 1, [2.0, 0.0, 0.0])
        three_e1 = KForm(3, 1, [3.0, 0.0, 0.0])
        assert inner(two_e1, three_e1) == 6.0

    def test_positive_definite(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(math.comb(5, 2))
        form = KForm(5, 2, coeffs)
        assert inner(form, form) == pytest.approx(float(coeffs @ coeffs))
        assert inner(zero_form(5, 2), zero_form(5, 2)) == 0.0

    def test_mismatch(self):
        with pytest.raises(DomainError):
            inner(basis_form(3, [1]), basis_form(3, [1, 2]))
        with pytest.raises(DomainError):
            inner(from_vector([1, 0]), from_vector([1, 0, 0]))
