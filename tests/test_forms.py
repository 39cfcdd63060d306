"""Exterior algebra unit and property tests."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import allocates_nothing
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
                    again = unrank_multi_index(rank_multi_index(index), n, k)
                    assert again == index and hash(again) == hash(index)

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

    def test_non_integral_index_refused(self):
        # a cast to int would make it (1, 2)
        with pytest.raises(DomainError, match=r"indices: expected an integer, got 1\.5"):
            MultiIndex((1.5, 2), 3)

    def test_bool_index_refused(self):
        with pytest.raises(DomainError, match="indices: expected an integer, got True"):
            MultiIndex((True, 2), 3)

    def test_non_multi_index_refused(self):
        # a bare tuple has no .n or .k: an AttributeError before
        with pytest.raises(DomainError, match=r"index: expected a MultiIndex, got \(1, 2\)"):
            rank_multi_index((1, 2))

    def test_non_sequence_indices_refused(self):
        # an int is not iterable: a TypeError before
        with pytest.raises(DomainError, match="indices: expected a sequence of integers, got 5"):
            MultiIndex(5, 3)

    def test_non_integral_position_refused(self):
        # a cast to int would make it position 1, the index (1, 3)
        with pytest.raises(DomainError, match=r"position: expected an integer, got 1\.5"):
            unrank_multi_index(1.5, 4, 2)

    def test_non_integral_unrank_dimension_refused(self):
        # math.comb would raise a bare TypeError on it
        with pytest.raises(DomainError, match=r"n: expected an integer, got 4\.5"):
            unrank_multi_index(0, 4.5, 2)

    def test_numpy_integers_accepted(self):
        index = unrank_multi_index(np.int64(1), np.int32(4), np.uint8(2))
        assert index == MultiIndex((np.int64(1), np.int16(3)), np.int64(4))
        assert type(index.n) is int and all(type(i) is int for i in index.indices)


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

    def test_non_integral_dimension_refused(self):
        # a cast to int would make it n = 3
        with pytest.raises(DomainError, match=r"n: expected an integer, got 3\.5"):
            KForm(3.5, 1, [1, 2, 3])

    def test_bool_grade_refused(self):
        with pytest.raises(DomainError, match="k: expected an integer, got True"):
            KForm(3, True, [1, 2, 3])

    def test_non_integral_zero_form_grade_refused(self):
        # math.comb would raise a bare TypeError on it
        with pytest.raises(DomainError, match=r"k: expected an integer, got 1\.5"):
            zero_form(3, 1.5)

    def test_non_integral_basis_form_dimension_refused(self):
        # math.comb would raise a bare TypeError on it
        with pytest.raises(DomainError, match=r"n: expected an integer, got 3\.7"):
            basis_form(3.7, [1])

    def test_numpy_integer_dimension_and_grade_accepted(self):
        form = KForm(np.int64(3), np.int8(1), [1, 2, 3])
        assert type(form.n) is int and type(form.k) is int
        assert zero_form(np.int64(3), np.int64(2)).k == 2

    def test_scalar_grades_are_single_coefficients(self):
        assert zero_form(4, 0).coeffs.shape == (1,)
        assert zero_form(4, 4).coeffs.shape == (1,)

    def test_immutable(self):
        form = from_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            form.coeffs[0] = 5.0

    def test_norm_across_the_float_range(self):
        # the plain norm underflows to 0 on the first and overflows to inf on the second
        assert KForm(3, 1, [3e-170, 4e-170, 0]).norm() == 5e-170
        assert KForm(3, 1, [1e200, 0, 0]).norm() == 1e200
        assert zero_form(4, 2).norm() == 0.0
        with pytest.raises(DomainError, match="norm is not representable"):
            KForm(2, 1, [1.5e308, 1.5e308]).norm()

    def test_norm_is_the_plain_norm_in_range(self):
        rng = np.random.default_rng(18)
        for size in (1, 3, 10, 35):
            coeffs = rng.standard_normal(size) * 10.0 ** rng.integers(-100, 100, size)
            form = KForm(size, 1, coeffs)
            assert form.norm() == float(np.linalg.norm(coeffs))

    def test_dense_reconstruction_agrees_on_sorted_indices(self):
        from reference import dense_tensor, sorted_coeffs

        rng = np.random.default_rng(17)
        for n, k in [(3, 2), (4, 2), (5, 3), (5, 0), (4, 4)]:
            coeffs = rng.standard_normal(math.comb(n, k))
            dense = dense_tensor(n, k, coeffs)
            assert np.array_equal(sorted_coeffs(dense, n, k), coeffs)

    def test_hard_dimension_limit(self):
        assert from_vector(np.ones(64)).n == 64
        with pytest.raises(DomainError, match=r"\[1, 64\], got 65"):
            from_vector(np.ones(65))

    def test_over_budget_forms_refused_before_allocating(self):
        # The (32, 8, 8) table would hold C(32, 16) C(16, 8), about 7.7e12, entries
        # per array; the zero form, C(64, 32), about 1.8e18, coefficients.
        octet = basis_form(32, range(1, 9))
        with allocates_nothing(), pytest.raises(DomainError, match="budget"):
            wedge(octet, octet)
        with allocates_nothing(), pytest.raises(DomainError, match="budget"):
            zero_form(64, 32)
        with allocates_nothing(), pytest.raises(DomainError, match="budget"):
            basis_form(64, range(1, 33))


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

    def test_overflow_refused_without_a_warning(self):
        # the suite turns the RuntimeWarning of the overflowing multiply into an error
        with pytest.raises(DomainError, match="^form coefficients must have finite entries$"):
            wedge(from_vector([1e200, 1, 0]), from_vector([0, 1e200, 1]))

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

    def test_vector_past_the_block_size_builds_no_table(self, monkeypatch):
        # C(18, 9) / 10 = 4862 targets per block on average, past _BLOCK_MIN: the
        # (8, 1) table is read block by block off the (7, 1) one and never built
        rng = np.random.default_rng(19)
        a = KForm(18, 8, rng.standard_normal(math.comb(18, 8)))
        v = from_vector(rng.standard_normal(18))
        grade_one_table = forms._grade1_table

        def table_below_8(n, k):
            if k >= 8:
                raise AssertionError(f"wedge built the ({k}, 1) table")
            return grade_one_table(n, k)

        forms._clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(forms, "_grade1_table", table_below_8)
            on_blocks = wedge(a, v)
        monkeypatch.setattr(forms, "_BLOCK_MIN", math.inf)
        assert np.array_equal(on_blocks.coeffs, wedge(a, v).coeffs)

    def test_vector_on_either_side_is_bit_identical(self, monkeypatch):
        # v ^ a is (-1)^8 a ^ v: the same terms in the same order, on blocks and on tables
        rng = np.random.default_rng(20)
        a = KForm(18, 8, rng.standard_normal(math.comb(18, 8)))
        v = from_vector(rng.standard_normal(18))
        on_blocks = wedge(v, a)
        assert np.array_equal(on_blocks.coeffs, wedge(a, v).coeffs)
        monkeypatch.setattr(forms, "_BLOCK_MIN", math.inf)
        on_tables = wedge(v, a)
        assert np.array_equal(on_tables.coeffs, wedge(a, v).coeffs)
        assert np.array_equal(on_tables.coeffs, on_blocks.coeffs)

    def test_cold_vector_on_the_left_peak(self):
        # 19.1 MiB when the (8, 1) table was built for it; 12.4 MiB on blocks, as for a ^ v
        rng = np.random.default_rng(21)
        a = KForm(18, 8, rng.standard_normal(math.comb(18, 8)))
        v = from_vector(rng.standard_normal(18))
        forms._clear_caches()
        tracemalloc.start()
        try:
            wedge(v, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20, f"peak {peak / 2**20:.1f} MiB"

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

    def test_overflow_refused_without_a_warning(self):
        # e1 into 1e200 e12 is -1e200 e2 ... times 1e200: past the double range
        with pytest.raises(DomainError, match="^form coefficients must have finite entries$"):
            contract(from_vector([1e200, 0, 0]), KForm(3, 2, [1e200, 0, 0]))

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
    whole-table and the per-split branch of the one product kernel; contract
    is (-1)^(kl + l(n-l)) *(a ^ *c), the product with the dual on the
    (k, n-k-l) table."""

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

    @pytest.mark.parametrize("n", [11, 12])
    def test_contract_through_the_dual_matches_shuffle_sum(self, n):
        rng = np.random.default_rng(n)
        for k in range(2, n - 1):
            for l in range(2, n - k + 1):
                a = rng.standard_normal(math.comb(n, k))
                c = rng.standard_normal(math.comb(n, k + l))
                _, interior = shuffle_products(n, k, l, a, np.zeros(math.comb(n, l)), c)
                contracted = contract(KForm(n, k, a), KForm(n, k + l, c))
                assert np.max(np.abs(contracted.coeffs - interior)) <= 1e-13

    def test_cold_contract_over_a_small_budget_refused(self, monkeypatch):
        # the (12, 6, 3) table that contract(3-form, 6-form) reads holds
        # 16 * C(12, 9) * C(9, 3) = 295,680 bytes, over a budget of 200,000
        monkeypatch.setattr(forms, "_WORK_BUDGET", 200_000)
        forms._clear_caches()
        a = KForm(12, 3, np.ones(math.comb(12, 3)))
        c = KForm(12, 6, np.ones(math.comb(12, 6)))
        with pytest.raises(DomainError, match=r"the \(12, 6, 3\) table"):
            contract(a, c)
        for table in (forms._split_table, forms._grade1_table, forms._hodge_signs):
            assert table.cache_info().currsize == 0

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

    @pytest.mark.parametrize(
        "product, grade, skipped",
        # v ^ F8 and v into F10 are (8, 1) products, v into F9 a (9, 1) one: each
        # past _BLOCK_MIN in R^18, so read block by block off the table a grade down
        [(wedge, 8, 8), (contract, 9, 9), (contract, 10, 8)],
    )
    def test_vector_on_the_left_past_the_block_size_builds_no_table(
        self, monkeypatch, product, grade, skipped
    ):
        rng = np.random.default_rng(grade)
        v = from_vector(rng.standard_normal(18))
        form = KForm(18, grade, rng.standard_normal(math.comb(18, grade)))
        grade_one_table = forms._grade1_table

        def table_below(n, k):
            if k >= skipped:
                raise AssertionError(f"{product.__name__} built the ({k}, 1) table")
            return grade_one_table(n, k)

        forms._clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(forms, "_grade1_table", table_below)
            on_blocks = product(v, form)
        monkeypatch.setattr(forms, "_BLOCK_MIN", math.inf)
        assert np.array_equal(on_blocks.coeffs, product(v, form).coeffs)

    def test_cold_vector_contract_over_a_small_budget_refused(self, monkeypatch):
        # v into an 8-form in R^14 reads the (14, 6, 1) table, whose chain from
        # grade 0 holds 917,504 bytes: refused before either dual is taken
        monkeypatch.setattr(forms, "_WORK_BUDGET", 500_000)
        forms._clear_caches()
        v = from_vector(np.ones(14))
        c = KForm(14, 8, np.ones(math.comb(14, 8)))
        with pytest.raises(DomainError, match=r"the \(14, 6, 1\) table"):
            contract(v, c)
        for table in (forms._combos, forms._split_table, forms._grade1_table, forms._hodge_signs):
            assert table.cache_info().currsize == 0

    def test_cold_scalar_product_builds_no_table(self):
        # a scalar times a 9-form in R^18, on either side, is b[0] * a; the
        # (18, 9, 0) split table and the index lists below it are not built
        rng = np.random.default_rng(16)
        form = KForm(18, 9, rng.standard_normal(math.comb(18, 9)))
        scalar = KForm(18, 0, [2.0])
        tables = (forms._combos, forms._split_table, forms._grade1_table, forms._hodge_signs)
        for left, right in ((scalar, form), (form, scalar)):
            forms._clear_caches()
            assert np.array_equal(wedge(left, right).coeffs, 2.0 * form.coeffs)
            assert all(table.cache_info().currsize == 0 for table in tables)
        # contract with a scalar builds only the sign tables of its duals
        forms._clear_caches()
        assert np.array_equal(contract(scalar, form).coeffs, 2.0 * form.coeffs)
        assert forms._split_table.cache_info().currsize == 0
        assert forms._grade1_table.cache_info().currsize == 0

    def test_interior_rows_are_vector_contractions(self):
        rng = np.random.default_rng(15)
        for n in range(1, 9):
            for k in range(1, n + 1):
                form = KForm(n, k, rng.standard_normal(math.comb(n, k)))
                rows = forms._interior_rows(form.coeffs, n, k)
                assert rows.shape == (n, math.comb(n, k - 1))
                for i in range(n):
                    expected = contract(basis_form(n, [i + 1]), form).coeffs
                    assert np.array_equal(rows[i], expected)

    def test_combos_match_itertools(self):
        for n in range(1, 15):
            for k in range(0, n + 1):
                expected = list(itertools.combinations(range(n), k))
                combos = forms._combos(n, k)
                assert combos.flags.f_contiguous
                assert [tuple(row) for row in combos.tolist()] == expected

    def test_grade_one_ranks_drop_one_slot(self):
        for n in range(1, 15):
            forms._clear_caches()
            # rank of each index by its bitmask, T without T_p being mask(T) - 2^T_p
            rank_of_mask = np.zeros(2**n, dtype=np.intp)
            for k in range(n + 1):
                for index in itertools.combinations(range(n), k):
                    mask = sum(1 << i for i in index)
                    rank_of_mask[mask] = rank_multi_index(MultiIndex([i + 1 for i in index], n))
            # highest grade first, so each table below is built cold by the chain
            for k in range(n - 1, -1, -1):
                targets, rank, sign = forms._grade1_table(n, k)
                assert np.array_equal(targets, forms._combos(n, k + 1).T)
                for table in (targets, rank, sign):
                    assert table.flags.c_contiguous and not table.flags.writeable
                assert rank.dtype == np.intp and rank.shape == targets.shape
                masks = (1 << targets).sum(axis=0)
                assert np.array_equal(rank, rank_of_mask[masks - (1 << targets)])
                assert np.array_equal(sign, (-1.0) ** (k - np.arange(k + 1)))

    def test_grade_one_chain_over_a_small_budget_refused(self, monkeypatch):
        # the (14, 6, 1) table holds 16 * 7 * C(14, 7) = 384,384 bytes, under the
        # budget, but its chain from grade 0 holds 917,504
        monkeypatch.setattr(forms, "_WORK_BUDGET", 500_000)
        forms._clear_caches()
        form = KForm(14, 6, np.ones(math.comb(14, 6)))
        with pytest.raises(DomainError, match="grade-1 tables below it"):
            wedge(form, from_vector(np.ones(14)))
        assert forms._grade1_table.cache_info().currsize == 0

    def test_grade_one_mirror_chain_over_a_small_budget_refused(self, monkeypatch):
        # the (14, 8, 1) table holds 16 * 9 * C(14, 9) = 288,288 bytes, and the
        # chain of its dual, the (14, 5, 1) table, 533,120: 821,408 in all
        monkeypatch.setattr(forms, "_WORK_BUDGET", 700_000)
        forms._clear_caches()
        form = KForm(14, 8, np.ones(math.comb(14, 8)))
        with pytest.raises(DomainError, match="grade-1 tables below its dual"):
            wedge(form, from_vector(np.ones(14)))
        assert forms._grade1_table.cache_info().currsize == 0


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

    def test_cold_signs_over_budget_refused_before_allocating(self):
        # 13 * C(30, 13), about 1.6e9, index entries: about 25 GB with the copy
        with allocates_nothing(), pytest.raises(DomainError, match="budget"):
            forms._hodge_signs(30, 13)

    def test_dual_over_a_small_budget_refused(self, monkeypatch):
        # 16 * 8 * C(16, 8) bytes, about 1.6 MB, over a budget of 1 MiB
        form = KForm(16, 8, np.ones(math.comb(16, 8)))
        forms._hodge_signs.cache_clear()
        monkeypatch.setattr(forms, "_WORK_BUDGET", 2**20)
        with pytest.raises(DomainError, match="Hodge signs"):
            hodge(form)

    @pytest.mark.parametrize("n, k", [(18, 12), (20, 15), (24, 21)])
    def test_dual_of_a_wedge_is_a_contraction_of_the_dual(self, n, k):
        # wedge reads the mirrored (k, 1) table; the rows of contract(e_i, *a) are
        # laid out from the (n-k-1, 1) block-copy table below n/2
        rng = np.random.default_rng(n + k)
        a = KForm(n, k, rng.standard_normal(math.comb(n, k)))
        v = rng.standard_normal(n)
        lhs = hodge(wedge(a, from_vector(v))).coeffs
        rhs = v @ forms._interior_rows(hodge(a).coeffs, n, n - k)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))

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

    def test_past_the_double_range_refused(self):
        # 1e400: not inf, nor a RuntimeWarning, which the suite turns into an error
        with pytest.raises(DomainError, match="^the inner product is not representable"):
            inner(from_vector([1e200, 1]), from_vector([1e200, 1]))

    def test_overflowing_products_that_cancel(self):
        # each product is 2^1100, past the double range, so the plain sum is inf - inf
        assert inner(from_vector([2.0**600, 2.0**600]), from_vector([2.0**500, -(2.0**500)])) == 0.0

    def test_small_terms_kept_where_the_largest_cancel(self):
        # exactly 3: 2^1100 - 2^1100 + 3, so no term may be scaled out of the sum
        a, b = from_vector([2**600, 2**600, 1]), from_vector([2**500, -(2**500), 3])
        assert inner(a, b) == 3.0

    def test_finite_results_are_the_plain_dot_product(self):
        rng = np.random.default_rng(3)
        for scale in (1e-300, 1e-150, 1.0, 1e150):
            a, b = rng.standard_normal((2, 10)) * scale
            assert inner(KForm(5, 2, a), KForm(5, 2, b)) == float(a @ b)

    def test_mismatch(self):
        with pytest.raises(DomainError):
            inner(basis_form(3, [1]), basis_form(3, [1, 2]))
        with pytest.raises(DomainError):
            inner(from_vector([1, 0]), from_vector([1, 0, 0]))
