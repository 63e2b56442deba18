"""Smith normal form: recomposition, unimodularity, divisor chains."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle.snf import (
    _sparse_unit_reduction,
    identity,
    invariant_factors,
    invariant_factors_sparse,
    is_unimodular_square,
    matmul,
    smith_normal_form,
)


def rational_rank(matrix):
    """Independent rank oracle via fraction Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                factor = rows[i][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def assert_valid_snf(matrix, rows=None, cols=None):
    result = smith_normal_form(matrix, rows=rows, cols=cols)
    recomposed = matmul(matmul(result.u, [list(r) for r in matrix]), result.v)
    if not recomposed:
        recomposed = [[] for _ in range(result.rows)]
    assert recomposed == result.d
    assert matmul(result.u, result.u_inv) == identity(result.rows)
    assert matmul(result.v, result.v_inv) == identity(result.cols)
    diag = result.diagonal()
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert all(x > 0 for x in diag)
    for i in range(result.rows):
        for j in range(result.cols):
            if i != j:
                assert result.d[i][j] == 0
    return result


class TestKnownMatrices:
    def test_two_by_two(self):
        result = assert_valid_snf([[2, 4], [6, 8]])
        assert result.diagonal() == [2, 4]

    def test_zero_matrix(self):
        result = assert_valid_snf([[0, 0], [0, 0]])
        assert result.diagonal() == []
        assert result.u == identity(2) and result.v == identity(2)

    def test_identity(self):
        result = assert_valid_snf(identity(3))
        assert result.diagonal() == [1, 1, 1]

    def test_divisibility_fix(self):
        # diag(2, 3) has invariant factors (1, 6)
        result = assert_valid_snf([[2, 0], [0, 3]])
        assert result.diagonal() == [1, 6]

    def test_single_row(self):
        result = assert_valid_snf([[6, 10, 15]])
        assert result.diagonal() == [1]

    def test_empty_shapes(self):
        result = smith_normal_form([], rows=0, cols=3)
        assert result.diagonal() == []
        assert result.v == identity(3)

    def test_torsion_matrix(self):
        # boundary of the real projective plane style relation
        assert invariant_factors([[2]]) == [2]
        assert invariant_factors([[4, 6], [6, 4]]) == [2, 10]


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestRandomMatrices:
    @given(small_matrices)
    @settings(max_examples=120, deadline=None)
    def test_recomposition_and_unimodularity(self, matrix):
        assert_valid_snf(matrix)

    @given(small_matrices)
    @settings(max_examples=120, deadline=None)
    def test_fast_factors_agree_with_tracked_form(self, matrix):
        assert invariant_factors(matrix) == smith_normal_form(matrix).diagonal()

    @given(small_matrices)
    @settings(max_examples=120, deadline=None)
    def test_rank_matches_rational_oracle(self, matrix):
        assert len(invariant_factors(matrix)) == rational_rank(matrix)


class TestUnimodularTest:
    def test_accepts_unimodular(self):
        assert is_unimodular_square([[1, 5], [0, -1]])

    def test_rejects_determinant_two(self):
        assert not is_unimodular_square([[2, 1], [0, 1]])

    def test_rejects_rectangular(self):
        assert not is_unimodular_square([[1, 0, 0], [0, 1, 0]])

    def test_empty_is_unimodular(self):
        assert is_unimodular_square([])


# entry mixes from all +-1 (every entry a pivot candidate) to nearly all zero
VALUE_MIXES = (
    (1, -1),
    (0, 1, -1),
    (0, 0, 0, 1, -1, 2),
    (0, 0, 0, 0, 0, 0, 1, -1, 2, -3),
    (0,) * 12 + (1, -1, 4),
)


@st.composite
def sparse_matrices(draw, max_side=40):
    rows = draw(st.integers(min_value=1, max_value=max_side))
    cols = draw(st.integers(min_value=1, max_value=max_side))
    mix = draw(st.sampled_from(VALUE_MIXES))
    rnd = draw(st.randoms(use_true_random=False))
    return [[rnd.choice(mix) for _ in range(cols)] for _ in range(rows)]


def sparse_maps(matrix):
    rows_map = {}
    for i, row in enumerate(matrix):
        entries = {j: v for j, v in enumerate(row) if v}
        if entries:
            rows_map[i] = entries
    cols_map = {}
    for r, row in rows_map.items():
        for c in row:
            cols_map.setdefault(c, set()).add(r)
    return rows_map, cols_map


class TestSparseReduction:
    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_tracked_form(self, matrix):
        assert invariant_factors(matrix) == smith_normal_form(matrix).diagonal()

    @given(sparse_matrices())
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_sympy(self, matrix):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import ZZ, Matrix

        d = normalforms.smith_normal_form(Matrix(matrix), domain=ZZ)
        expected = [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i]]
        assert invariant_factors(matrix) == expected

    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_unit_reduction_contract(self, matrix):
        rows_map, cols_map = sparse_maps(matrix)
        pivots = _sparse_unit_reduction(rows_map, cols_map)
        assert type(pivots) is int
        # every pivot is one unit invariant factor; the rest come from what is left
        leftover = [
            [rows_map[r].get(c, 0) for c in range(len(matrix[0]))] for r in sorted(rows_map)
        ]
        assert [1] * pivots + invariant_factors(leftover) == invariant_factors(matrix)
        assert all(row for row in rows_map.values())
        assert not any(v in (1, -1) for row in rows_map.values() for v in row.values())
        for c, rs in cols_map.items():
            assert rs == {r for r, row in rows_map.items() if c in row}
        assert all(r in cols_map[c] for r, row in rows_map.items() for c in row)

    def test_empty_matrix(self):
        assert _sparse_unit_reduction({}, {}) == 0
        assert invariant_factors_sparse({}) == []
        assert invariant_factors_sparse({0: {}, 3: {}}) == []
        assert invariant_factors([[0, 0], [0, 0]]) == []
        assert invariant_factors([]) == []
