import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import monoalg
from monoalg import validate
from monoalg.errors import InfiniteQuotientError, NotInLatticeError
from monoalg.errors import DimensionMismatchError, OutsideSpanError
from monoalg.intlinalg import (
    SpanSolver,
    echelon,
    hermite_normal_form,
    identity,
    nonnegative_combination_exists,
    quotient_group,
    rank,
    smith_normal_form,
)
from monoalg.semigroup import Frame
from oracles import (
    brute_rank,
    det,
    fraction_nonnegative_combination_exists,
    mat_mul,
    reference_hermite_normal_form,
    reference_smith_normal_form,
    solve_fractions,
)

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))



@st.composite
def cone_problems(draw):
    """Mixed-sign vectors in Z^m (possibly none) and a target that is either
    arbitrary or a nonnegative integer combination of them (possibly 0)."""
    m = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * m), max_size=5))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, 3), min_size=len(vecs),
                               max_size=len(vecs)))
        target = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs))
                       for i in range(m))
    else:
        target = draw(st.tuples(*[st.integers(-6, 6)] * m))
    return vecs, target


@st.composite
def span_problems(draw):
    """Vectors in Z^m (m <= 4) and a point that is an integer combination of
    them plus small noise, so it may leave the lattice or the span."""
    m = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * m),
                         min_size=1, max_size=m))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(vecs),
                           max_size=len(vecs)))
    noise = draw(st.tuples(*[st.integers(-2, 2)] * m))
    x = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) + noise[i]
              for i in range(m))
    return vecs, x


def lattice_contains(basis, x):
    """Integer membership of x in the span of independent rows, by exact
    solve (the combination coefficients are the unknowns)."""
    if not basis:
        return all(e == 0 for e in x)
    coeff = solve_fractions([tuple(r) for r in basis], x)
    return coeff is not None and all(q.denominator == 1 for q in coeff)


snf_matrices = st.integers(0, 6).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-40, 40), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@st.composite
def unimodular_and_matrix(draw):
    """A random integer matrix M and a unimodular W of matching size, the
    product of random row swaps, sign flips and row additions."""
    mat = draw(snf_matrices)
    n = len(mat)
    w = identity(n)
    for _ in range(draw(st.integers(0, 8)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["swap", "negate", "add"]))
        if op == "swap":
            w[i], w[j] = w[j], w[i]
        elif op == "negate":
            w[i] = [-a for a in w[i]]
        elif i != j:
            q = draw(st.integers(-5, 5))
            w[i] = [a + q * b for a, b in zip(w[i], w[j])]
    return w, mat


class TestSmithNormalForm:
    def test_identity(self):
        d, v = smith_normal_form(identity(3))
        assert d == identity(3)

    def test_diag_2_3(self):
        d, v = smith_normal_form([[2, 0], [0, 3]])
        assert d == [[1, 0], [0, 6]]

    def test_already_smith(self):
        d, v = smith_normal_form([[4, 0, 0], [0, 4, 0], [0, 0, 4]])
        assert d == [[4, 0, 0], [0, 4, 0], [0, 0, 4]]

    def test_empty(self):
        d, v = smith_normal_form([])
        assert (d, v) == ([], [])

    @given(small_matrices)
    @settings(max_examples=150, deadline=None)
    def test_transform_identity_and_chain(self, mat):
        d, v = smith_normal_form(mat)
        # U @ mat @ V == D for a unimodular U: mat @ V and D have the same
        # row lattice
        assert hermite_normal_form(mat_mul(mat, v)) == hermite_normal_form(d)
        assert abs(det(v)) == 1
        n = min(len(d), len(d[0]) if d else 0)
        for i in range(len(d)):
            for j in range(len(d[0]) if d else 0):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(n)]
        assert all(e >= 0 for e in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0

    @given(snf_matrices)
    @example([])
    @example([[0, 0], [0, 0]])
    @example([[2, 3]])  # the column step swaps
    @example([[6, 4], [4, 6]])  # pivot column swap, then a column step
    @example([[2, 3, 5], [4, 7, 11]])  # a column step swaps on 2 x 3
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, mat):
        _, d, v = reference_smith_normal_form(mat)
        assert smith_normal_form(mat) == (d, v)

    @given(snf_matrices)
    @settings(max_examples=100, deadline=None)
    def test_reference_certificate(self, mat):
        u, d, v = reference_smith_normal_form(mat)
        assert mat_mul(mat_mul(u, mat), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1


@pytest.mark.parametrize("normal_form",
                         [smith_normal_form, hermite_normal_form])
@pytest.mark.parametrize("mat", [[[1], [1, 2]], [[1, 2], [1]],
                                 [[1, 2], [3]], [[3], [1, 2]]])
def test_ragged_matrix_is_value_error(normal_form, mat):
    with pytest.raises(ValueError, match="different lengths"):
        normal_form(mat)


def test_oracle_preconditions_raise_under_optimize():
    # the oracles check their inputs with raises, which python -O keeps
    code = (
        "from oracles import mat_mul\n"
        "try:\n"
        "    mat_mul([[1, 2]], [[1, 2]])\n"
        "except ValueError:\n"
        "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(monoalg.__file__).parents[1]), str(Path(__file__).parent)]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout == "raised\n"


class TestLatticeBasis:
    def test_gcd_collapse(self):
        assert hermite_normal_form([(2,), (3,)]) == [[1]]

    def test_collinear(self):
        assert hermite_normal_form([(1, 1), (2, 2)]) == [[1, 1]]

    def test_empty(self):
        assert hermite_normal_form([]) == []
        assert hermite_normal_form([(0, 0)]) == []

    def test_mod4_sum_lattice(self):
        # brute-force derived: the inputs generate {(a, b): a + b = 0 mod 4}
        basis = hermite_normal_form([(4, 0), (0, 4), (3, 1), (1, 3)])
        assert len(basis) == 2
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert lattice_contains(basis, (a, b)) == ((a + b) % 4 == 0)

    def test_lower_triangular_convention(self):
        basis = hermite_normal_form([(2, 1), (0, 3)])
        assert basis == [[6, 0], [2, 1]]
        # same lattice back and forth
        for v in [(2, 1), (0, 3)]:
            assert lattice_contains(basis, v)
        for v in basis:
            assert lattice_contains([[2, 1], [0, 3]], v)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_same_lattice(self, vecs):
        from math import gcd

        basis = hermite_normal_form(vecs)
        nonzero = [tuple(v) for v in vecs if any(v)]
        # inclusion: every input lies in the basis lattice
        for v in nonzero:
            assert lattice_contains(basis, v)
        # equality via rank and index, computed independently
        if not nonzero:
            assert basis == []
        elif len(basis) == 2:
            minor_gcd = 0
            for i in range(len(nonzero)):
                for j in range(i + 1, len(nonzero)):
                    (a, b), (c, d) = nonzero[i], nonzero[j]
                    minor_gcd = gcd(minor_gcd, a * d - b * c)
            assert abs(det(basis)) == minor_gcd != 0
        else:
            assert len(basis) == 1
            g0 = gcd(*nonzero[0])
            direction = tuple(e // g0 for e in nonzero[0])
            multiplier = 0
            for v in nonzero:
                k = gcd(*v)
                assert tuple(e // k for e in v) in (
                    direction, tuple(-e for e in direction))
                multiplier = gcd(multiplier, k)
            assert basis[0] in (
                [multiplier * e for e in direction],
                [-multiplier * e for e in direction])

    @given(snf_matrices)
    @example([[0, 3], [0, -6], [0, 0]])
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, mat):
        assert hermite_normal_form(mat) == reference_hermite_normal_form(mat)

    @given(unimodular_and_matrix())
    @settings(max_examples=150, deadline=None)
    def test_unimodular_invariance(self, problem):
        w, mat = problem
        assert hermite_normal_form(mat_mul(w, mat)) == hermite_normal_form(mat)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                    min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_canonical(self, vecs):
        assert hermite_normal_form(vecs) == hermite_normal_form(
            list(reversed(vecs)))


class TestQuotientGroup:
    def test_z_mod_2(self):
        sup = hermite_normal_form([(2,), (3,)])
        group = quotient_group(sup, [(2,)])
        assert group.order == 2
        assert group.invariant_factors == (2,)
        assert group.project((0,)) != group.project((1,))
        assert group.project((2,)) == group.project((0,))

    def test_example_order_8(self):
        gens = [(4, 0, 0), (0, 4, 0), (0, 0, 4),
                (1, 0, 3), (0, 2, 2), (3, 0, 1), (1, 2, 1)]
        group = quotient_group(hermite_normal_form(gens),
                               [(4, 0, 0), (0, 4, 0), (0, 0, 4)])
        assert group.order == 8
        assert group.invariant_factors == (2, 4)
        assert repr(group) == "FiniteAbelianGroup(Z/2 x Z/4)"
        with pytest.raises(AttributeError):
            group.order = 1

    def test_trivial(self):
        sup = hermite_normal_form([(1, 0), (0, 1)])
        group = quotient_group(sup, [(1, 0), (0, 1)])
        assert group.order == 1
        assert group.invariant_factors == ()
        assert group.project((5, -3)) == ()
        assert repr(group) == "FiniteAbelianGroup(trivial)"
        # the zero lattice over itself
        zero = quotient_group([], [])
        assert zero.invariant_factors == () and zero.project((0, 0)) == ()

    def test_infinite(self):
        with pytest.raises(InfiniteQuotientError):
            quotient_group(identity(2), [(1, 0)])

    def test_not_in_lattice(self):
        with pytest.raises(NotInLatticeError):
            quotient_group([[2]], [(3,)])
        with pytest.raises(NotInLatticeError):
            # right length, outside the row span
            quotient_group([[1, 0]], [(0, 1)])
        with pytest.raises(NotInLatticeError, match="length 3"):
            quotient_group(identity(2), [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(NotInLatticeError):
            # a nonzero vector, over the zero lattice
            quotient_group([], [(1, 0)])

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                    min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_order_is_det(self, sub):
        if abs(det(sub)) == 0:
            with pytest.raises(InfiniteQuotientError):
                quotient_group(identity(2), sub)
            return
        group = quotient_group(identity(2), sub)
        assert group.order == abs(det(sub))
        for x in [(0, 0), (1, 0), (2, -1), (3, 5)]:
            for w in sub:
                shifted = tuple(a + b for a, b in zip(x, w))
                assert group.project(shifted) == group.project(x)


class TestSolveRational:
    """Rational solves of ``M c = b``, now done in integers.

    Independent columns go through ``SpanSolver`` (numerators over
    denominators); the general case is read off the reduced echelon form
    of ``[M | b]``, as the degree functional is, with free coefficients 0.
    """

    @staticmethod
    def span_solve(columns, rhs):
        solver = SpanSolver.of(columns)
        nums = solver.numerators(rhs)
        if nums is None:
            return None
        return tuple(map(Fraction, nums, solver.denominators))

    @staticmethod
    def echelon_solve(mat, rhs):
        n = len(mat[0])
        rows, pivots = echelon([list(row) + [b] for row, b in zip(mat, rhs)])
        if pivots and pivots[-1] == n:
            return None
        sol = [Fraction(0)] * n
        for row, col in zip(rows, pivots):
            sol[col] = Fraction(row[n], row[col])
        return tuple(sol)

    def test_diagonal(self):
        mat = [[4, 0, 0], [0, 4, 0], [0, 0, 4]]
        expected = (Fraction(3, 2), Fraction(0), Fraction(1, 2))
        assert self.span_solve(mat, (6, 0, 2)) == expected
        assert self.echelon_solve(mat, (6, 0, 2)) == expected

    def test_two_by_two(self):
        expected = (Fraction(1, 2), Fraction(1, 2))
        assert self.span_solve([[4, 0], [0, 4]], (2, 2)) == expected
        assert self.echelon_solve([[4, 0], [0, 4]], (2, 2)) == expected

    def test_inconsistent(self):
        mat = [[1, 0], [0, 1], [0, 0]]
        # the columns of mat span no (1, 1, 1)
        assert self.span_solve([(1, 0, 0), (0, 1, 0)], (1, 1, 1)) is None
        assert self.echelon_solve(mat, (1, 1, 1)) is None

    def test_dependent_but_inconsistent(self):
        # a pivot in the appended column marks the system inconsistent
        assert echelon([[1, 2, 1], [2, 4, 3]])[1] == [0, 2]
        assert self.echelon_solve([[1, 2], [2, 4]], (1, 3)) is None
        # the same shape with b = 1: no degree functional
        assert validate([(1, 2), (2, 4)]).degree_functional() is None

    def test_length_mismatch(self):
        frame = Frame.from_elements(((4, 0), (0, 4)))
        with pytest.raises(DimensionMismatchError):
            frame.numerators((1, 0, 7))

    def test_canonical_length_mismatch(self):
        f = validate([(1,)]).degree_functional()
        with pytest.raises(ValueError):
            f.degree((1, 2))

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                    min_size=3, max_size=3),
           st.lists(st.integers(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_exactness(self, mat, x):
        rhs = [sum(row[j] * x[j] for j in range(2)) for row in mat]
        sol = self.echelon_solve(mat, rhs)
        assert sol is not None
        for i, row in enumerate(mat):
            assert sum(Fraction(row[j]) * sol[j] for j in range(2)) == rhs[i]


class TestRank:
    @given(st.integers(1, 6).flatmap(
               lambda c: st.lists(
                   st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                   min_size=1, max_size=6)),
           st.sampled_from([0, 2, 3, 5, 7]))
    @settings(max_examples=200, deadline=None)
    def test_matches_elimination_oracle(self, mat, char):
        assert rank(mat, char) == brute_rank(mat, char)

    def test_empty(self):
        assert rank([], 0) == 0
        assert rank([[]], 5) == 0


class TestSpanCoordinates:
    def test_dependent_vectors(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            SpanSolver.of([(1, 2), (2, 4)])

    @given(span_problems())
    @example(([(1, 0)], (0, 1)))          # outside the span
    @example(([(2, 0), (0, 3)], (1, 1)))  # in the span, not integral
    @settings(max_examples=150, deadline=None)
    def test_frame_coordinates(self, problem):
        vecs, x = problem
        assume(brute_rank(vecs, 0) == len(vecs))
        frame = Frame.from_elements(tuple(vecs))
        expected = solve_fractions(vecs, x)
        if expected is None:
            with pytest.raises(OutsideSpanError):
                frame.numerators(x)
        else:
            assert tuple(map(Fraction, frame.numerators(x),
                             frame.denominators)) == expected

    @given(span_problems())
    @example(([(1, 0)], (0, 1)))  # outside the span
    @example(([(2, 0)], (1, 0)))  # in the span, not in the lattice
    @settings(max_examples=150, deadline=None)
    def test_lattice_coords(self, problem):
        vecs, x = problem
        basis = hermite_normal_form(vecs)
        assume(basis)
        group = quotient_group(basis, basis)
        expected = solve_fractions([tuple(row) for row in basis], x)
        if expected is None or any(q.denominator != 1 for q in expected):
            with pytest.raises(NotInLatticeError):
                group.coords(x)
        else:
            assert group.coords(x) == expected


class TestConeMembership:
    def test_quadrant(self):
        assert nonnegative_combination_exists([(1, 0), (0, 1)], (3, 5))
        assert not nonnegative_combination_exists([(1, 1), (1, 0)], (1, 2))
        assert nonnegative_combination_exists([(1, 1), (1, 0)], (2, 1))

    def test_zero_target(self):
        assert nonnegative_combination_exists([], (0, 0))
        assert not nonnegative_combination_exists([], (1, 0))

    @given(st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2),
                    min_size=1, max_size=4),
           st.lists(st.integers(0, 3), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_constructed_combinations_feasible(self, vecs, coeffs):
        target = [0, 0]
        for v, c in zip(vecs, coeffs):
            target = [a + c * b for a, b in zip(target, v)]
        assert nonnegative_combination_exists(
            [tuple(v) for v in vecs], tuple(target))

    @given(cone_problems())
    @example(([], (0, 0)))
    @example(([], (1, -1)))
    @example(([(1, -1), (-1, 1)], (0, 0)))
    @example(([(1, -1), (-1, 1)], (2, -2)))
    @example(([(2, 1), (1, 2), (-1, -1)], (3, 3)))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_simplex(self, problem):
        vecs, target = problem
        assert nonnegative_combination_exists(vecs, target) == \
            fraction_nonnegative_combination_exists(vecs, target)
