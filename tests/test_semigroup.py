import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import monoalg
from monoalg import semigroup, validate
from monoalg.errors import (
    DimensionMismatchError,
    DuplicateGeneratorError,
    EmptyInputError,
    InternalError,
    NegativeEntryError,
    NotSimplicialError,
    OutsideSpanError,
    ZeroGeneratorError,
)
from monoalg.semigroup import Frame
from monoalg.sweep import random_simplicial_instance
from conftest import NONSIMPLICIAL_GENS, SEC3_GENS, SKEW_GENS
from oracles import (
    box_module_generators,
    brute_module_generators,
    brute_rank,
    lp_extreme_rays,
    members_up_to,
    reference_module_search,
    solve_fractions,
)


@st.composite
def ray_sets(draw):
    """Distinct nonzero generators in N^m (m <= 4, often non-simplicial),
    plus multiples of some of them, so that several share a ray."""
    m = draw(st.integers(2, 4))
    base = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m).filter(any),
                         min_size=1, max_size=7, unique=True))
    scaled = [tuple(c * e for e in base[i]) for i, c in draw(st.lists(
        st.tuples(st.integers(0, len(base) - 1), st.integers(2, 3)),
        max_size=3))]
    return list(dict.fromkeys(base + scaled))


@st.composite
def at_sum(draw, m, d):
    """A vector in N^m with coordinate sum d."""
    v = []
    for _ in range(m - 1):
        v.append(draw(st.integers(0, d - sum(v))))
    return tuple(v + [d - sum(v)])


@st.composite
def graded_sets(draw):
    """Distinct nonzero generators in N^m (m <= 4); in half the draws they
    all have one coordinate sum, so many of the sets are homogeneous."""
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        vec = st.tuples(*[st.integers(0, 4)] * m).filter(any)
    else:
        vec = at_sum(m, draw(st.integers(1, 4)))
    return draw(st.lists(vec, min_size=1, max_size=6, unique=True))


def frame_lambda(frame, x):
    """Rational frame coordinates of ``x`` from the integer numerators."""
    return tuple(map(Fraction, frame.numerators(x), frame.denominators))


# small random generator sets in N^1 or N^2, entries <= 6
gen_sets = st.integers(1, 2).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any),
        min_size=1, max_size=4, unique_by=tuple))


class TestValidate:
    def test_ok(self):
        assert validate([(4, 0, 0), (0, 4, 0)]).ambient_dim == 3

    def test_zero(self):
        with pytest.raises(ZeroGeneratorError):
            validate([(0, 0)])

    def test_negative(self):
        with pytest.raises(NegativeEntryError):
            validate([(1, -1)])

    def test_duplicate(self):
        with pytest.raises(DuplicateGeneratorError):
            validate([(1, 2), (1, 2)])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            validate([])

    def test_empty_row(self):
        with pytest.raises(EmptyInputError, match="empty row"):
            validate([()])

    def test_ragged(self):
        with pytest.raises(DimensionMismatchError):
            validate([(1, 2), (3,)])


class TestConeGeometry:
    def test_example_rays(self, sec3):
        rays = sec3.extreme_rays()
        assert [sec3.generators[i] for i in rays] == [
            (4, 0, 0), (0, 4, 0), (0, 0, 4)]

    def test_interior_point_dropped(self):
        B = validate([(1, 0), (0, 1), (1, 1)])
        assert {B.generators[i] for i in B.extreme_rays()} == {(1, 0), (0, 1)}

    def test_two_dim_boundary(self):
        B = validate([(1, 0), (1, 1), (1, 2)])
        assert {B.generators[i] for i in B.extreme_rays()} == {(1, 0), (1, 2)}

    @given(ray_sets())
    @example(NONSIMPLICIAL_GENS)
    @example([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 3, 0), (1, 1, 0), (0, 0, 2)])
    # the axes cover every support: no simplex runs
    @example([(2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 0), (2, 0, 3),
              (1, 2, 1), (0, 1, 1), (0, 6, 0)])
    # no axis generator: every direction goes to the simplex
    @example(SKEW_GENS)
    @settings(max_examples=300, deadline=None)
    def test_against_unrestricted_lp(self, gens):
        assert validate(gens).extreme_rays() == lp_extreme_rays(gens)

    @pytest.mark.parametrize("gens, calls", [(SEC3_GENS, False),
                                             (SKEW_GENS, True)])
    def test_simplex_runs_only_off_the_axes(self, monkeypatch, gens, calls):
        seen, simplex = [], semigroup.nonnegative_combination_exists

        def recording(others, target):
            seen.append(target)
            return simplex(others, target)

        monkeypatch.setattr(semigroup, "nonnegative_combination_exists",
                            recording)
        validate(gens).extreme_rays()
        assert bool(seen) == calls

    def test_simplicial(self, sec3):
        assert sec3.is_simplicial()
        assert validate([(1, 0), (0, 1)]).is_simplicial()

    def test_not_simplicial(self):
        B = validate(NONSIMPLICIAL_GENS)
        assert len(B.extreme_rays()) == 5
        assert B.rank == 3
        assert not B.is_simplicial()
        with pytest.raises(NotSimplicialError):
            B.frame()


class TestFrame:
    def test_example_frame(self, sec3):
        assert sec3.frame().elements == ((4, 0, 0), (0, 4, 0), (0, 0, 4))

    def test_minimal_on_ray(self):
        B = validate([(2, 0), (4, 0), (0, 2)])
        assert B.frame().elements == ((2, 0), (0, 2))

    def test_numerical(self):
        assert validate([(2,), (3,)]).frame().elements == ((2,),)

    def test_lambda_example(self, sec3):
        frame = sec3.frame()
        assert frame.denominators == (4, 4, 4)
        assert frame.numerators((6, 0, 2)) == (6, 0, 2)
        lam = frame_lambda(frame, (6, 0, 2))
        assert lam == (Fraction(3, 2), Fraction(0), Fraction(1, 2))
        assert lam == solve_fractions(frame.elements, (6, 0, 2))
        assert frame.lambda_text((6, 0, 2)) == ("3/2", "0", "1/2")

    def test_lambda_unit(self, sec3):
        frame = sec3.frame()
        assert frame_lambda(frame, (4, 0, 0)) == (1, 0, 0)

    def test_lambda_numerical(self):
        frame = validate([(3,), (4,), (5,)]).frame()
        assert frame_lambda(frame, (5,)) == (Fraction(5, 3),)
        assert frame_lambda(frame, (5,)) == solve_fractions(frame.elements,
                                                            (5,))

    def test_lambda_text_is_fraction_text(self):
        # the frame (p,) has denominator p; numerators may be 0 or negative
        for p in range(1, 7):
            frame = Frame.from_elements(((p,),))
            assert frame.denominators == (p,)
            for a in range(-13, 14):
                assert frame.lambda_text((a,)) == (str(Fraction(a, p)),)

    def test_outside_span(self):
        frame = Frame.from_elements(((1, 0),))
        assert solve_fractions(frame.elements, (0, 1)) is None
        with pytest.raises(OutsideSpanError):
            frame.numerators((0, 1))

    def test_deterministic(self):
        a = validate(SEC3_GENS).frame().elements
        b = validate(list(reversed(SEC3_GENS))).frame().elements
        assert a == b


class TestDegreeFunctional:
    def test_example(self, sec3):
        f = sec3.degree_functional()
        assert (f.numerators, f.denominator) == ((1, 1, 1), 4)
        for g in sec3.generators:
            assert f.degree(g) == 1
        # integer values on the whole group
        for row in sec3.group_basis:
            f.degree(tuple(row))
        with pytest.raises(ValueError):
            f.degree((1, 0, 0))

    def test_numerical_none(self):
        assert validate([(2,), (3,)]).degree_functional() is None
        assert not validate([(2,), (3,)]).is_homogeneous

    def test_standard_basis(self):
        f = validate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]).degree_functional()
        assert (f.numerators, f.denominator) == ((1, 1, 1), 1)

    def test_free_coefficients_zero(self):
        # (1, 1) . c == 1 leaves c_2 free; it stays 0
        f = validate([(1, 1)]).degree_functional()
        assert (f.numerators, f.denominator) == ((1, 0), 1)
        f = validate([(2, 2, 0), (0, 0, 3)]).degree_functional()
        assert (f.numerators, f.denominator) == ((3, 0, 2), 6)

    def test_length_mismatch(self, sec3):
        with pytest.raises(ValueError):
            sec3.degree_functional().degree((4, 0))

    @given(graded_sets())
    @example([(2, 0), (0, 3)])
    @example([(1, 1), (2, 2)])
    @settings(max_examples=200, deadline=None)
    def test_against_rank_oracle(self, gens):
        # B is homogeneous iff G c = 1 is solvable, i.e. iff appending the
        # all-ones column leaves the rank unchanged
        B = validate(gens)
        homogeneous = brute_rank(gens, 0) == brute_rank(
            [g + (1,) for g in gens], 0)
        assert B.is_homogeneous == homogeneous
        f = B.degree_functional()
        assert (f is not None) == homogeneous
        if f is None:
            return
        assert all(f.degree(g) == 1 for g in gens)
        for row in B.group_basis:
            assert isinstance(f.degree(tuple(row)), int)


class TestModuleGenerators:
    def test_example(self, sec3):
        expected = {(0, 0, 0), (3, 0, 1), (3, 2, 3), (0, 2, 2), (1, 0, 3),
                    (1, 2, 1), (2, 2, 4), (6, 0, 2), (2, 4, 2), (2, 0, 6)}
        assert set(sec3.module_generators()) == expected

    def test_numerical_23(self):
        assert set(validate([(2,), (3,)]).module_generators()) == {(0,), (3,)}

    def test_numerical_345(self):
        assert set(validate([(3,), (4,), (5,)]).module_generators()) == {
            (0,), (4,), (5,)}

    def test_recheck_minimality(self, sec3):
        frame = sec3.frame()
        ba = sec3.module_generators()
        members = members_up_to(sec3.generators, max(sum(x) for x in ba))
        for x in ba:
            lam = frame_lambda(frame, x)
            assert lam == solve_fractions(frame.elements, x)
            assert all(q >= 0 for q in lam)
            for e in frame.elements:
                assert tuple(a - b for a, b in zip(x, e)) not in members

    def test_zero_in_and_frame_out(self, sec3):
        ba = set(sec3.module_generators())
        assert (0, 0, 0) in ba
        for e in sec3.frame().elements:
            assert e not in ba

    def test_coset_partition_covers_group(self, sec3):
        group = sec3.quotient()
        labels = {group.project(x) for x in sec3.module_generators()}
        assert len(labels) == group.order == 8

    def test_deterministic(self):
        a = validate(SEC3_GENS).module_generators()
        b = validate(SEC3_GENS).module_generators()
        assert a == b

    @given(gen_sets)
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force(self, gens):
        B = validate(gens)
        frame, ba = brute_module_generators(gens)
        assert tuple(frame) == B.frame().elements
        assert set(B.module_generators()) == ba

    @given(st.sampled_from([(2, 5, 2), (2, 9, 3), (3, 4, 3), (3, 6, 4),
                            (4, 3, 4), (4, 4, 4)]),
           st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_against_box_oracle(self, family, seed):
        B = random_simplicial_instance(random.Random(seed), *family)
        assume(B is not None)
        group = B.quotient()
        assume(prod(group.element_order(g) for g in B.generators) <= 2000)
        assert B.module_generators() == box_module_generators(B.generators)


def assert_search_facts(B):
    """Every member of every class the search returns carries the label
    ``quotient().project`` gives it and the numerators ``frame().numerators``
    give it; the classes partition the module generators."""
    group, frame = B.quotient(), B.frame()
    cosets = B.module_generator_cosets()
    for label, members in cosets:
        for x, num in members:
            assert group.project(x) == label
            assert frame.numerators(x) == num
    assert len({label for label, _ in cosets}) == len(cosets) == group.order
    assert sorted(x for _, members in cosets for x, _ in members) == sorted(
        B.module_generators())


# generator sets in N^1..N^4 with entries <= 5; the simplicial ones are kept
small_sets = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(*[st.integers(0, 5)] * m).filter(any),
                       min_size=1, max_size=m + 2, unique=True))


class TestSearchLabels:
    def test_example(self, sec3):
        assert_search_facts(sec3)

    @pytest.mark.parametrize("gens", [[(1, 0), (0, 1)],
                                      [(1, 0), (0, 1), (1, 1)],
                                      [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    def test_trivial_group(self, gens):
        B = validate(gens)
        assert B.quotient().order == 1
        assert [label for label, _ in B.module_generator_cosets()] == [()]
        assert_search_facts(B)

    @given(st.lists(st.integers(1, 15), min_size=1, max_size=4, unique=True))
    @example([2, 3])
    @example([3, 4, 5])
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, values):
        assert_search_facts(validate([(v,) for v in values]))

    @given(small_sets)
    @settings(max_examples=150, deadline=None)
    def test_random_simplicial_sets(self, gens):
        B = validate(gens)
        assume(B.is_simplicial())
        assert_search_facts(B)

    @given(st.sampled_from([(1, 5, 0), (2, 5, 2), (2, 9, 3), (3, 4, 3),
                            (3, 6, 4), (4, 3, 4), (4, 4, 4), (5, 3, 5)]),
           st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_instance_families(self, family, seed):
        B = random_simplicial_instance(random.Random(seed), *family)
        assume(B is not None)
        assert_search_facts(B)


class TestAgainstReferenceSearch:
    """The packed search against the tuple search in ``tests/oracles.py``:
    the same module generators in the same order, and the same classes with
    the same labels, member order and frame numerators."""

    @staticmethod
    def assert_same(B):
        assert (B.module_generators(), B.module_generator_cosets()) == (
            reference_module_search(B))

    @pytest.mark.parametrize("gens", [
        SEC3_GENS,
        [(1, 0), (0, 1)],                                  # frame only
        [(2,), (3,)],
        [(3,), (4,), (5,)],
        [(2, 0), (0, 3), (1, 1)],                          # not homogeneous
        [(10**6, 0), (0, 10**6), (5 * 10**5, 5 * 10**5)],  # wide fields
    ])
    def test_fixed_inputs(self, gens):
        self.assert_same(validate(gens))

    def test_seeded_instances(self):
        rng = random.Random(19)
        families = [(3, 8, 5)] * 70 + [(4, 6, 6)] * 70 + [(5, 2, 5)] * 35 + [
            (5, 3, 5)] * 35
        shared = 0
        for family in families:
            B = random_simplicial_instance(rng, *family)
            self.assert_same(B)
            shared += any(len(members) > 1
                          for _, members in B.module_generator_cosets())
        assert shared > 100  # most instances have a class of two or more


class TestPackedFieldOverflow:
    """Fields too narrow for sec3 make the search raise, whether the
    coordinates overflow (the unpacked sum falls short of the carried one)
    or the numerators do (a guard bit is set)."""

    @pytest.mark.parametrize("narrow", [(0, 1), (0,), (1,)])
    def test_overflow_raises(self, monkeypatch, narrow):
        calls = []

        def width(bound):
            calls.append(bound)
            return 2 if len(calls) - 1 in narrow else bound.bit_length()

        monkeypatch.setattr(semigroup, "_field_width", width)
        with pytest.raises(InternalError, match="overflowed"):
            validate(SEC3_GENS).module_generators()
        assert len(calls) == 2

    def test_overflow_raises_under_optimize(self):
        # the check is an explicit raise, which python -O keeps
        code = (
            "from monoalg import semigroup, validate\n"
            "semigroup._field_width = lambda bound: 2\n"
            f"validate({SEC3_GENS!r}).module_generators()\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(monoalg.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 1
        assert "InternalError: module generator" in proc.stderr
        assert "overflowed" in proc.stderr
