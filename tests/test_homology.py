import itertools
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoalg import (
    MonomialIdeal,
    analyze,
    betti_ideal,
    betti_multigraded,
    decompose,
    full_report,
    validate,
)
from monoalg import homology
from monoalg.errors import (
    InternalError,
    InvalidCharacteristicError,
    NotHomogeneousError,
    NotSimplicialError,
)
from monoalg.homology import check_characteristic
from monoalg.intlinalg import rank
from monoalg.sweep import SweepConfig, random_simplicial_instance, run_sweep
from conftest import NONSIMPLICIAL_GENS, SEC3_GENS
from oracles import (
    _reduced_homology_dims as reference_homology_dims,
    _upper_koszul_faces as reference_koszul_faces,
    reference_betti_table,
    reference_lcm_lattice,
    taylor_euler_matches,
)

exponents = st.lists(st.integers(0, 3), min_size=2, max_size=4)


def small_ideals(draw_vars, draw_gens):
    return st.integers(2, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(any),
            min_size=1, max_size=4, unique_by=tuple))


class TestMatrixRank:
    def test_rational_vs_mod(self):
        mat = [[2, 4], [1, 2]]
        assert rank(mat, 0) == 1
        assert rank(mat, 3) == 1
        # rank can drop in finite characteristic
        assert rank([[2]], 0) == 1
        assert rank([[2]], 2) == 0

    def test_characteristic_validation(self):
        for char in (0, 2, 3, 101, 32003):
            check_characteristic(char)
        # only an int is a characteristic: not a float equal to one, not a
        # bool, not a container; every entry point rejects them before any
        # arithmetic
        for bad in (1, 4, 6, -3, 9, 2.5, 3.0, 0.0, "3", None,
                    False, True, [3], (3,)):
            with pytest.raises(InvalidCharacteristicError):
                check_characteristic(bad)
        ideal = MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for bad in (3.0, False):
            for call in (lambda: betti_ideal(ideal, bad),
                         lambda: betti_multigraded(ideal, bad),
                         lambda: analyze(validate(SEC3_GENS), bad),
                         lambda: run_sweep(SweepConfig(3, 5, 4, 2, 0, bad))):
                with pytest.raises(InvalidCharacteristicError,
                                   match="integer"):
                    call()

    def test_characteristic_primality_is_exact(self):
        # the accepted values below 2**20 are 0 and the primes, by a sieve
        n = 1 << 20
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for p in range(2, 1 << 10):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, n, p)))
        accepted = set()
        for char in range(n):
            try:
                check_characteristic(char)
            except InvalidCharacteristicError:
                continue
            accepted.add(char)
        assert accepted == {0} | {p for p in range(n) if sieve[p]}
        for prime in (2**31 - 1, 2**31 - 19):
            check_characteristic(prime)
        # 2**31 - 3; the Carmichael numbers 561 and 1105; strong
        # pseudoprimes to base 2, to bases 2 and 3, and to 2, 3 and 5
        for composite in (2**31 - 3, 561, 1105, 2047, 1373653, 25326001):
            with pytest.raises(InvalidCharacteristicError, match="composite"):
                check_characteristic(composite)

    def test_characteristic_limit(self):
        check_characteristic(2**31 - 1)  # prime, largest accepted
        for big in (2**31, 2**61 - 1):   # the second is prime
            with pytest.raises(InvalidCharacteristicError, match="2\\*\\*31"):
                check_characteristic(big)


class TestBettiFixtures:
    def test_koszul_three_variables(self):
        table = betti_ideal(
            MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert table.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
        assert table.regularity() == 1
        assert 3 - table.projective_dimension() == 1

    def test_complete_intersection(self):
        table = betti_ideal(MonomialIdeal.from_gens(2, [(2, 0), (0, 1)]))
        assert table.entries == {(0, 1): 1, (0, 2): 1, (1, 3): 1}
        assert table.regularity() == 2
        assert 2 - table.projective_dimension() == 1

    def test_unit(self):
        table = betti_ideal(MonomialIdeal.unit(3))
        assert table.entries == {(0, 0): 1}
        assert table.regularity() == 0
        assert 3 - table.projective_dimension() == 3

    def test_principal_single_variable(self):
        table = betti_ideal(MonomialIdeal.from_gens(1, [(5,)]))
        assert table.entries == {(0, 5): 1}
        assert 1 - table.projective_dimension() == 1

    def test_two_skew_squares(self):
        # <x^2, y^2>: complete intersection, one linear syzygy in degree 4
        table = betti_ideal(MonomialIdeal.from_gens(2, [(2, 0), (0, 2)]))
        assert table.entries == {(0, 2): 2, (1, 4): 1}
        assert table.regularity() == 3


class TestBettiInvariants:
    def test_beta_zero_matches_minimal_generators(self):
        ideal = MonomialIdeal.from_gens(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        multi = betti_multigraded(ideal)
        degree_zero = {b for (i, b) in multi if i == 0}
        assert degree_zero == set(ideal.gens)
        assert all(multi[(0, b)] == 1 for b in degree_zero)

    def test_variable_permutation_invariance(self):
        gens = [(2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)]
        base = betti_ideal(MonomialIdeal.from_gens(3, gens))
        for perm in itertools.permutations(range(3)):
            permuted = [tuple(g[p] for p in perm) for g in gens]
            table = betti_ideal(MonomialIdeal.from_gens(3, permuted))
            assert table.entries == base.entries

    @given(small_ideals(None, None))
    @settings(max_examples=60, deadline=None)
    def test_taylor_euler_characteristic(self, gens):
        ideal = MonomialIdeal.from_gens(len(gens[0]), gens)
        multi = betti_multigraded(ideal)
        probes = {b for (_, b) in multi}
        probes.add(tuple(max(g[k] for g in ideal.gens) + 1
                         for k in range(ideal.num_vars)))
        for probe in probes:
            assert taylor_euler_matches(ideal.gens, multi, probe)

    def test_homological_index_bound(self):
        ideal = MonomialIdeal.from_gens(4, [(1, 1, 0, 0), (0, 1, 1, 0),
                                            (0, 0, 1, 1), (1, 0, 0, 1)])
        for (i, _b) in betti_multigraded(ideal):
            assert i <= 3


class TestAnalyze:
    def test_example(self, sec3):
        report = analyze(sec3)
        assert report.regularity == 2
        assert report.degree == 8
        assert report.codim == 4
        assert report.eg_bound == 4
        assert report.eg_holds
        assert report.depth == 1
        regs = {reg + deg for (_c, reg, deg) in report.witnesses}
        assert regs == {2}

    def test_free(self):
        report = analyze(validate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert report.regularity == 0
        assert report.degree == 1
        assert report.codim == 0
        assert report.depth == 3
        assert report.eg_holds

    def test_quartic_equality_case(self, quartic):
        report = analyze(quartic)
        assert report.regularity == 2
        assert report.degree == 4
        assert report.codim == 2
        assert report.eg_bound == 2
        assert report.eg_holds

    def test_rejects_not_homogeneous(self):
        with pytest.raises(NotHomogeneousError):
            analyze(validate([(2,), (3,)]))

    def test_rejects_not_simplicial(self):
        with pytest.raises(NotSimplicialError):
            analyze(validate(NONSIMPLICIAL_GENS))

    def test_rejects_bad_characteristic(self, sec3):
        # checked before simpliciality
        for B in (sec3, validate(NONSIMPLICIAL_GENS)):
            with pytest.raises(InvalidCharacteristicError):
                analyze(B, 4)

    def test_characteristic_checked_once_per_call(self, sec3, monkeypatch):
        # once per public call, not once per distinct summand ideal
        calls = []
        check = homology.check_characteristic

        def counting(char):
            calls.append(char)
            check(char)

        monkeypatch.setattr(homology, "check_characteristic", counting)
        analyze(sec3, 2**31 - 1)
        assert calls == [2**31 - 1]
        calls.clear()
        ideal = MonomialIdeal.from_gens(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        betti_ideal(ideal, 32003)
        assert calls == [32003]
        with pytest.raises(InvalidCharacteristicError):
            analyze(sec3, 4)
        assert calls == [32003, 4]

    def test_characteristic_independence_when_buchsbaum(self, sec3):
        r0 = analyze(sec3, 0)
        r2 = analyze(sec3, 2)
        assert r0 == r2

    def test_randomized_consistency(self):
        rng = random.Random(4242)
        produced = 0
        while produced < 30:
            inst = random_simplicial_instance(
                rng, rng.randint(1, 3), rng.randint(1, 5), rng.randint(0, 3))
            if inst is None:
                continue
            produced += 1
            dec = decompose(inst)
            report = analyze(inst, 0, dec)
            props = full_report(inst, dec)
            assert report.eg_bound == report.degree - report.codim
            assert report.eg_holds == (report.regularity <= report.eg_bound)
            if any([props.seminormal, props.normal, props.cohen_macaulay,
                    props.buchsbaum, props.gorenstein]):
                assert report.eg_holds, inst.generators
            if props.buchsbaum:
                assert analyze(inst, 2, dec) == report


class TestAgainstReference:
    """The homology memo, shared by the summand ideals of one decomposition
    and fresh per standalone call, against the memo-free Betti loop in
    ``tests/oracles.py``."""

    @staticmethod
    def instances():
        yield validate(SEC3_GENS)
        rng = random.Random(18)
        produced = 0
        while produced < 200:
            inst = random_simplicial_instance(
                rng, rng.randint(3, 5), rng.randint(3, 5), rng.randint(2, 5))
            if inst is not None:
                produced += 1
                yield inst

    @staticmethod
    def ideals(count):
        """Shaped like the betti_ideals benchmark's: 3-5 variables, 2-7
        minimal generators, exponents at most 4."""
        rng = random.Random(1818)
        out = []
        while len(out) < count:
            n = rng.choice((3, 4, 5))
            k = rng.randint(2, 7)
            gens = {tuple(rng.randint(0, 4) for _ in range(n))
                    for _ in range(k)}
            gens.discard((0,) * n)
            if gens:
                out.append(MonomialIdeal.from_gens(n, gens))
        return out

    @pytest.mark.parametrize("char", [0, 32003])
    def test_summand_tables_equal_the_reference(self, monkeypatch, char):
        # faces are built only where the complex has two or more maximal
        # facets; a single one is answered without them
        built = []
        faces = homology._upper_koszul_faces

        def recorded(ideal, b):
            out = faces(ideal, b)
            built.append(out)
            return out

        shared = 0
        for inst in self.instances():
            dec = decompose(inst)
            with monkeypatch.context() as patch:
                patch.setattr(homology, "_upper_koszul_faces", recorded)
                analyze(inst, char, dec)
            tables = dec.tables[char]
            assert tables.keys() == {s.ideal for s in dec.summands}
            for ideal, table in tables.items():
                assert table == reference_betti_table(ideal, char)
            shared += sum(not i.is_unit for i in tables) > 1
        assert shared > 50  # many decompositions share one memo
        assert len(built) > 100
        for fs in built:
            assert reduce(or_, fs) not in fs  # no single maximal facet

    @pytest.mark.parametrize("char", [0, 32003])
    def test_standalone_tables_equal_the_reference(self, char):
        for ideal in self.ideals(500):
            assert betti_ideal(ideal, char) == reference_betti_table(
                ideal, char)

    def test_homology_reused_across_summand_ideals(self, monkeypatch):
        # an analyze_box-shaped (3, 8, 5) instance: analyze computes fewer
        # homologies than its distinct ideals do one call each, which
        # compute fewer than there are lcm points over those ideals
        calls = []
        real = homology._reduced_homology_dims

        def counted(faces, char):
            calls.append(char)
            return real(faces, char)

        monkeypatch.setattr(homology, "_reduced_homology_dims", counted)
        inst = random_simplicial_instance(random.Random(7), 3, 8, 5)
        dec = decompose(inst)
        analyze(inst, 0, dec)
        shared = len(calls)
        ideals = [ideal for ideal in dec.tables[0] if not ideal.is_unit]
        for ideal in ideals:
            betti_ideal(ideal)
        alone = len(calls) - shared
        points = sum(len(homology._lcm_lattice(ideal)) for ideal in ideals)
        assert 0 < shared < alone < points

    def test_analyze_reads_each_distinct_table_once(self, monkeypatch):
        # regularity and projective dimension once per distinct ideal, and
        # the witnesses in summand order, as read summand by summand
        calls = []
        real = homology.BettiTable.regularity

        def counted(table):
            calls.append(table)
            return real(table)

        monkeypatch.setattr(homology.BettiTable, "regularity", counted)
        inst = random_simplicial_instance(random.Random(7), 3, 8, 5)
        dec = decompose(inst)
        report = analyze(inst, 0, dec)
        assert len(calls) == len(dec.tables[0]) < len(dec.summands)
        regs = [(s, real(dec.tables[0][s.ideal]) + s.shift_degree)
                for s in dec.summands]
        assert report.regularity == max(r for _, r in regs)
        assert report.witnesses == tuple(
            (s.coset, r - s.shift_degree, s.shift_degree)
            for s, r in regs if r == report.regularity)
        assert len(report.witnesses) > 1

    @pytest.mark.parametrize("name, fake, message", [
        ("_lcm_lattice", lambda ideal: [(0, 0, 0)], "outside the ideal"),
        ("_reduced_homology_dims", lambda faces, char: {2: 1}, "pd bound"),
        ("rank", lambda mat, char: len(mat[0]), "homology rank"),
    ])
    def test_internal_checks_fire(self, monkeypatch, name, fake, message):
        # an lcm point outside the ideal, a Betti number past index n - 1
        # and a negative homology rank each raise, memo or no memo
        monkeypatch.setattr(homology, name, fake)
        ideal = MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(InternalError, match=message):
            betti_ideal(ideal)


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=7)))
@settings(max_examples=200, deadline=None)
def test_lcm_lattice_equals_the_reference(gens):
    # the generator-at-a-time closure against the frontier closure
    ideal = MonomialIdeal.from_gens(len(gens[0]), gens)
    assert homology._lcm_lattice(ideal) == reference_lcm_lattice(ideal)


def as_tuple(mask):
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def closure(facets):
    """Every submask of every facet, the empty face included."""
    faces = {0}
    for f in facets:
        s = f
        while s:
            faces.add(s)
            s = (s - 1) & f
    return faces


class TestBitmaskFaces:
    """The package's bitmask faces against the sorted-tuple copies of the
    earlier helpers in ``tests/oracles.py``."""

    # the 6-vertex real projective plane: every edge on two triangles
    RP2 = [0b000111, 0b001101, 0b011001, 0b110001, 0b100011,
           0b010110, 0b101100, 0b011010, 0b110100, 0b101010]

    @pytest.mark.parametrize("facets, char, dims", [
        ([0b011, 0b101, 0b110], 0, {1: 1}),
        ([0b011, 0b101, 0b110], 2, {1: 1}),
        ([0b001, 0b010], 0, {0: 1}),
        ([0b111], 0, {}),
        ([], 0, {-1: 1}),
        (RP2, 0, {}),
        (RP2, 3, {}),
        (RP2, 2, {1: 1, 2: 1}),
    ], ids=["hollow_triangle", "hollow_triangle_char2", "two_points",
            "simplex", "empty_face", "rp2_char0", "rp2_char3", "rp2_char2"])
    def test_examples(self, facets, char, dims):
        assert homology._reduced_homology_dims(list(closure(facets)),
                                               char) == dims

    def test_rp2_is_a_closed_surface(self):
        edges = [e for e in closure(self.RP2) if e.bit_count() == 2]
        assert len(edges) == 15
        assert all(sum(f & e == e for f in self.RP2) == 2 for e in edges)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
               st.integers(0, (1 << n) - 1), max_size=8)),
           st.sampled_from([0, 2, 3, 32003]), st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_homology_equals_the_reference(self, facets, char, rnd):
        faces = list(closure(facets))
        rnd.shuffle(faces)
        assert homology._reduced_homology_dims(faces, char) == \
            reference_homology_dims([as_tuple(f) for f in faces], char)

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=6)))
    @settings(max_examples=150, deadline=None)
    def test_faces_equal_the_reference(self, gens):
        ideal = MonomialIdeal.from_gens(len(gens[0]), gens)
        for b in homology._lcm_lattice(ideal):
            faces = homology._upper_koszul_faces(ideal, b)
            assert len(set(faces)) == len(faces)
            assert sorted(map(as_tuple, faces)) == sorted(
                reference_koszul_faces(ideal, b))
