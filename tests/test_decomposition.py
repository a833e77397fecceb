import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoalg

from monoalg import (
    BettiTable,
    MonomialIdeal,
    analyze,
    betti_ideal,
    decompose,
    hilbert_verify,
    validate,
)
from monoalg import homology
from monoalg.cli import main
from monoalg.decomposition import Decomposition
from monoalg.serialize import canonical_json, decomposition_to_dict
from monoalg.errors import (
    InternalError,
    NotHomogeneousError,
    NotSimplicialError,
)
from monoalg.semigroup import DegreeFunctional
from monoalg.sweep import random_simplicial_instance
from conftest import NONSIMPLICIAL_GENS, SEC3_GENS, SKEW_GENS
from oracles import (
    degree_counts_tuples,
    monomial_count_in_degree,
    reference_hilbert_function,
    reference_hilbert_verify,
    solve_fractions,
)


def corrupt_maximal_ideal_table(monkeypatch, char=None):
    """Make ``homology._betti_table`` put one Betti number of the maximal
    ideal off by one, in characteristic ``char`` only, or in every one if
    ``None``."""
    real = homology._betti_table

    def corrupted(ideal, c, memo):
        table = real(ideal, c, memo)
        if not ideal.is_maximal or char not in (None, c):
            return table
        entries = dict(table.entries)
        entries[min(entries)] += 1
        return BettiTable(entries)

    monkeypatch.setattr(homology, "_betti_table", corrupted)


def unit_vectors(d):
    return {tuple(1 if i == k else 0 for i in range(d)) for k in range(d)}


class TestMonomialIdeal:
    def test_from_gens_minimalizes(self):
        ideal = MonomialIdeal.from_gens(2, [(1, 0), (1, 1), (2, 0), (0, 2)])
        assert ideal.gens == ((1, 0), (0, 2))

    def test_unit(self):
        assert MonomialIdeal.unit(3).is_unit
        assert not MonomialIdeal.unit(3).is_maximal

    def test_maximal(self):
        assert MonomialIdeal.from_gens(2, [(1, 0), (0, 1)]).is_maximal

    @pytest.mark.parametrize("gens", [[], [(1, 0, 0)], [(1, 0), (2,)],
                                      [(1, -1)], [(1.5, 0)], [("3", 0)]])
    def test_from_gens_rejects(self, gens):
        # no generator, a vector of the wrong length, a negative entry, an
        # entry that is not an integer
        with pytest.raises(ValueError):
            MonomialIdeal.from_gens(2, gens)

    def test_contains(self):
        ideal = MonomialIdeal.from_gens(2, [(2, 0), (0, 1)])
        assert ideal.contains((2, 0))
        assert ideal.contains((3, 5))
        assert not ideal.contains((1, 0))

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
               st.lists(st.integers(0, 3), min_size=n, max_size=n),
               min_size=1, max_size=4)),
           st.sampled_from([0, 32003]))
    @settings(max_examples=60, deadline=None)
    def test_monomial_count_matches_enumeration(self, gens, char):
        # the staircase count read off the Betti table, in either
        # characteristic, against direct enumeration
        n = len(gens[0])
        ideal = MonomialIdeal.from_gens(n, gens)
        table = betti_ideal(ideal, char)
        for total in range(max(map(sum, ideal.gens)) + 3):
            assert reference_hilbert_function(table.entries, n, total) == \
                monomial_count_in_degree(ideal.gens, n, total)

    def test_display(self):
        assert str(MonomialIdeal.unit(2)) == "ideal(1)"
        ideal = MonomialIdeal.from_gens(2, [(2, 0), (0, 1)])
        assert str(ideal) == "ideal(x_1^2, x_2)"


class TestDecomposeGolden:
    def test_example_summands(self, sec3):
        dec = decompose(sec3)
        assert dec.group_order == 8
        assert len(dec.summands) == 8
        unit_shifts = [s.shift for s in dec.summands if s.ideal.is_unit]
        assert sorted(unit_shifts) == sorted([
            (0, 0, 0), (3, 0, 1), (3, 2, 3), (0, 2, 2),
            (1, 0, 3), (1, 2, 1), (2, 2, 4)])
        nontrivial = [s for s in dec.summands if not s.ideal.is_unit]
        assert len(nontrivial) == 1
        assert nontrivial[0].shift == (2, 0, 2)
        assert set(nontrivial[0].ideal.gens) == unit_vectors(3)

    def test_free_semigroup(self):
        dec = decompose(validate([(1, 0), (0, 1)]))
        assert len(dec.summands) == 1
        only = dec.summands[0]
        assert only.ideal.is_unit
        assert only.shift == (0, 0)

    def test_quartic(self, quartic):
        dec = decompose(quartic)
        by_shift = {s.shift: s for s in dec.summands}
        assert set(by_shift) == {(0, 0), (3, 1), (1, 3), (2, 2)}
        for shift in [(0, 0), (3, 1), (1, 3)]:
            assert by_shift[shift].ideal.is_unit
        assert set(by_shift[(2, 2)].ideal.gens) == unit_vectors(2)
        assert set(by_shift[(2, 2)].gamma) == {(6, 2), (2, 6)}

    def test_not_simplicial(self):
        with pytest.raises(NotSimplicialError):
            decompose(validate(NONSIMPLICIAL_GENS))

    def test_seeded_instances_pinned(self):
        # the coset labels, shifts, ideals and frame coordinates of seeded
        # (3, 8, 5) and (4, 6, 6) instances are pinned byte for byte
        rng = random.Random(11)
        digest = hashlib.sha256()
        for family in [(3, 8, 5), (4, 6, 6)] * 15:
            dec = decompose(random_simplicial_instance(rng, *family))
            digest.update(canonical_json(
                decomposition_to_dict(dec, verbose=True)).encode())
        assert digest.hexdigest() == (
            "c766dfbca9e2a815623f50ad72410402cf8d741996504658c98e2f062c0ddf19")


class TestShiftDegrees:
    def test_example(self, sec3):
        dec = decompose(sec3)
        functional = sec3.degree_functional()
        degrees = [s.shift_degree for s in dec.summands]
        assert sorted(degrees) == [0, 1, 1, 1, 1, 1, 2, 2]
        maximal = [s for s in dec.summands if s.ideal.is_maximal]
        assert maximal[0].shift_degree == 1
        for s in dec.summands:
            assert s.shift_degree == functional.degree(s.shift)

    def test_free(self):
        B = validate([(1, 0), (0, 1)])
        assert [s.shift_degree for s in decompose(B).summands] == [0]

    def test_quartic(self, quartic):
        degrees = [s.shift_degree for s in decompose(quartic).summands]
        assert sorted(degrees) == [0, 1, 1, 1]

    def test_not_homogeneous(self):
        B = validate([(2,), (3,)])
        assert [s.shift_degree for s in decompose(B).summands] == [None, None]


class TestInvariants:
    def test_exponents_integral_and_nonnegative(self, sec3):
        dec = decompose(sec3)
        frame = dec.frame
        for s in dec.summands:
            shift_lam = solve_fractions(frame.elements, s.shift)
            gens = set()
            for v in s.gamma:
                lam = solve_fractions(frame.elements, v)
                diff = tuple(a - b for a, b in zip(lam, shift_lam))
                assert all(q.denominator == 1 and q >= 0 for q in diff)
                gens.add(tuple(int(q) for q in diff))
            assert gens == set(s.ideal.gens)

    def test_componentwise_min_zero(self, sec3, quartic, quintic):
        for B in (sec3, quartic, quintic):
            for s in decompose(B).summands:
                for k in range(s.ideal.num_vars):
                    assert min(g[k] for g in s.ideal.gens) == 0

    def test_antichain(self, sec3, quintic):
        for B in (sec3, quintic):
            for s in decompose(B).summands:
                gens = s.ideal.gens
                for a in gens:
                    for b in gens:
                        if a != b:
                            assert not all(x <= y for x, y in zip(a, b))

    def test_deterministic(self):
        assert decompose(validate(SEC3_GENS)) == decompose(validate(SEC3_GENS))

    def test_missed_coset_raises(self, sec3, monkeypatch):
        # (3, 0, 1) is alone in its coset, so dropping it leaves 7 of 8
        found = sec3.module_generator_cosets()
        monkeypatch.setattr(sec3, "module_generator_cosets", lambda: tuple(
            c for c in found if c[1][0][0] != (3, 0, 1)))
        with pytest.raises(InternalError):
            decompose(sec3)

    def test_missed_coset_raises_under_optimize(self):
        code = (
            "from monoalg import decompose, validate\n"
            "from monoalg.errors import InternalError\n"
            f"B = validate({SEC3_GENS!r})\n"
            "found = B.module_generator_cosets()\n"
            "B.module_generator_cosets = lambda: tuple(\n"
            "    c for c in found if c[1][0][0] != (3, 0, 1))\n"
            "try:\n"
            "    decompose(B)\n"
            "except InternalError:\n"
            "    print('raised')\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(monoalg.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env,
                              check=True)
        assert proc.stdout == "raised\n"

    def test_split_coset_raises(self, sec3, monkeypatch):
        # the two halves of one class keep its label
        found = sec3.module_generator_cosets()
        label, big = next(c for c in found if len(c[1]) > 1)
        fake = (tuple(c for c in found if c[0] != label)
                + ((label, big[:1]), (label, big[1:])))
        monkeypatch.setattr(sec3, "module_generator_cosets", lambda: fake)
        with pytest.raises(InternalError):
            decompose(sec3)

    def test_non_divisible_numerators_raise(self, sec3, monkeypatch):
        # (3, 0, 1) joins the class of 0; its frame numerators differ from
        # those of 0 by a non-multiple of the denominators
        found = sec3.module_generator_cosets()
        stray = next(c[1][0] for c in found if c[1][0][0] == (3, 0, 1))
        fake = tuple((label, members + (stray,))
                     if members[0][0] == (0, 0, 0) else (label, members)
                     for label, members in found)
        monkeypatch.setattr(sec3, "module_generator_cosets", lambda: fake)
        with pytest.raises(InternalError, match="not a multiple"):
            decompose(sec3)

    def test_summands_carry_search_numerators(self, sec3):
        frame = sec3.frame()
        for s in decompose(sec3).summands:
            assert s.gamma_numerators == tuple(frame.numerators(x)
                                               for x in s.gamma)
            assert s.shift_numerators == frame.numerators(s.shift)


class TestHilbertVerify:
    def test_example(self, sec3):
        dec = decompose(sec3)
        assert hilbert_verify(sec3, dec, sec3.degree_functional(), 6)

    def test_free(self):
        B = validate([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert hilbert_verify(B, decompose(B), B.degree_functional(), 10)

    def test_corrupted_decomposition_fails(self, sec3):
        dec = decompose(sec3)
        broken = Decomposition(dec.frame, dec.group_order,
                               dec.invariant_factors, dec.summands[:-1])
        assert not hilbert_verify(sec3, broken, sec3.degree_functional(), 6)

    def test_wrong_shift_degree_fails(self, sec3):
        # one degree off by one, every ideal and shift left as it is
        dec = decompose(sec3)
        bad = dec.summands[-1]._replace(
            shift_degree=dec.summands[-1].shift_degree + 1)
        broken = dec._replace(summands=dec.summands[:-1] + (bad,))
        assert not hilbert_verify(sec3, broken, sec3.degree_functional(), 6)

    @pytest.mark.parametrize("corrupt", [
        lambda s: s._replace(shift=(s.shift[0] + 1,) + s.shift[1:]),
        lambda s: s._replace(shift=tuple(-4 * e for e in s.shift),
                             shift_degree=-4 * s.shift_degree),
        lambda s: s._replace(shift_degree=None),
        lambda s: s._replace(shift_degree=float(s.shift_degree)),
    ], ids=["non_integer_degree", "negative_degree", "no_degree",
            "float_degree"])
    def test_bad_shift_fails_without_raising(self, sec3, corrupt):
        # the last summand's shift (3, 2, 3) of degree 2 made (4, 2, 3), of
        # degree 9/4; or (-12, -8, -12) of degree -8, which would index
        # before the start of a t_max-6 numerator; or its degree None; or
        # its degree 2.0, equal to the true degree but no list index
        dec = decompose(sec3)
        assert dec.summands[-1].shift == (3, 2, 3)
        bad = corrupt(dec.summands[-1])
        broken = dec._replace(summands=dec.summands[:-1] + (bad,))
        assert not hilbert_verify(sec3, broken, sec3.degree_functional(), 6)

    def test_verdict_matches_the_per_degree_reference(self):
        # numerators against the earlier Hilbert function comparison, for
        # t_max 0..8, as computed and with one Betti number of every
        # nonunit ideal bumped: the k-th of its sorted table entries
        rng = random.Random(23)
        instances = [validate(SEC3_GENS), validate(SKEW_GENS)]
        for shape in [(3, 8, 5), (4, 6, 6), (5, 2, 5), (5, 3, 5), (3, 5, 3)]:
            drawn = [random_simplicial_instance(rng, *shape)
                     for _ in range(6)]
            instances += [B for B in drawn if B is not None][:4]
        real = homology._betti_table
        seen = set()
        cases = 0
        for B in instances:
            dec = decompose(B)
            counts = degree_counts_tuples(B.generators, 8)
            for k in [None, *range(6)]:
                def bumped(ideal, char, memo, k=k):
                    table = real(ideal, char, memo)
                    if k is None or ideal.is_unit:
                        return table
                    entries = dict(table.entries)
                    entries[sorted(entries)[k % len(entries)]] += 1
                    return BettiTable(entries)

                fresh = dec._replace()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(homology, "_betti_table", bumped)
                    for t_max in range(9):
                        ok = hilbert_verify(B, fresh, B.degree_functional(),
                                            t_max)
                        assert ok is reference_hilbert_verify(counts, fresh,
                                                              t_max)
                        seen.add((k is None, ok))
                        cases += 1
        # every unbumped case passes, and bumps both fail and (above
        # t_max) pass
        assert seen == {(True, True), (False, False), (False, True)}
        assert cases == 9 * 7 * (2 + 4 * 5)

    def test_corrupted_betti_table_fails(self, sec3, monkeypatch):
        corrupt_maximal_ideal_table(monkeypatch)
        dec = decompose(sec3)
        assert not hilbert_verify(sec3, dec, sec3.degree_functional(), 6)

    @pytest.mark.parametrize("char", [0, 32003])
    def test_verifies_the_tables_of_the_reported_characteristic(
            self, sec3, char, monkeypatch, tmp_path, capsys):
        # only the char-32003 table of the maximal ideal is wrong: verify
        # sees it exactly when the regularity was read off char 32003
        corrupt_maximal_ideal_table(monkeypatch, 32003)
        dec = decompose(sec3)
        analyze(sec3, char, dec)
        ok = char == 0
        assert hilbert_verify(sec3, dec, sec3.degree_functional(), 6) is ok
        path = tmp_path / "sec3.txt"
        path.write_text("".join(" ".join(map(str, g)) + "\n"
                                for g in SEC3_GENS))
        assert main(["reg", "--input", str(path), "--char", str(char),
                     "--verify", "--tmax", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hilbert_verify"] == {"t_max": 6, "ok": ok}

    def test_one_betti_table_per_distinct_ideal(self, monkeypatch):
        # analyze and then verify, on instances with repeated ideals
        calls = []
        real = homology._betti_table

        def counted(ideal, char, memo):
            calls.append((ideal, char))
            return real(ideal, char, memo)

        monkeypatch.setattr(homology, "_betti_table", counted)
        for gens in (SEC3_GENS, [(6, 0), (0, 6), (1, 5), (5, 1)]):
            B = validate(gens)
            dec = decompose(B)
            calls.clear()
            analyze(B, 0, dec)
            assert hilbert_verify(B, dec, B.degree_functional(), 6)
            distinct = {s.ideal for s in dec.summands}
            assert len(distinct) < len(dec.summands)
            assert len(calls) == len(distinct)
            assert set(calls) == {(ideal, 0) for ideal in distinct}

    def test_replace_starts_an_empty_memo(self, sec3):
        # analyze fills dec's memo first; a decomposition made from it by
        # _replace must compute its own tables, not read dec's
        dec = decompose(sec3)
        analyze(sec3, 0, dec)
        assert set(dec.tables) == {0}
        k = next(i for i, s in enumerate(dec.summands) if s.ideal.is_maximal)
        bad = dec.summands[k]._replace(ideal=MonomialIdeal.unit(3))
        broken = dec._replace(
            summands=dec.summands[:k] + (bad,) + dec.summands[k + 1:])
        assert type(broken) is Decomposition
        assert broken.tables == {}
        assert not hilbert_verify(sec3, broken, sec3.degree_functional(), 6)
        assert hilbert_verify(sec3, dec, sec3.degree_functional(), 6)

    def test_swapped_ideal_fails(self, sec3):
        # the unit ideal, also a summand ideal of sec3, in place of the
        # maximal one; shifts and their degrees left as they are
        dec = decompose(sec3)
        k = next(i for i, s in enumerate(dec.summands) if s.ideal.is_maximal)
        bad = dec.summands[k]._replace(ideal=MonomialIdeal.unit(3))
        assert any(s.ideal == bad.ideal for s in dec.summands)
        broken = dec._replace(
            summands=dec.summands[:k] + (bad,) + dec.summands[k + 1:])
        assert not hilbert_verify(sec3, broken, sec3.degree_functional(), 6)

    def test_not_homogeneous(self):
        B = validate([(2,), (3,)])
        with pytest.raises(NotHomogeneousError):
            hilbert_verify(B, decompose(B), B.degree_functional(), 4)

    def test_negative_t_max_raises_before_any_table(self):
        # and so does a float, before it can reach range()
        B = validate([(1, 0), (0, 1)])
        dec = decompose(B)
        for t_max in (-3, 8.0):
            with pytest.raises(ValueError, match="t_max"):
                hilbert_verify(B, dec, B.degree_functional(), t_max)
        assert dec.tables == {}

    @pytest.mark.parametrize("gens, t_max", [
        # one kept coordinate of radix 4 * (10**6 + 1) + 1: a bitset layer
        ([(10**6, 1), (1, 10**6), (10**6 + 1, 0), (0, 10**6 + 1)], 4),
        # two kept coordinates of radix 5 * 10**6 + 1, set layers: with one
        # less, 5 * (1, 10**6, 0) would carry into the third coordinate and
        # pack like (10**6, 0, 1) + 4 * (10**6 + 1, 0, 0)
        ([(1, 10**6, 0), (10**6, 0, 1), (10**6 + 1, 0, 0), (1, 0, 10**6)],
         5),
    ], ids=["one_kept", "two_kept"])
    @pytest.mark.parametrize("sets_only", [False, True],
                             ids=["default_cap", "sets_only"])
    def test_degree_counts_near_a_million(self, gens, t_max, sets_only,
                                          monkeypatch):
        # every generator has degree 1 under coordinate sum / (10**6 + 1);
        # packing must not carry from one coordinate into the next
        functional = DegreeFunctional((1,) * len(gens[0]), 10**6 + 1)
        assert all(functional.degree(g) == 1 for g in gens)
        if sets_only:
            monkeypatch.setattr(homology, "_BITSET_BITS", 0)
        assert homology._degree_counts(gens, t_max, functional) == \
            degree_counts_tuples(gens, t_max)

    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 4), st.lists(st.integers(0, 4), max_size=2),
           st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_degree_counts_on_degree_one_sets(self, seed, dim, degree,
                                              extras, added, t_max):
        # a random_simplicial_instance, with columns appended: a zero column
        # or a sum of two columns, so the rank is below the ambient
        # dimension and some numerators of the functional are zero
        rng = random.Random(seed)
        inst = random_simplicial_instance(rng, dim, degree, extras)
        if inst is None:
            return
        gens = [list(g) for g in inst.generators]
        for a in added:
            for g in gens:
                g.append(0 if a == 4 else g[a % dim] + g[(a + 1) % dim])
        B = validate([tuple(g) for g in gens])
        functional = B.degree_functional()
        expected = degree_counts_tuples(B.generators, t_max)
        assert homology._degree_counts(B.generators, t_max,
                                       functional) == expected
        with pytest.MonkeyPatch.context() as mp:  # every layer a set
            mp.setattr(homology, "_BITSET_BITS", 0)
            assert homology._degree_counts(B.generators, t_max,
                                           functional) == expected

    def test_degree_counts_above_the_bitset_cap(self):
        # (6, 0, ..) scaled frame in N^6 and t_max 8: radix 49 in each of
        # the five kept coordinates, 49**5 bits, past the cap
        B = random_simplicial_instance(random.Random(3), 6, 6, 2)
        t_max = 8
        assert (t_max * 6 + 1) ** 5 > homology._BITSET_BITS
        assert homology._degree_counts(
            B.generators, t_max, B.degree_functional()) == \
            degree_counts_tuples(B.generators, t_max)

    @pytest.mark.parametrize("scale", [(2, 1), (1, 2)])
    def test_functional_not_of_degree_one_fails(self, sec3, scale,
                                                monkeypatch):
        # degree 2, or 1/2, on every generator: the sums of t generators
        # are then not the degree-t elements, so nothing is counted
        f = sec3.degree_functional()
        wrong = DegreeFunctional(tuple(c * scale[0] for c in f.numerators),
                                 f.denominator * scale[1])

        def refuse(*args):
            pytest.fail("degree layers were counted")

        monkeypatch.setattr(homology, "_degree_counts", refuse)
        assert not hilbert_verify(sec3, decompose(sec3), wrong, 6)

    def test_randomized_instances(self):
        rng = random.Random(1234)
        produced = 0
        while produced < 25:
            inst = random_simplicial_instance(
                rng, rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 3))
            if inst is None:
                continue
            produced += 1
            dec = decompose(inst)
            assert hilbert_verify(inst, dec, inst.degree_functional(), 8)
