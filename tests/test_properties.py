import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoalg
from monoalg import (
    decompose,
    full_report,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
    is_normal,
    is_seminormal,
    validate,
)
from monoalg.errors import NotSimplicialError
from monoalg.sweep import random_simplicial_instance
from conftest import NONSIMPLICIAL_GENS, SEC3_GENS
from oracles import (
    brute_cohen_macaulay,
    brute_normal,
    brute_normal_hilbert,
    brute_seminormal,
    numerical_symmetric,
    redundant_generators,
    reference_decompose,
    reference_full_report,
)

gen_sets = st.integers(1, 2).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any),
        min_size=1, max_size=4, unique_by=tuple))

# Buchsbaum fails in the shift phase here: every ideal is unit or maximal,
# but a maximal-ideal shift plus a generator lands on another such shift
STEP7_GENS = [(6, 0), (0, 6), (1, 5), (4, 2)]


class TestSeminormal:
    def test_example_false_with_witness(self, sec3):
        ok, witness = is_seminormal(sec3)
        assert not ok
        assert witness["element"] == (2, 0, 6)
        assert witness["lambda"] == ("1/2", "0", "3/2")
        # the witness genuinely violates the bound and is a module generator
        assert max(map(Fraction, witness["lambda"])) > 1
        assert witness["element"] in sec3.module_generators()

    def test_free_true(self):
        assert is_seminormal(validate([(1, 0), (0, 1)])) == (True, None)

    def test_segment_true(self):
        ok, _ = is_seminormal(validate([(1, 0), (1, 1), (1, 2)]))
        assert ok

    def test_not_simplicial(self):
        with pytest.raises(NotSimplicialError):
            is_seminormal(validate(NONSIMPLICIAL_GENS))


class TestNormal:
    def test_example_false(self, sec3):
        ok, witness = is_normal(sec3)
        assert not ok and witness is not None

    def test_segment_true(self):
        gens = [(1, 0), (1, 1), (1, 2)]
        ok, _ = is_normal(validate(gens))
        assert ok
        # independent Hilbert-basis style oracle
        assert brute_normal_hilbert(gens, probe_sum=12)

    def test_free_true(self):
        ok, _ = is_normal(validate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert ok


class TestCohenMacaulay:
    def test_example_false(self, sec3):
        ok, witness = is_cohen_macaulay(sec3)
        assert not ok
        assert witness["shift"] == (2, 0, 2)
        assert len(witness["ideal"].gens) == 3

    def test_345_true(self):
        ok, _ = is_cohen_macaulay(validate([(3,), (4,), (5,)]))
        assert ok

    def test_free_true(self):
        ok, _ = is_cohen_macaulay(validate([(1, 0), (0, 1)]))
        assert ok


class TestBuchsbaum:
    def test_example_true(self, sec3):
        dec = decompose(sec3)
        tops = [s.shift for s in dec.summands if s.ideal.is_maximal]
        assert tops == [(2, 0, 2)]
        ok, witness = is_buchsbaum(sec3, dec)
        assert ok and witness is None

    def test_quintic_false_ideal_screen(self, quintic):
        ok, witness = is_buchsbaum(quintic)
        assert not ok
        assert witness["kind"] == "ideal"
        assert witness["shift"] == (2, 3)
        assert set(witness["ideal"].gens) == {(2, 0), (0, 1)}
        assert str(witness["ideal"]) == "ideal(x_1^2, x_2)"

    def test_step7_false(self):
        B = validate(STEP7_GENS)
        dec = decompose(B)
        # screen passes: every ideal unit or maximal
        assert all(s.ideal.is_unit or s.ideal.is_maximal
                   for s in dec.summands)
        ok, witness = is_buchsbaum(B, dec)
        assert not ok
        assert witness["kind"] == "sum"
        tops = {s.shift for s in dec.summands if s.ideal.is_maximal}
        assert witness["h"] in tops and witness["sum"] in tops
        assert witness["c"] in set(B.generators)

    def test_cm_implies_buchsbaum(self):
        for gens in ([(3,), (4,), (5,)], [(1, 0), (0, 1)]):
            B = validate(gens)
            assert is_cohen_macaulay(B)[0]
            assert is_buchsbaum(B)[0]


class TestGorenstein:
    def test_23_true(self):
        gens = [(2,), (3,)]
        ok, _ = is_gorenstein(validate(gens))
        assert ok
        assert numerical_symmetric(gens)

    def test_345_false(self):
        gens = [(3,), (4,), (5,)]
        ok, witness = is_gorenstein(validate(gens))
        assert not ok
        assert witness["kind"] == "unpaired"
        assert witness["element"] == (4,)
        assert witness["partner"] == (1,)
        assert not numerical_symmetric(gens)

    def test_example_false_on_ideal_screen(self, sec3):
        ok, witness = is_gorenstein(sec3)
        assert not ok
        assert witness["kind"] == "ideal"

    def test_tie_detected(self):
        # B_A = {0, (1,2), (2,1)}: singleton cosets, two maximal sums
        B = validate([(3, 0), (0, 3), (1, 2), (2, 1)])
        assert set(B.module_generators()) == {(0, 0), (1, 2), (2, 1)}
        assert is_cohen_macaulay(B)[0]
        ok, witness = is_gorenstein(B)
        assert not ok
        assert witness["kind"] == "tie"
        assert set(witness["elements"]) == {(1, 2), (2, 1)}

    @given(st.sets(st.integers(2, 14), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_against_symmetry_oracle(self, values):
        from math import gcd

        if gcd(*values) != 1:
            return
        gens = [(v,) for v in sorted(values)]
        B = validate(gens)
        if redundant_generators(gens):
            return
        ok, _ = is_gorenstein(B)
        assert ok == numerical_symmetric(gens)


class TestFullReport:
    def test_example(self, sec3):
        report = full_report(sec3)
        assert (report.seminormal, report.normal, report.cohen_macaulay,
                report.buchsbaum, report.gorenstein) == (
                    False, False, False, True, False)

    def test_free_all_true(self):
        report = full_report(validate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert all([report.seminormal, report.normal, report.cohen_macaulay,
                    report.buchsbaum, report.gorenstein])

    def test_345(self):
        report = full_report(validate([(3,), (4,), (5,)]))
        assert not report.seminormal
        assert not report.normal
        assert report.cohen_macaulay
        assert report.buchsbaum
        assert not report.gorenstein

    def test_witnesses_for_false_results(self, sec3, quintic):
        for B in (sec3, quintic):
            report = full_report(B)
            for name, value in [("seminormal", report.seminormal),
                                ("normal", report.normal),
                                ("cohen_macaulay", report.cohen_macaulay),
                                ("buchsbaum", report.buchsbaum),
                                ("gorenstein", report.gorenstein)]:
                if not value:
                    assert report.witnesses[name] is not None

    def test_order_invariance(self):
        base = full_report(validate(SEC3_GENS))
        rng = random.Random(7)
        for _ in range(5):
            shuffled = SEC3_GENS[:]
            rng.shuffle(shuffled)
            report = full_report(validate(shuffled))
            assert (report.seminormal, report.normal, report.cohen_macaulay,
                    report.buchsbaum, report.gorenstein) == (
                        base.seminormal, base.normal, base.cohen_macaulay,
                        base.buchsbaum, base.gorenstein)
            assert report.witnesses == base.witnesses

    def test_broken_implication_raises_under_optimize(self):
        # sec3 is not Cohen-Macaulay, so a numerator scan claiming
        # normality breaks normal => Cohen-Macaulay
        code = (
            "from monoalg import properties, validate\n"
            "from monoalg.errors import InternalError\n"
            "properties._lambda_verdict = lambda hits, dens: (True, None)\n"
            "try:\n"
            f"    properties.full_report(validate({SEC3_GENS!r}))\n"
            "except InternalError:\n"
            "    print('raised')\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(monoalg.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env,
                              check=True)
        assert proc.stdout == "raised\n"


class TestAgainstReferences:
    """``decompose`` and ``full_report`` against their earlier per-summand
    and five-scan forms in ``tests/oracles.py``, witnesses included."""

    @staticmethod
    def instances():
        yield validate(SEC3_GENS)
        for gens in (STEP7_GENS, [(3,), (4,), (5,)],
                     [(3, 0), (0, 3), (1, 2), (2, 1)]):
            yield validate(gens)
        rng = random.Random(16)
        produced = 0
        while produced < 220:
            inst = random_simplicial_instance(
                rng, rng.randint(3, 5), rng.randint(2, 5), rng.randint(1, 5))
            if inst is not None:
                produced += 1
                yield inst

    def test_equal_to_references(self):
        kinds = set()
        for inst in self.instances():
            dec = decompose(inst)
            assert dec == reference_decompose(inst)
            report = full_report(inst, dec)
            assert report == reference_full_report(inst, dec)
            kinds.update((name, (w or {}).get("kind"))
                         for name, w in report.witnesses.items())
        # every witness shape of Buchsbaum and Gorenstein occurred
        assert {("buchsbaum", "ideal"), ("buchsbaum", "sum"),
                ("gorenstein", "ideal"), ("gorenstein", "tie"),
                ("gorenstein", "unpaired")} <= kinds


class TestOracleEquivalence:
    @given(gen_sets)
    @settings(max_examples=80, deadline=None)
    def test_brute_force_agreement(self, gens):
        B = validate(gens)
        assert B.is_simplicial()  # cones in N^1 and N^2 always are
        dec = decompose(B)
        assert is_seminormal(B, dec)[0] == brute_seminormal(gens)
        assert is_normal(B, dec)[0] == brute_normal(gens)
        assert is_cohen_macaulay(B, dec)[0] == brute_cohen_macaulay(gens)

    def test_implication_chain_randomized(self):
        rng = random.Random(99)
        produced = 0
        while produced < 40:
            inst = random_simplicial_instance(
                rng, rng.randint(1, 3), rng.randint(1, 5), rng.randint(0, 3))
            if inst is None:
                continue
            produced += 1
            r = full_report(inst)
            if r.normal:
                assert r.seminormal and r.cohen_macaulay
            if r.gorenstein:
                assert r.cohen_macaulay
            if r.cohen_macaulay:
                assert r.buchsbaum

    def test_ideal_screen_fires_before_shift_phase(self):
        # whenever some summand carries a generator of total degree >= 2
        # next to another generator, Buchsbaum must fail on that screen
        rng = random.Random(321)
        screened = 0
        produced = 0
        while produced < 60:
            inst = random_simplicial_instance(
                rng, rng.randint(2, 3), rng.randint(2, 5), rng.randint(1, 3))
            if inst is None:
                continue
            produced += 1
            dec = decompose(inst)
            bad = any(len(s.ideal.gens) >= 2
                      and any(sum(g) >= 2 for g in s.ideal.gens)
                      for s in dec.summands)
            if bad:
                ok, witness = is_buchsbaum(inst, dec)
                assert not ok
                assert witness["kind"] == "ideal"
                screened += 1
        assert screened > 0
