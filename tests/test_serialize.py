import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoalg import MonomialIdeal, betti_ideal, decompose, full_report, validate
from monoalg.serialize import (
    canonical_json,
    decomposition_to_dict,
    jsonable,
    property_report_to_dict,
    report_text,
    sweep_text,
)
from conftest import SEC3_GENS


def test_betti_triples_sorted():
    table = betti_ideal(
        MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert table.triples() == [(0, 1, 3), (1, 2, 3), (2, 3, 1)]


def test_jsonable_fractions_and_ideals():
    # frame coordinates reach documents as text, so no Fraction is written
    with pytest.raises(TypeError, match="Fraction"):
        canonical_json(jsonable({"x": Fraction(1, 2)}))
    out = jsonable({"ideal": MonomialIdeal.unit(2)})
    assert out["ideal"]["display"] == "ideal(1)"


def test_records_in_witnesses_are_rejected():
    # a record is a tuple, but it is no JSON list
    B = validate(SEC3_GENS)
    dec = decompose(B)
    report = full_report(B, dec)._replace(
        witnesses={"normal": {"frame": dec.frame}})
    doc = property_report_to_dict(report)
    assert doc["witnesses"]["normal"]["frame"] is dec.frame
    with pytest.raises(TypeError, match="Frame"):
        canonical_json(doc)


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [2, 1], "b": 1}


# every value type the package emits, with ints past 2**64, non-ASCII and
# control characters, and bools and None among ints
json_scalars = st.one_of(st.none(), st.booleans(), st.text(),
                         st.integers(), st.integers(-2**80, 2**80))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.one_of(st.integers(-2**70, 2**70), st.booleans(),
                           st.none()), max_size=5),
        st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30)


@given(st.dictionaries(st.text(), json_values, max_size=6))
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_json_dumps(doc):
    assert canonical_json(doc) == \
        json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {"a": 1.5}, {"a": [1, 2.0]}, {"a": {1, 2}}, {"a": (1, 2)},
    {"a": {"b": [[1], {3}]}}, {1: 2}])
def test_canonical_json_rejects_other_types(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


# hypothesis never draws one object twice, so the writer's per-call reuse of
# a dict's text and of an int list's template gets explicit cases
_SHARED = {"gens": [[0, 1], [2, 0]], "display": "ideal(x_2, x_1^2)", "n": 2}


@pytest.mark.parametrize("doc", [
    {"a": _SHARED, "b": [_SHARED], "c": {"d": [{"e": _SHARED}]}},
    {"a": [_SHARED, _SHARED], "b": _SHARED},
    {"a": [{"i": _SHARED, "s": [1, 2]}, {"i": _SHARED, "s": [3, 4]}]},
    {"a": [1, 2, 3], "b": [[4, 5, 6]], "c": {"d": [[7, 8, 9], [1, 2, 3]]},
     "e": [-1, 2**70, 0]},
    {"a": [1, True]},
    {"a": [[1, 2], [3, True]]},
    {"a": [[1, 2], [True, 2], [1, None], [1, 2]]},
])
def test_canonical_json_reuse_matches_json_dumps(doc):
    assert canonical_json(doc) == \
        json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_decomposition_dict_round_trips_canonically():
    dec = decompose(validate(SEC3_GENS))
    doc = decomposition_to_dict(dec, verbose=True)
    coset_keys = [tuple(s["coset"]) for s in doc["summands"]]
    assert coset_keys == sorted(coset_keys)
    blob = canonical_json(doc)
    assert json.loads(blob) == json.loads(canonical_json(doc))


def test_witness_text_variants():
    # shift-phase failure: h + c lands back in the shift set
    report = full_report(validate([(6, 0), (0, 6), (1, 5), (4, 2)]))
    lines = report_text({"properties": property_report_to_dict(report)})
    assert "buchsbaum: false" in lines
    assert "witness:" in lines and " + " in lines

    # tie failure for the pairing test
    report = full_report(validate([(3, 0), (0, 3), (1, 2), (2, 1)]))
    lines = report_text({"properties": property_report_to_dict(report)})
    assert "maximal coordinate sum tied" in lines

    # unpaired element
    report = full_report(validate([(3,), (4,), (5,)]))
    lines = report_text({"properties": property_report_to_dict(report)})
    assert "has no partner" in lines


def test_property_report_dict_drops_absent_witnesses():
    report = full_report(validate([(1, 0), (0, 1)]))
    doc = property_report_to_dict(report)
    assert doc["witnesses"] == {}
    assert doc["cohen_macaulay"] is True


def test_sweep_text_prints_each_violation():
    violation = {"generators": [[2, 0], [0, 2], [1, 1]], "regularity": 3,
                 "degree": 2, "codim": 1, "eg_bound": 1, "eg_holds": False,
                 "depth": 2, "properties": {}}
    summary = {"config": {"seed": 7}, "attempted": 2, "analyzed": 1,
               "skipped": 1, "properties": {"normal": 1, "buchsbaum": 0},
               "regularity": {"min": 3, "max": 3},
               "eg_violations": [violation]}
    assert sweep_text(summary) == (
        "sweep: 1 analyzed, 1 skipped (seed 7)\n"
        "properties: buchsbaum=0, normal=1\n"
        "regularity: min 3 max 3\n"
        "bound violations: 1\n"
        "  VIOLATION: [[2, 0], [0, 2], [1, 1]] reg 3 bound 1\n")
