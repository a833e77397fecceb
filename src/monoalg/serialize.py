"""Canonical report shapes.

JSON documents are rendered with sorted keys and two-space indentation;
summands are already sorted by coset label inside ``Decomposition``, and
every set-valued field is sorted before serialization, so output is
byte-identical across runs and platforms.  The text format keeps the same
numeric content as the JSON and mimics a hash-table session display for
easy human diffing.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .decomposition import Decomposition, MonomialIdeal, Summand
from .homology import RegularityReport
from .properties import PropertyReport
from .semigroup import AffineSemigroup


def frac_str(q: Fraction) -> str:
    return str(q)


def jsonable(value):
    """Recursively convert package values into JSON-serializable data."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, MonomialIdeal):
        return ideal_to_dict(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def ideal_to_dict(ideal: MonomialIdeal) -> dict:
    return {
        "num_vars": ideal.num_vars,
        "gens": [list(g) for g in ideal.gens],
        "display": str(ideal),
    }


def summand_to_dict(s: Summand, dec: Decomposition, verbose: bool = False) -> dict:
    out = {
        "coset": list(s.coset),
        "shift": list(s.shift),
        "ideal": ideal_to_dict(s.ideal),
        "gamma": [list(v) for v in s.gamma],
    }
    if s.shift_degree is not None:
        out["shift_degree"] = s.shift_degree
    if verbose:
        out["shift_lambda"] = _lambda(dec, s.shift_numerators)
        out["gamma_lambda"] = [_lambda(dec, num) for num in s.gamma_numerators]
    return out


def _lambda(dec: Decomposition, numerators) -> list[str]:
    """Frame coordinates, as strings, from their numerators."""
    return [frac_str(Fraction(a, p))
            for a, p in zip(numerators, dec.frame.denominators)]


def decomposition_to_dict(dec: Decomposition, verbose: bool = False) -> dict:
    return {
        "frame": [list(e) for e in dec.frame.elements],
        "group": {
            "invariant_factors": list(dec.invariant_factors),
            "order": dec.group_order,
        },
        "summands": [summand_to_dict(s, dec, verbose) for s in dec.summands],
    }


def property_report_to_dict(report: PropertyReport) -> dict:
    return {
        "seminormal": report.seminormal,
        "normal": report.normal,
        "cohen_macaulay": report.cohen_macaulay,
        "buchsbaum": report.buchsbaum,
        "gorenstein": report.gorenstein,
        "witnesses": {k: jsonable(w) for k, w in report.witnesses.items()
                      if w is not None},
    }


def regularity_report_to_dict(report: RegularityReport) -> dict:
    return {
        "regularity": report.regularity,
        "witnesses": [{"coset": list(c), "ideal_regularity": r,
                       "shift_degree": d}
                      for c, r, d in report.witnesses],
        "degree": report.degree,
        "codim": report.codim,
        "eg_bound": report.eg_bound,
        "eg_holds": report.eg_holds,
        "depth": report.depth,
    }


def semigroup_to_dict(semigroup: AffineSemigroup) -> dict:
    return {
        "generators": [list(g) for g in semigroup.generators],
        "ambient_dim": semigroup.ambient_dim,
        "rank": semigroup.rank,
        "simplicial": semigroup.is_simplicial(),
        "homogeneous": semigroup.is_homogeneous,
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _vec_str(v) -> str:
    return "(" + ", ".join(str(e) for e in v) + ")"


def decomposition_text(dec: Decomposition, verbose: bool = False) -> list[str]:
    lines = [
        f"frame: {', '.join(_vec_str(e) for e in dec.frame.elements)}",
        "group: " + (" x ".join(f"Z/{f}" for f in dec.invariant_factors)
                     if dec.invariant_factors else "trivial")
        + f" (order {dec.group_order})",
        "decomposition:",
    ]
    for s in dec.summands:
        deg = f"  deg {s.shift_degree}" if s.shift_degree is not None else ""
        line = (f"  {_vec_str(s.coset)} => {{ {s.ideal}, "
                f"shift {_vec_str(s.shift)} }}{deg}")
        if verbose:
            line += f"  lambda {_vec_str(_lambda(dec, s.shift_numerators))}"
        lines.append(line)
    return lines


def _witness_text(witness) -> str:
    if witness is None:
        return ""
    if "element" in witness and "lambda" in witness:
        return (f"  witness: x={_vec_str(witness['element'])}"
                f" lambda={_vec_str(frac_str(q) for q in witness['lambda'])}")
    if witness.get("kind") == "sum":
        return (f"  witness: {_vec_str(witness['h'])} + {_vec_str(witness['c'])}"
                f" = {_vec_str(witness['sum'])}")
    if witness.get("kind") == "tie":
        tied = ", ".join(_vec_str(v) for v in witness["elements"])
        return f"  witness: maximal coordinate sum tied between {tied}"
    if witness.get("kind") == "unpaired":
        return (f"  witness: {_vec_str(witness['element'])} has no partner"
                f" ({_vec_str(witness['partner'])} missing)")
    if "ideal" in witness:
        return (f"  witness: {witness['ideal']} at shift"
                f" {_vec_str(witness['shift'])}")
    return f"  witness: {witness}"


def properties_text(report: PropertyReport) -> list[str]:
    lines = ["properties:"]
    for name, value in [("seminormal", report.seminormal),
                        ("normal", report.normal),
                        ("cohen_macaulay", report.cohen_macaulay),
                        ("buchsbaum", report.buchsbaum),
                        ("gorenstein", report.gorenstein)]:
        extra = "" if value else _witness_text(report.witnesses.get(name))
        lines.append(f"  {name}: {str(value).lower()}{extra}")
    return lines


def regularity_text(report: RegularityReport) -> list[str]:
    attained = "; ".join(
        f"coset {_vec_str(c)}: ideal reg {r} + shift deg {d}"
        for c, r, d in report.witnesses)
    return [
        f"regularity: {report.regularity}  ({attained})",
        f"degree: {report.degree}  codim: {report.codim}",
        f"bound degree - codim = {report.eg_bound}: "
        + ("holds" if report.eg_holds else "VIOLATED"),
        f"depth: {report.depth}",
    ]
