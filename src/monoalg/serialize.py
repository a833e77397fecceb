"""Canonical report shapes.

JSON documents are rendered with sorted keys and two-space indentation,
byte for byte as ``json.dumps(doc, sort_keys=True, indent=2)`` would, by
one recursive writer (``canonical_json``) that CLI reports and ``sweep
--json`` share.  It accepts dicts with string keys, lists, strings
(ASCII-escaped by ``json``'s C routine), ints, bools and None, and raises
:class:`TypeError` on any other value.  Within one call it writes each
all-int list with one ``%d`` template per length and indentation, and a
dict met again at the same indentation (summands with one ideal share its
document) reuses the text of its first rendering.  Summands are already
sorted by coset label inside ``Decomposition``, and every set-valued field
is sorted before serialization, so output is byte-identical across runs
and platforms.  The text format is printed from those same documents
(``report_text``, ``sweep_text``), so it holds the content of the JSON by
construction; it mimics a hash-table session display for easy human
diffing.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .decomposition import Decomposition, MonomialIdeal, Summand
from .homology import RegularityReport
from .properties import PROPERTY_NAMES, PropertyReport
from .semigroup import AffineSemigroup


def jsonable(value):
    """Recursively convert package values into JSON-serializable data.
    Only plain lists and tuples become lists: any other record is left as
    it is, so that :func:`canonical_json` rejects it."""
    if isinstance(value, MonomialIdeal):
        return ideal_to_dict(value)
    if type(value) in (list, tuple):
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


def summand_to_dict(s: Summand, dec: Decomposition, ideal: dict,
                    verbose: bool = False) -> dict:
    """The summand's document; ``ideal`` is its ideal's, which summands
    with one ideal share."""
    out = {
        "coset": list(s.coset),
        "shift": list(s.shift),
        "ideal": ideal,
        "gamma": [list(v) for v in s.gamma],
    }
    if s.shift_degree is not None:
        out["shift_degree"] = s.shift_degree
    if verbose:
        text = dec.frame.lambda_text
        out["shift_lambda"] = list(text(s.shift_numerators))
        out["gamma_lambda"] = [list(text(num)) for num in s.gamma_numerators]
    return out


def decomposition_to_dict(dec: Decomposition, verbose: bool = False) -> dict:
    ideals = {ideal: ideal_to_dict(ideal)
              for ideal in {s.ideal for s in dec.summands}}
    return {
        "frame": [list(e) for e in dec.frame.elements],
        "group": {
            "invariant_factors": list(dec.invariant_factors),
            "order": dec.group_order,
        },
        "summands": [summand_to_dict(s, dec, ideals[s.ideal], verbose)
                     for s in dec.summands],
    }


def property_report_to_dict(report: PropertyReport) -> dict:
    doc = {name: getattr(report, name) for name in PROPERTY_NAMES}
    doc["witnesses"] = {k: jsonable(w) for k, w in report.witnesses.items()
                        if w is not None}
    return doc


def regularity_report_to_dict(report: RegularityReport) -> dict:
    return {**report._asdict(),
            "witnesses": [{"coset": list(c), "ideal_regularity": r,
                           "shift_degree": d}
                          for c, r, d in report.witnesses]}


def semigroup_to_dict(semigroup: AffineSemigroup) -> dict:
    return {
        "generators": [list(g) for g in semigroup.generators],
        "ambient_dim": semigroup.ambient_dim,
        "rank": semigroup.rank,
        "simplicial": semigroup.is_simplicial(),
        "homogeneous": semigroup.is_homogeneous,
    }


def canonical_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, written
    directly: ``json`` falls back to its pure-Python encoder under an
    indent."""
    out: list[str] = []
    _write(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str], memo: dict) -> None:
    """Append ``value`` as indented JSON to ``out``; ``newline`` is a line
    break followed by the indentation of the line ``value`` starts on.
    ``memo`` lasts one call.  It maps a list's indentation and element types
    to its ``%d`` template when every element is an int ("" otherwise), and
    a dict's id and indentation to its text (the document keeps every dict
    alive)."""
    if isinstance(value, list):
        if not value:
            out.append("[]")
            return
        key = (newline, *map(type, value))
        template = memo.get(key)
        if template is None:
            inner = newline + "  "
            template = memo[key] = (
                "[" + inner + ("," + inner).join(["%d"] * len(value))
                + newline + "]") if all(t is int for t in key[1:]) else ""
        if template:
            out.append(template % tuple(value))
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out, memo)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        key = (id(value), newline)
        text = memo.get(key)
        if text is None:
            start = len(out)
            inner = newline + "  "
            sep = "{" + inner
            for k, v in sorted(value.items()):
                out.append(sep + encode_basestring_ascii(k) + ": ")
                _write(v, inner, out, memo)
                sep = "," + inner
            out.append(newline + "}")
            text = memo[key] = "".join(out[start:])
            del out[start:]
        out.append(text)
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(
            f"{type(value).__name__} values are not written as JSON")


# ---------------------------------------------------------------------------
# text rendering, printed from the documents above
# ---------------------------------------------------------------------------

def _vec_str(v) -> str:
    return "(" + ", ".join(str(e) for e in v) + ")"


def _decomposition_text(dec: dict) -> list[str]:
    factors = dec["group"]["invariant_factors"]
    lines = [
        f"frame: {', '.join(_vec_str(e) for e in dec['frame'])}",
        "group: " + (" x ".join(f"Z/{f}" for f in factors)
                     if factors else "trivial")
        + f" (order {dec['group']['order']})",
        "decomposition:",
    ]
    for s in dec["summands"]:
        line = (f"  {_vec_str(s['coset'])} => {{ {s['ideal']['display']}, "
                f"shift {_vec_str(s['shift'])} }}")
        if "shift_degree" in s:
            line += f"  deg {s['shift_degree']}"
        if "shift_lambda" in s:
            line += f"  lambda {_vec_str(s['shift_lambda'])}"
        lines.append(line)
    return lines


def _witness_text(witness: dict) -> str:
    kind = witness.get("kind")
    if "lambda" in witness:
        body = (f"x={_vec_str(witness['element'])}"
                f" lambda={_vec_str(witness['lambda'])}")
    elif kind == "sum":
        body = (f"{_vec_str(witness['h'])} + {_vec_str(witness['c'])}"
                f" = {_vec_str(witness['sum'])}")
    elif kind == "tie":
        body = "maximal coordinate sum tied between " + ", ".join(
            _vec_str(v) for v in witness["elements"])
    elif kind == "unpaired":
        body = (f"{_vec_str(witness['element'])} has no partner"
                f" ({_vec_str(witness['partner'])} missing)")
    else:
        body = (f"{witness['ideal']['display']} at shift"
                f" {_vec_str(witness['shift'])}")
    return "  witness: " + body


def _properties_text(props: dict) -> list[str]:
    lines = ["properties:"]
    for name in PROPERTY_NAMES:
        # every false property has a witness
        extra = "" if props[name] else _witness_text(props["witnesses"][name])
        lines.append(f"  {name}: {str(props[name]).lower()}{extra}")
    return lines


def _regularity_text(reg: dict) -> list[str]:
    attained = "; ".join(
        f"coset {_vec_str(w['coset'])}: ideal reg {w['ideal_regularity']}"
        f" + shift deg {w['shift_degree']}" for w in reg["witnesses"])
    return [
        f"regularity: {reg['regularity']}  ({attained})",
        f"degree: {reg['degree']}  codim: {reg['codim']}",
        f"bound degree - codim = {reg['eg_bound']}: "
        + ("holds" if reg["eg_holds"] else "VIOLATED"),
        f"depth: {reg['depth']}",
    ]


def report_text(doc: dict) -> str:
    """The text view of a CLI report document: each section it holds, in
    report order."""
    lines = []
    if "generators" in doc:
        name = f" {doc['name']!r}" if "name" in doc else ""
        lines.append(f"semigroup{name}: {len(doc['generators'])} generators "
                     f"in N^{doc['ambient_dim']}, rank {doc['rank']}")
    if "decomposition" in doc:
        lines += _decomposition_text(doc["decomposition"])
    if "properties" in doc:
        lines += _properties_text(doc["properties"])
    if "regularity" in doc:
        lines += _regularity_text(doc["regularity"])
    if "holds" in doc:  # the eg view
        lines.append(f"reg {doc['reg']} <= degree - codim = {doc['bound']}: "
                     + ("holds" if doc["holds"] else "VIOLATED"))
    if "hilbert_verify" in doc:
        check = doc["hilbert_verify"]
        lines.append(f"degree counts match up to t={check['t_max']}: "
                     f"{check['ok']}")
    return "".join(line + "\n" for line in lines)


def sweep_text(summary: dict) -> str:
    """The text view of a ``run_sweep`` summary."""
    reg = summary["regularity"]
    lines = [
        f"sweep: {summary['analyzed']} analyzed, {summary['skipped']} "
        f"skipped (seed {summary['config']['seed']})",
        "properties: " + ", ".join(
            f"{k}={v}" for k, v in sorted(summary["properties"].items())),
        f"regularity: min {reg['min']} max {reg['max']}",
        f"bound violations: {len(summary['eg_violations'])}",
    ]
    lines += [f"  VIOLATION: {v['generators']} reg {v['regularity']}"
              f" bound {v['eg_bound']}" for v in summary["eg_violations"]]
    return "".join(line + "\n" for line in lines)
