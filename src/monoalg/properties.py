"""Ring-property tests for simplicial semigroup rings.

All five tests are combinatorial conditions on one shared decomposition:

* seminormal: no module generator has a frame coordinate above 1;
* normal: no nonzero module generator has a frame coordinate at or above 1;
* Cohen-Macaulay: every summand ideal is the unit ideal;
* Buchsbaum: every summand ideal is unit or the full maximal ideal, and no
  shift of a maximal-ideal summand stays such a shift after adding a
  non-frame generator;
* Gorenstein: Cohen-Macaulay and the shifts pair up against the unique
  shift of maximal coordinate sum.

None of the tests depends on the coefficient field.  Witness objects are
produced for every negative answer; scans run in a fixed canonical order so
witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Decomposition, decompose
from .errors import InternalError
from .semigroup import AffineSemigroup, vkey


@dataclass(frozen=True)
class PropertyReport:
    seminormal: bool
    normal: bool
    cohen_macaulay: bool
    buchsbaum: bool
    gorenstein: bool
    witnesses: dict[str, object]


def _dec(semigroup: AffineSemigroup, dec: Decomposition | None) -> Decomposition:
    return dec if dec is not None else decompose(semigroup)


def _lambda_scan(dec: Decomposition, strict: bool) -> tuple[bool, dict | None]:
    frame = dec.frame
    for x in dec.module_generators():
        if any(a > p if strict else a >= p
               for a, p in zip(frame.numerators(x), frame.denominators)):
            return False, {"element": x, "lambda": frame.coordinates(x)}
    return True, None


def is_seminormal(semigroup: AffineSemigroup,
                  dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Seminormality: every module generator has frame coordinates <= 1."""
    return _lambda_scan(_dec(semigroup, dec), strict=True)


def is_normal(semigroup: AffineSemigroup,
              dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Normality: every nonzero module generator has frame coordinates < 1."""
    return _lambda_scan(_dec(semigroup, dec), strict=False)


def _summands_by_shift(dec: Decomposition):
    return sorted(dec.summands, key=lambda s: vkey(s.shift))


def is_cohen_macaulay(semigroup: AffineSemigroup,
                      dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Cohen-Macaulay: every summand ideal is the unit ideal."""
    dec = _dec(semigroup, dec)
    for s in _summands_by_shift(dec):
        if not s.ideal.is_unit:
            return False, {"coset": s.coset, "shift": s.shift, "ideal": s.ideal}
    return True, None


def is_buchsbaum(semigroup: AffineSemigroup,
                 dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    dec = _dec(semigroup, dec)
    shifted = _summands_by_shift(dec)
    for s in shifted:
        if not s.ideal.is_unit and not s.ideal.is_maximal:
            return False, {"kind": "ideal", "coset": s.coset,
                           "shift": s.shift, "ideal": s.ideal}
    tops = [s.shift for s in shifted if s.ideal.is_maximal]
    top_set = set(tops)
    frame_set = set(dec.frame.elements)
    extras = sorted((g for g in semigroup.generators if g not in frame_set),
                    key=vkey)
    for h in tops:
        for c in extras:
            total = tuple(a + b for a, b in zip(h, c))
            if total in top_set:
                return False, {"kind": "sum", "h": h, "c": c, "sum": total}
    return True, None


def is_gorenstein(semigroup: AffineSemigroup,
                  dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    dec = _dec(semigroup, dec)
    for s in _summands_by_shift(dec):
        if not s.ideal.is_unit:
            return False, {"kind": "ideal", "coset": s.coset,
                           "shift": s.shift, "ideal": s.ideal}
    # all ideals unit, so the shifts are exactly the module generators
    shifts = sorted((s.shift for s in dec.summands), key=vkey)
    top_sum = max(sum(h) for h in shifts)
    tied = [h for h in shifts if sum(h) == top_sum]
    if len(tied) > 1:
        return False, {"kind": "tie", "elements": tuple(tied)}
    top = tied[0]
    remaining = set(shifts)
    while remaining:
        h = min(remaining, key=vkey)
        partner = tuple(a - b for a, b in zip(top, h))
        if partner not in remaining:
            return False, {"kind": "unpaired", "element": h, "partner": partner}
        # set semantics: one removal when h is its own partner
        remaining.discard(h)
        remaining.discard(partner)
    return True, None


def full_report(semigroup: AffineSemigroup,
                dec: Decomposition | None = None) -> PropertyReport:
    """Run all five tests over one shared decomposition."""
    dec = _dec(semigroup, dec)
    sn, sn_w = is_seminormal(semigroup, dec)
    nr, nr_w = is_normal(semigroup, dec)
    cm, cm_w = is_cohen_macaulay(semigroup, dec)
    bb, bb_w = is_buchsbaum(semigroup, dec)
    go, go_w = is_gorenstein(semigroup, dec)
    if (nr and not (sn and cm)) or (go and not cm) or (cm and not bb):
        raise InternalError("normal => seminormal and Cohen-Macaulay, "
                            "Gorenstein => Cohen-Macaulay => Buchsbaum fails")
    return PropertyReport(
        seminormal=sn, normal=nr, cohen_macaulay=cm, buchsbaum=bb,
        gorenstein=go,
        witnesses={"seminormal": sn_w, "normal": nr_w,
                   "cohen_macaulay": cm_w, "buchsbaum": bb_w,
                   "gorenstein": go_w})
