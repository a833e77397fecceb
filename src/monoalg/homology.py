"""Combinatorial Betti numbers of monomial ideals, and the regularity report.

Multigraded Betti numbers are read off from reduced simplicial homology of
upper Koszul complexes: at a multidegree ``b`` the faces are the variable
subsets that can be divided out of ``x^b`` without leaving the ideal, and the
rank of the reduced homology in dimension ``i - 1`` is the Betti number in
homological index ``i``.  Only multidegrees in the lcm lattice of the
generators, built one generator at a time, can carry homology, so the
computation is finite; a complex with one maximal facet needs no faces.

A set of variables is an int bitmask throughout, bit ``k`` for ``x_{k+1}``:
the faces are found by walking the submasks of ``b``'s support, a face's
dimension is its bit count less one, and its boundary drops its set bits
lowest first with alternating sign.  Homology ranks are boundary-matrix
ranks from the integer elimination kernel :func:`.intlinalg.rank`:
fraction-free over Z for characteristic zero, mod p otherwise.

The alternating sum of a Betti table, an Euler characteristic and so the same
in every characteristic, is the numerator of the ideal's Hilbert series.
Each :class:`.Decomposition` memoizes its summand ideals' tables per
characteristic outside its fields (a copy by ``_replace`` starts empty), so
:func:`analyze` and :func:`hilbert_verify` share one computation, and
:func:`hilbert_verify` checks the tables of every characteristic computed
for the decomposition, char 0 if none, against an enumeration of the
semigroup, comparing Hilbert-series numerators.

The upper Koszul complex at ``b`` depends only on the generators dividing
``x^b``, so the summand ideals of one decomposition share most of their
complexes.  Their homology is memoized by the complex: one memo per
decomposition and characteristic, shared by its distinct ideals while their
tables are filled and then dropped, so it is not kept on the record.
:func:`betti_ideal` and :func:`betti_multigraded` start a fresh memo on
each call, and nothing is cached at module level.  They and :func:`analyze`
check the characteristic once per call; the helpers under them do not.
"""

from __future__ import annotations

from functools import reduce
from operator import le, lt, mul, or_
from typing import NamedTuple

from .decomposition import Decomposition, MonomialIdeal, decompose
from .errors import (
    InternalError,
    InvalidCharacteristicError,
    NotHomogeneousError,
    NotSimplicialError,
)
from .intlinalg import rank
from .semigroup import AffineSemigroup, DegreeFunctional, Vec, vkey


class BettiTable(NamedTuple):
    """Map from (homological index, total internal degree) to rank > 0."""

    entries: dict[tuple[int, int], int]

    def triples(self) -> list[tuple[int, int, int]]:
        """Sorted (index, degree, rank) triples."""
        return sorted((i, j, r) for (i, j), r in self.entries.items())

    def regularity(self) -> int:
        return max(j - i for (i, j) in self.entries)

    def projective_dimension(self) -> int:
        return max(i for (i, _) in self.entries)


class RegularityReport(NamedTuple):
    regularity: int
    witnesses: tuple[tuple[tuple[int, ...], int, int], ...]
    degree: int
    codim: int
    eg_bound: int
    eg_holds: bool
    depth: int


def check_characteristic(char: int) -> None:
    if type(char) is not int:  # not a bool, nor a float equal to an int
        raise InvalidCharacteristicError(f"{char!r} is not an integer")
    if char == 0:
        return
    if char < 2:
        raise InvalidCharacteristicError(f"{char} is not 0 or a prime")
    if char >= 2**31:
        raise InvalidCharacteristicError(
            f"{char} is too large: characteristics must be below 2**31")
    # Miller-Rabin to the bases 2, 7 and 61: no composite below
    # 4,759,123,141 passes all three (Jaeschke, Math. Comp. 61, 1993)
    n = char - 1
    s = (n & -n).bit_length() - 1  # n = d * 2**s with d odd
    for a in (2, 7, 61):
        x = pow(a, n >> s, char)
        if a % char == 0 or x == 1:
            continue
        for _ in range(s):  # look for -1 among a^d, a^2d, ..., a^(2^(s-1) d)
            if x == n:
                break
            x = x * x % char
        else:
            raise InvalidCharacteristicError(f"{char} is composite")


# ---------------------------------------------------------------------------
# upper Koszul complexes
# ---------------------------------------------------------------------------

def _lcm_lattice(ideal: MonomialIdeal) -> list[Vec]:
    """All componentwise maxima of nonempty generator subsets, built one
    generator at a time: L <- L + {g} + {a v g : a in L}."""
    lattice: set[Vec] = set()
    for g in ideal.gens:
        lattice |= {tuple(map(max, a, g)) for a in lattice}
        lattice.add(g)
    return sorted(lattice, key=vkey)


def _reduced_homology_dims(faces: list[int], char: int) -> dict[int, int]:
    """Reduced homology ranks of a simplicial complex containing the empty
    face, its faces given as vertex bitmasks, keyed by dimension (-1 for
    the empty face)."""
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    ranks = {}  # rank of the boundary map out of each dimension's faces
    for dim, cols in by_dim.items():
        if rows := by_dim.get(dim - 1):
            row = {f: i for i, f in enumerate(rows)}
            mat = [[0] * len(cols) for _ in rows]
            for j, face in enumerate(cols):
                rest, sign = face, 1
                while rest:  # drop the set bits lowest first
                    low = rest & -rest
                    mat[row[face ^ low]][j] = sign
                    rest ^= low
                    sign = -sign
            ranks[dim] = rank(mat, char)
    dims = {}
    for dim in range(-1, max(by_dim) + 1):
        h = len(by_dim.get(dim, ())) - ranks.get(dim, 0) - ranks.get(dim + 1, 0)
        if h < 0:
            raise InternalError(f"homology rank {h} in dimension {dim}")
        if h > 0:
            dims[dim] = h
    return dims


def _upper_koszul_faces(ideal: MonomialIdeal, b: Vec) -> list[int]:
    """The faces of K^b as vertex bitmasks: each subset s of b's support
    with x^(b - s) in the ideal, walked as the submasks of the support."""
    support = sum(1 << k for k, e in enumerate(b) if e)
    faces = []
    s = support
    while True:
        if ideal.contains(tuple(e - (s >> k & 1) for k, e in enumerate(b))):
            faces.append(s)
        if not s:
            return faces
        s = (s - 1) & support


# reduced homology ranks by dimension, keyed by the facet masks of an upper
# Koszul complex; one memo holds one characteristic
_Memo = dict[frozenset[int], dict[int, int]]


def _multigraded(ideal: MonomialIdeal, char: int,
                 memo: _Memo) -> dict[tuple[int, Vec], int]:
    """Multigraded Betti numbers, with the reduced homology of each upper
    Koszul complex looked up in ``memo`` (characteristic ``char`` only).

    At ``b`` a generator ``g <= b`` has the facet mask of the ``k`` with
    ``g_k < b_k``; the complex is the union of the power sets of these
    masks, so their set is its key.  It is empty exactly when no generator
    divides ``x^b``.  One mask containing all the others makes it a
    simplex, acyclic unless it is the empty face alone.  ``char`` is
    checked by the caller."""
    n = ideal.num_vars
    if ideal.is_unit:
        return {(0, (0,) * n): 1}
    bits = [1 << k for k in range(n)]
    out: dict[tuple[int, Vec], int] = {}
    for b in _lcm_lattice(ideal):
        key = frozenset(sum(map(mul, map(lt, g, b), bits))
                        for g in ideal.gens if all(map(le, g, b)))
        if not key:
            raise InternalError(f"lcm {b} is outside the ideal")
        dims = memo.get(key)
        if dims is None:
            top = reduce(or_, key)
            if top in key:  # a simplex: acyclic unless it is {empty face}
                dims = memo[key] = {} if top else {-1: 1}
            else:
                dims = memo[key] = _reduced_homology_dims(
                    _upper_koszul_faces(ideal, b), char)
        for dim, h in dims.items():
            i = dim + 1
            if i >= n:
                raise InternalError(f"Betti number in index {i} > pd bound")
            out[(i, b)] = h
    return out


def betti_multigraded(ideal: MonomialIdeal, char: int = 0) -> dict[tuple[int, Vec], int]:
    """Multigraded Betti numbers, keyed by (homological index, multidegree)."""
    check_characteristic(char)
    return _multigraded(ideal, char, {})


def _betti_table(ideal: MonomialIdeal, char: int, memo: _Memo) -> BettiTable:
    """Betti table aggregated by total degree, sharing ``memo`` with the
    other tables of characteristic ``char`` that the caller computes."""
    entries: dict[tuple[int, int], int] = {}
    for (i, b), rank in _multigraded(ideal, char, memo).items():
        key = (i, sum(b))
        entries[key] = entries.get(key, 0) + rank
    return BettiTable(entries)


def betti_ideal(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti table aggregated by total degree."""
    check_characteristic(char)
    return _betti_table(ideal, char, {})


def _summand_tables(dec: Decomposition,
                    char: int) -> dict[MonomialIdeal, BettiTable]:
    """The Betti table of each distinct summand ideal, in order of first
    appearance, memoized in ``dec.tables`` so that every caller shares one
    computation per characteristic.  The distinct ideals share one homology
    memo, which is dropped once their tables are stored."""
    tables = dec.tables.get(char)
    if tables is None:
        memo: _Memo = {}
        tables = dec.tables.setdefault(char, {
            ideal: _betti_table(ideal, char, memo)
            for ideal in dict.fromkeys(s.ideal for s in dec.summands)})
    return tables


# one dense layer holds at most this many bits (512 KiB); larger boxes keep
# their layers as sets
_BITSET_BITS = 1 << 22


def _degree_counts(generators: tuple[Vec, ...], t_max: int,
                   functional: DegreeFunctional) -> list[int]:
    """Number of distinct sums of exactly t generators, for t = 0..t_max.

    Each vector is packed into one int in mixed radix, coordinate k with
    radix ``t_max * (largest k-th entry) + 1``.  Entries are nonnegative and
    no coordinate of a sum of at most ``t_max`` generators reaches its radix,
    so the packing is injective on those sums and adds like the vectors do.

    ``functional`` must give every generator degree 1 (the caller checks
    this), so every sum of exactly t generators has degree t.  Its
    coordinate k, for one k with a nonzero numerator, is then fixed by t and
    the other coordinates, so k is left out of the packing: the k with the
    largest entries, which leaves the smallest box.  Where that box has at
    most ``_BITSET_BITS`` points, each layer is one int bitset with a bit
    per packed sum, ``layer_t = OR_g (layer_{t-1} << g)``, and its count is
    the number of set bits.  Larger boxes (high dimension, large ``t_max``)
    keep each layer as a set of packed ints.
    """
    radix = [t_max * max(col) + 1 for col in zip(*generators)]
    kept = list(range(len(radix)))
    kept.remove(max((k for k, c in enumerate(functional.numerators) if c),
                    key=radix.__getitem__))
    scale = {}
    box = 1
    for k in kept:
        scale[k] = box
        box *= radix[k]
    packed = {sum(g[k] * s for k, s in scale.items()) for g in generators}
    counts = [1]
    if box <= _BITSET_BITS:
        layer = 1
        for _ in range(t_max):
            layer = reduce(or_, [layer << g for g in packed])
            counts.append(layer.bit_count())
    else:
        layer = {0}
        for _ in range(t_max):
            layer = {x + g for x in layer for g in packed}
            counts.append(len(layer))
    return counts


def hilbert_verify(semigroup: AffineSemigroup, dec: Decomposition,
                   functional: DegreeFunctional | None, t_max: int) -> bool:
    """Independent soundness check of the decomposition and its homology.

    Returns False, before any enumeration, when ``functional`` does not
    give every generator degree 1, since only then are the sums of exactly t
    generators the degree-t elements, or when a summand's ``shift_degree``
    is not an ``int``, is negative or is not the degree ``functional`` gives
    its shift.  Otherwise compares, up to ``t^t_max``, the counts of
    semigroup elements by degree (:func:`_degree_counts`, a direct
    enumeration) times ``(1 - t)^d``, ``d`` the frame's dimension, with the
    alternating sum of the summand ideals' Betti tables, each shifted by its
    ``shift_degree``: the Hilbert-series numerator of the direct sum.
    ``(1 - t)^d`` is a unit on truncated series, so they agree exactly when
    the Hilbert functions do up to ``t_max``.  The tables checked are those
    of every characteristic computed for ``dec``, char 0 if none.  The
    enumeration shares no code path with the decomposition or the homology.
    A ``t_max`` that is not a nonnegative ``int`` raises :class:`ValueError`.
    """
    if not isinstance(t_max, int) or t_max < 0:
        raise ValueError(f"t_max must be a nonnegative int, got {t_max!r}")
    if functional is None:
        raise NotHomogeneousError("the semigroup admits no degree functional")
    numerators, denominator = functional
    if any(sum(map(mul, numerators, g)) != denominator
           for g in semigroup.generators) or any(
            not isinstance(s.shift_degree, int) or s.shift_degree < 0
            or divmod(sum(map(mul, numerators, s.shift)), denominator)
            != (s.shift_degree, 0) for s in dec.summands):
        return False
    h = _degree_counts(semigroup.generators, t_max, functional)
    for _ in range(dec.frame.dim):
        h = h[:1] + [b - a for a, b in zip(h, h[1:])]
    for char in list(dec.tables) or [0]:
        numerator = [0] * (t_max + 1)
        tables = _summand_tables(dec, char)
        for s in dec.summands:
            for (i, j), r in tables[s.ideal].entries.items():
                if (k := j + s.shift_degree) <= t_max:
                    numerator[k] += -r if i % 2 else r
        if numerator != h:
            return False
    return True


# ---------------------------------------------------------------------------
# full regularity report
# ---------------------------------------------------------------------------

def analyze(semigroup: AffineSemigroup, char: int = 0,
            dec: Decomposition | None = None) -> RegularityReport:
    """Regularity, degree, codimension, depth, and the degree bound check.

    Requires a simplicial, homogeneous semigroup.  Every generator then has
    degree one, so distinct generators are automatically minimal (none is a
    sum of others) and the frame elements all have degree one.
    """
    check_characteristic(char)
    if not semigroup.is_simplicial():
        raise NotSimplicialError("regularity needs a simplicial cone")
    if not semigroup.is_homogeneous:
        raise NotHomogeneousError("regularity needs a homogeneous semigroup")
    if dec is None:
        dec = decompose(semigroup)

    d = dec.frame.dim
    numbers = {ideal: (table.regularity(), d - table.projective_dimension())
               for ideal, table in _summand_tables(dec, char).items()}
    per_summand = [(s, *numbers[s.ideal]) for s in dec.summands]

    regularity = max(reg + s.shift_degree for s, reg, _ in per_summand)
    witnesses = tuple((s.coset, reg, s.shift_degree)
                      for s, reg, _ in per_summand
                      if reg + s.shift_degree == regularity)
    depth = min(dep for _, _, dep in per_summand)
    degree = dec.group_order
    codim = len(semigroup.generators) - d
    eg_bound = degree - codim
    return RegularityReport(
        regularity=regularity,
        witnesses=witnesses,
        degree=degree,
        codim=codim,
        eg_bound=eg_bound,
        eg_holds=regularity <= eg_bound,
        depth=depth,
    )
