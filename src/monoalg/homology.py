"""Combinatorial Betti numbers of monomial ideals, and the regularity report.

Multigraded Betti numbers are read off from reduced simplicial homology of
upper Koszul complexes: at a multidegree ``b`` the faces are the variable
subsets that can be divided out of ``x^b`` without leaving the ideal, and the
rank of the reduced homology in dimension ``i - 1`` is the Betti number in
homological index ``i``.  Only multidegrees in the lcm lattice of the
generators can carry homology, so the computation is finite.

Homology ranks are boundary-matrix ranks from the integer elimination kernel
:func:`.intlinalg.rank`: fraction-free over Z for characteristic zero, mod p
otherwise.

The alternating sum of a Betti table, an Euler characteristic and so the same
in every characteristic, is the numerator of the ideal's Hilbert series.
Each :class:`.Decomposition` memoizes its summand ideals' tables per
characteristic outside its fields (a copy by ``_replace`` starts empty), so
:func:`analyze` and :func:`hilbert_verify` share one computation, and
:func:`hilbert_verify` checks the tables of every characteristic computed
for the decomposition, char 0 if none, against an enumeration of the
semigroup.
"""

from __future__ import annotations

from functools import cache, reduce
from math import comb
from operator import mul, or_
from typing import NamedTuple

from .decomposition import Decomposition, MonomialIdeal, Summand, decompose
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


@cache  # invalid values raise, so only valid ones are stored
def check_characteristic(char: int) -> None:
    if char == 0:
        return
    if char < 2:
        raise InvalidCharacteristicError(f"{char} is not 0 or a prime")
    if char >= 2**31:  # keeps trial division under 46,341 steps
        raise InvalidCharacteristicError(
            f"{char} is too large: characteristics must be below 2**31")
    d = 2
    while d * d <= char:
        if char % d == 0:
            raise InvalidCharacteristicError(f"{char} is composite")
        d += 1


# ---------------------------------------------------------------------------
# upper Koszul complexes
# ---------------------------------------------------------------------------

def _lcm_lattice(ideal: MonomialIdeal) -> list[Vec]:
    """All componentwise maxima of nonempty generator subsets."""
    gens = list(ideal.gens)
    lattice = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                j = tuple(max(x, y) for x, y in zip(a, g))
                if j not in lattice:
                    new.add(j)
        lattice |= new
        frontier = new
    return sorted(lattice, key=vkey)


def _reduced_homology_dims(faces: list[tuple[int, ...]], char: int) -> dict[int, int]:
    """Reduced homology ranks of a simplicial complex containing the empty
    face, keyed by dimension (-1 for the empty face)."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for fs in by_dim.values():
        fs.sort()
    top = max(by_dim)
    index = {dim: {f: i for i, f in enumerate(fs)}
             for dim, fs in by_dim.items()}

    def boundary_rank(dim: int) -> int:
        # rank of the map from dim-faces to (dim-1)-faces
        if dim not in by_dim or (dim - 1) not in by_dim:
            return 0
        cols = by_dim[dim]
        rows = by_dim[dim - 1]
        mat = [[0] * len(cols) for _ in rows]
        for j, face in enumerate(cols):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1:]
                mat[index[dim - 1][sub]][j] = -1 if drop % 2 else 1
        return rank(mat, char)

    ranks = {dim: boundary_rank(dim) for dim in range(0, top + 2)}
    dims = {}
    for dim in range(-1, top + 1):
        h = len(by_dim.get(dim, ())) - ranks.get(dim, 0) - ranks.get(dim + 1, 0)
        if h < 0:
            raise InternalError(f"homology rank {h} in dimension {dim}")
        if h > 0:
            dims[dim] = h
    return dims


def _upper_koszul_faces(ideal: MonomialIdeal, b: Vec) -> list[tuple[int, ...]]:
    n = range(ideal.num_vars)
    support = [k for k in n if b[k] >= 1]
    faces = []
    for mask in range(1 << len(support)):
        sigma = tuple(support[i] for i in range(len(support)) if mask >> i & 1)
        reduced = tuple(b[k] - (1 if k in sigma else 0) for k in n)
        if ideal.contains(reduced):
            faces.append(sigma)
    return faces


def betti_multigraded(ideal: MonomialIdeal, char: int = 0) -> dict[tuple[int, Vec], int]:
    """Multigraded Betti numbers, keyed by (homological index, multidegree)."""
    check_characteristic(char)
    if ideal.is_unit:
        return {(0, (0,) * ideal.num_vars): 1}
    out: dict[tuple[int, Vec], int] = {}
    for b in _lcm_lattice(ideal):
        faces = _upper_koszul_faces(ideal, b)
        if () not in faces:  # x^b itself lies in the ideal
            raise InternalError(f"lcm {b} is outside the ideal")
        for dim, h in _reduced_homology_dims(faces, char).items():
            i = dim + 1
            if i >= ideal.num_vars:
                raise InternalError(f"Betti number in index {i} > pd bound")
            out[(i, b)] = h
    return out


def betti_ideal(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti table aggregated by total degree."""
    entries: dict[tuple[int, int], int] = {}
    for (i, b), rank in betti_multigraded(ideal, char).items():
        key = (i, sum(b))
        entries[key] = entries.get(key, 0) + rank
    return BettiTable(entries)


def hilbert_function(betti: dict[tuple[int, int], int], d: int,
                     degree: int) -> int:
    """Dimension in degree ``degree`` of a graded module over K[x_1..x_d]
    with graded Betti numbers ``betti``: the series numerator is the
    alternating sum ``sum (-1)^i beta_{i,j} t^j``, over ``(1 - t)^d``."""
    return sum((-r if i % 2 else r) * comb(degree - j + d - 1, d - 1)
               for (i, j), r in betti.items() if j <= degree)


def _summand_tables(dec: Decomposition,
                    char: int) -> list[tuple[Summand, BettiTable]]:
    """Each summand with its ideal's Betti table, one per distinct ideal,
    memoized in ``dec.tables`` so that every caller shares one computation
    per characteristic."""
    tables = dec.tables.get(char)
    if tables is None:
        tables = dec.tables.setdefault(char, {
            ideal: betti_ideal(ideal, char)
            for ideal in dict.fromkeys(s.ideal for s in dec.summands)})
    return [(s, tables[s.ideal]) for s in dec.summands]


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
    differs from the degree ``functional`` gives its shift.  Otherwise
    counts semigroup elements of each degree up to ``t_max`` by direct
    enumeration (:func:`_degree_counts`, one int bitset per degree layer
    where the box is small enough) and compares with the
    :func:`hilbert_function` of the direct sum, read off the summand
    ideals' Betti tables, each shifted by its ``shift_degree``.  The tables
    checked are those of every characteristic computed for ``dec``, char 0
    if none.  The enumeration shares no code path with the decomposition or
    the homology.  A negative ``t_max`` raises :class:`ValueError`.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    if functional is None:
        raise NotHomogeneousError("the semigroup admits no degree functional")
    if any(sum(map(mul, functional.numerators, g)) != functional.denominator
           for g in semigroup.generators) or any(
            s.shift_degree != functional.degree(s.shift) for s in dec.summands):
        return False
    left = _degree_counts(semigroup.generators, t_max, functional)
    for char in list(dec.tables) or [0]:
        betti: dict[tuple[int, int], int] = {}  # of the direct sum
        for s, table in _summand_tables(dec, char):
            for (i, j), r in table.entries.items():
                key = (i, j + s.shift_degree)
                betti[key] = betti.get(key, 0) + r
        if any(left[t] != hilbert_function(betti, dec.frame.dim, t)
               for t in range(t_max + 1)):
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
    per_summand = [(s, table.regularity(), d - table.projective_dimension())
                   for s, table in _summand_tables(dec, char)]

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
