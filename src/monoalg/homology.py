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
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Decomposition, MonomialIdeal, decompose
from .errors import (
    InternalError,
    InvalidCharacteristicError,
    NotHomogeneousError,
    NotSimplicialError,
)
from .intlinalg import rank
from .semigroup import AffineSemigroup, Vec, vkey


@dataclass(frozen=True)
class BettiTable:
    """Map from (homological index, total internal degree) to rank > 0."""

    entries: dict[tuple[int, int], int]

    def triples(self) -> list[tuple[int, int, int]]:
        """Sorted (index, degree, rank) triples."""
        return sorted((i, j, r) for (i, j), r in self.entries.items())

    def regularity(self) -> int:
        return max(j - i for (i, j) in self.entries)

    def projective_dimension(self) -> int:
        return max(i for (i, _) in self.entries)


@dataclass(frozen=True)
class RegularityReport:
    regularity: int
    witnesses: tuple[tuple[tuple[int, ...], int, int], ...]
    degree: int
    codim: int
    eg_bound: int
    eg_holds: bool
    depth: int


def check_characteristic(char: int) -> None:
    if char == 0:
        return
    if char < 2:
        raise InvalidCharacteristicError(f"{char} is not 0 or a prime")
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
    support = [k for k in range(ideal.num_vars) if b[k] >= 1]
    faces = []
    for mask in range(1 << len(support)):
        sigma = tuple(support[i] for i in range(len(support)) if mask >> i & 1)
        reduced = tuple(b[k] - (1 if k in sigma else 0)
                        for k in range(ideal.num_vars))
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


def reg_of(table: BettiTable) -> int:
    return table.regularity()


def depth_of(table: BettiTable, num_vars: int) -> int:
    """Depth over the ``num_vars``-variable polynomial ring, from the
    projective dimension."""
    return num_vars - table.projective_dimension()


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
    tables: dict[MonomialIdeal, BettiTable] = {}
    per_summand = []
    for s in dec.summands:
        if s.ideal not in tables:
            tables[s.ideal] = betti_ideal(s.ideal, char)
        table = tables[s.ideal]
        per_summand.append((s, reg_of(table), depth_of(table, d)))

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
