"""Jackets, Gurau degree, melonicity, and large-N amplitude exponents.

A *jacket* of a closed graph on ``D+1`` colors is the ribbon graph with the
same vertices and edges but only the faces (2-bubbles) whose color pair is
consecutive in a fixed cyclic ordering of the colors.  Orderings that are
rotations or reversals of each other give the same jacket, so there are
``D!/2`` of them.  Each jacket is an orientable surface; the *degree* of the
graph is the sum of the jacket genera, a non-negative integer that plays the
role the genus plays for matrix models: it governs the ``1/N`` expansion of
rank-D tensor models through the amplitude exponent ``D - 2 w / (D-1)!``,
and the leading, spherical graphs are exactly those of degree 0 (melons).

For a connected graph on ``d`` colors with ``2p`` vertices the total number
of 2-bubbles satisfies

    F  =  C(d-1, 2) * p  +  (d - 1)  -  2 w / (d-2)!

which this module uses as an independent cross-check on the jacket count
(``face_count_degree``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

from .graphs import (
    Bubble,
    ColoredGraph,
    GraphError,
    _orbits,
    _slot_arrays,
    bubbles,
    connected_components,
)
from .ribbon import boundary_components, ribbon_from_colored

__all__ = [
    "MAX_JACKET_COLORS",
    "Jacket",
    "DegreeReport",
    "canonical_cycle",
    "enumerate_jackets",
    "gurau_degree",
    "is_melonic",
    "amplitude_exponent",
    "degree_lower_bound",
    "boundary_degree",
]

# Most colors enumerate_jackets accepts.  A graph on D+1 colors has D!/2
# jackets: 2520 at 8 colors, about 2e7 at 12.
MAX_JACKET_COLORS = 8


def canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Normal form of a cyclic color order, up to rotation and reversal."""

    def rotate_to_min(c: tuple[int, ...]) -> tuple[int, ...]:
        i = c.index(min(c))
        return c[i:] + c[:i]

    return min(rotate_to_min(cycle), rotate_to_min(tuple(reversed(cycle))))


@dataclass(frozen=True)
class Jacket:
    """One jacket: its canonical color cycle, faces, and genus.

    The jacket shares all vertices and edges with the ambient graph; only
    the face set depends on the cycle.  ``genus`` is summed over connected
    components.
    """

    cycle: tuple[int, ...]
    faces: tuple[Bubble, ...]
    genus: int

    @property
    def face_count(self) -> int:
        return len(self.faces)


def _adjacent_pairs(cycle: tuple[int, ...]) -> list[tuple[int, int]]:
    n = len(cycle)
    return [tuple(sorted((cycle[i], cycle[(i + 1) % n]))) for i in range(n)]


def enumerate_jackets(g: ColoredGraph) -> list[Jacket]:
    """All D!/2 jackets of a closed graph on D+1 >= 3 colors.

    At most :data:`MAX_JACKET_COLORS` colors are accepted.
    """
    return _jackets(g)[0]


def _jackets(g: ColoredGraph) -> tuple[list[Jacket], int]:
    """:func:`enumerate_jackets` and the number of connected components of g."""
    if g.is_open:
        raise GraphError("jackets require a closed graph")
    colors = g.colors
    if len(colors) < 3:
        raise GraphError("jackets require at least 3 colors")
    if len(colors) > MAX_JACKET_COLORS:
        raise GraphError(
            f"jackets: {len(colors)} colors give {factorial(len(colors) - 1) // 2} "
            f"jackets; at most {MAX_JACKET_COLORS} colors are supported"
        )

    cycles = sorted(
        {canonical_cycle((colors[0],) + rest) for rest in permutations(colors[1:])}
    )

    labels, nbrs = _slot_arrays(g, colors)
    comps = _orbits(len(labels), nbrs)
    comp_of = {labels[v]: i for i, comp in enumerate(comps) for v in comp}
    v_minus_e = [len(comp) for comp in comps]
    for e in g.edges.values():
        v_minus_e[comp_of[e.white]] -= 1
    faces_of = {pair: bubbles(g, pair) for pair in combinations(colors, 2)}

    jackets = []
    for cycle in cycles:
        faces = [b for pair in _adjacent_pairs(cycle) for b in faces_of[pair]]
        chis = v_minus_e[:]
        for b in faces:
            chis[comp_of[b.vertices[0]]] += 1
        total_genus = 0
        for chi in chis:
            if chi % 2:
                raise GraphError("odd jacket Euler characteristic")
            total_genus += (2 - chi) // 2
        jackets.append(Jacket(cycle, tuple(faces), total_genus))
    return jackets, len(comps)


@dataclass(frozen=True)
class DegreeReport:
    """Degree data: per-jacket genera plus two independent computations.

    ``degree`` sums the jacket genera; ``face_count_degree`` recovers the
    same number from the total 2-bubble count (valid verbatim for connected
    graphs; for disconnected ones the component count enters the formula).
    """

    jackets: tuple[Jacket, ...]
    degree: int
    face_count_degree: Fraction
    amplitude_exponent: Fraction


def gurau_degree(g: ColoredGraph) -> DegreeReport:
    """Degree of a closed graph, with the face-counting cross-check."""
    found, n_comp = _jackets(g)
    jackets = tuple(found)
    degree = sum(j.genus for j in jackets)

    d = len(g.colors)
    p, rem = divmod(len(g.vertices), 2)
    if rem:
        raise GraphError("odd vertex count in a closed bipartite graph")
    faces = sum(len(bubbles(g, pair)) for pair in combinations(g.colors, 2))
    face_deg = Fraction(factorial(d - 2), 2) * (
        comb(d - 1, 2) * p + (d - 1) * n_comp - faces
    )
    return DegreeReport(
        jackets=jackets,
        degree=degree,
        face_count_degree=face_deg,
        amplitude_exponent=amplitude_exponent(d - 1, degree),
    )


def is_melonic(g: ColoredGraph) -> bool:
    """True iff the degree vanishes (the graph is a melon)."""
    return gurau_degree(g).degree == 0


def amplitude_exponent(d: int, omega: int) -> Fraction:
    """Exact large-N exponent ``D - 2*omega / (D-1)!`` for rank D >= 2."""
    if d < 2:
        raise GraphError("amplitude exponent defined for rank D >= 2")
    return Fraction(d) - Fraction(2 * omega, factorial(d - 1))


def degree_lower_bound(g: ColoredGraph) -> int:
    """Lower bound on the degree of a closed 4-colored graph.

    Deleting the largest color leaves 3-colored bubbles, each a ribbon
    graph; the degree is at least 3 times the sum of their genera.
    """
    if g.is_open:
        raise GraphError("degree bound requires a closed graph")
    if len(g.colors) != 4:
        raise GraphError("degree bound requires exactly 4 colors")
    kept = tuple(c for c in g.colors if c != max(g.colors))
    total = 0
    for b in bubbles(g, kept):
        r = ribbon_from_colored(b.as_graph(g))
        total += boundary_components(r).genus
    return 3 * total


def boundary_degree(g: ColoredGraph) -> int:
    """Three times the total ribbon genus of the boundary graph.

    This is the computable right-hand side of the degree bound for open
    4-colored graphs; the boundary components are closed 3-colored graphs.
    """
    from .surgery import boundary_graph

    if g.is_closed:
        raise GraphError("boundary degree requires an open graph")
    total = 0
    for comp in connected_components(boundary_graph(g)):
        total += boundary_components(ribbon_from_colored(comp)).genus
    return 3 * total
