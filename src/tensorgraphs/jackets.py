"""Jackets, Gurau degree, melonicity, and large-N amplitude exponents.

A *jacket* of a closed graph on ``D+1`` colors is the ribbon graph with the
same vertices and edges but only the faces (2-bubbles) whose color pair is
consecutive in a fixed cyclic ordering of the colors.  Orderings that are
rotations or reversals of each other give the same jacket, so there are
``D!/2`` of them.  Each jacket is an orientable surface; the *degree* of the
graph is the sum of the jacket genera, a non-negative integer that plays the
role the genus plays for matrix models: it governs the ``1/N`` expansion of
rank-D tensor models through the amplitude exponent ``D - 2 w / (D-1)!``,
and the leading graphs are exactly those of degree 0.  From 4 colors on
(D >= 3) degree 0 means melonic.  On 3 colors it means planar, which is
weaker from 4 white vertices on: the 3-colored cube has degree 0 and is no
melon.  :func:`is_melonic` answers "degree 0" on any number of colors.

Jacket genera and face totals come from counts of the bubble walks the
graph keeps (:func:`~tensorgraphs.graphs.bubbles` of each color pair and
of all colors), so no ``Bubble`` is built until a jacket's faces are read.

For a connected graph on ``d`` colors with ``2p`` vertices the total number
of 2-bubbles satisfies

    F  =  C(d-1, 2) * p  +  (d - 1)  -  2 w / (d-2)!

which this module uses as an independent cross-check on the jacket count
(``face_count_degree``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

from .graphs import (
    Bubble,
    ColoredGraph,
    GraphError,
    _euler_counts,
    _subset_orbits,
    bubbles,
    remove_color,
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


@dataclass(frozen=True, eq=False)
class Jacket:
    """One jacket: its canonical color cycle, face count and genus.

    The jacket shares all vertices and edges with ``graph``; only the face
    set depends on the cycle.  ``genus`` is summed over connected
    components.  ``faces`` is built from the graph's bubbles when read;
    jackets are equal when their cycles, faces and genera are.
    """

    cycle: tuple[int, ...]
    face_count: int
    genus: int
    graph: ColoredGraph = field(repr=False)

    @property
    def faces(self) -> tuple[Bubble, ...]:
        """The 2-bubbles of the cycle's adjacent color pairs, pair by pair."""
        pairs = _adjacent_pairs(self.cycle)
        return tuple(b for pair in pairs for b in bubbles(self.graph, pair))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jacket):
            return NotImplemented
        key = (self.cycle, self.face_count, self.genus)
        return key == (other.cycle, other.face_count, other.genus) and (
            self.graph is other.graph or self.faces == other.faces
        )

    def __hash__(self) -> int:
        return hash((self.cycle, self.face_count, self.genus))


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

    # Per component, V - E, then the faces of each color pair; a vertex
    # without edges is a component with chi = 1.
    if sum(map(len, _subset_orbits(g, colors))) < len(g):
        raise GraphError("odd jacket Euler characteristic")
    v_minus_e, faces_of = _euler_counts(g, combinations(colors, 2))

    jackets = []
    for cycle in cycles:
        per_pair = [faces_of[pair] for pair in _adjacent_pairs(cycle)]
        total_genus = 0
        for chi in map(sum, zip(v_minus_e, *per_pair)):
            if chi % 2:
                raise GraphError("odd jacket Euler characteristic")
            total_genus += (2 - chi) // 2
        jackets.append(Jacket(cycle, sum(map(sum, per_pair)), total_genus, g))
    return jackets, len(v_minus_e)


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
    faces = sum(len(_subset_orbits(g, pair)) for pair in combinations(g.colors, 2))
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
    """True iff the degree is 0.

    From 4 colors on that is melonicity.  On 3 colors it is planarity, which
    is weaker from 4 white vertices on: the 8-vertex 3-colored cube has
    degree 0, and no melon.
    """
    return gurau_degree(g).degree == 0


def amplitude_exponent(d: int, omega: int) -> Fraction:
    """Exact large-N exponent ``D - 2*omega / (D-1)!`` for rank D >= 2."""
    if d < 2:
        raise GraphError("amplitude exponent defined for rank D >= 2")
    return Fraction(d) - Fraction(2 * omega, factorial(d - 1))


def degree_lower_bound(g: ColoredGraph) -> int:
    """Lower bound on the degree of a closed 4-colored graph.

    Deleting the largest color leaves 3-colored bubbles, each a ribbon
    graph; the degree is at least 3 times their total genus.
    """
    if g.is_open:
        raise GraphError("degree bound requires a closed graph")
    if len(g.colors) != 4:
        raise GraphError("degree bound requires exactly 4 colors")
    return 3 * boundary_components(ribbon_from_colored(remove_color(g, max(g.colors)))).genus


def boundary_degree(g: ColoredGraph) -> int:
    """Three times the total ribbon genus of the boundary graph.

    This is the computable right-hand side of the degree bound for open
    4-colored graphs; the boundary components are closed 3-colored graphs.
    """
    from .surgery import boundary_graph

    if g.is_closed:
        raise GraphError("boundary degree requires an open graph")
    return 3 * boundary_components(ribbon_from_colored(boundary_graph(g))).genus
