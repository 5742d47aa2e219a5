"""Jackets, Gurau degree, melonicity, and large-N amplitude exponents.

A *jacket* of a regular closed graph on ``D+1`` colors is the ribbon graph
with the same vertices and edges but only the faces (2-bubbles) whose color
pair is consecutive in a fixed cyclic ordering of the colors.  Orderings
that are rotations or reversals of each other give the same jacket, so
there are ``D!/2`` of them.  Each jacket is a closed orientable surface;
the *degree* of the graph is the sum of the jacket genera, a non-negative
integer that plays the role the genus plays for matrix models: it governs
the ``1/N`` expansion of rank-D tensor models through the amplitude
exponent ``D - 2 w / (D-1)!``, and the leading graphs are exactly those of
degree 0.  From 4 colors on (D >= 3) degree 0 means melonic.  On 3 colors
it means planar, which is weaker from 4 white vertices on: the 3-colored
cube has degree 0 and is no melon.  :func:`is_melonic` answers "degree 0"
on any number of colors.

Jacket genera and face totals come from counts of the bubble walks the
graph keeps (:func:`~tensorgraphs.graphs.bubbles` of each color pair and
of all colors), so no ``Bubble`` is built until a jacket's faces are read.
The canonical cycles and their adjacent color pairs depend on the color
set only; they are generated once per color set, already canonical and
sorted, and cached (``_jacket_table``).  :func:`canonical_cycle` is the
normal form they follow.

For a connected graph on ``d`` colors with ``2p`` vertices the total number
of 2-bubbles satisfies

    F  =  C(d-1, 2) * p  +  (d - 1)  -  2 w / (d-2)!

which ``face_count_degree`` evaluates through ``graphs._degree_excess``;
:func:`~tensorgraphs.homology.homology` reads the same helper to answer a
graph of degree 0 with no elimination.  The formula is not independent of
the jacket genera: both come from the same 2-bubble counts, each
color pair is adjacent in (d-2)! of the (d-1)!/2 jackets, and
V - E = (2 - d) p on a regular graph, so the formula equals the sum of the
genera by algebra.  It checks that counting identity only.  An
independent check of the degree is still to come: the exponents of exact
Gaussian moments (ROADMAP item 17).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import NamedTuple

from .graphs import (
    Bubble,
    ColoredGraph,
    GraphError,
    _degree_excess,
    _require_regular,
    _subset_labels,
    bubbles,
    remove_color,
)
from .ribbon import boundary_components, ribbon_from_colored
from .surgery import boundary_graph

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


class Jacket(NamedTuple):
    """One jacket: its canonical color cycle, face count and genus.

    The jacket shares all vertices and edges with ``graph``; only the face
    set depends on the cycle.  ``genus`` is summed over connected
    components.  ``faces`` is built from the graph's bubbles when read;
    jackets are equal when their cycles, faces and genera are, and
    ``repr`` leaves the graph out.
    """

    cycle: tuple[int, ...]
    face_count: int
    genus: int
    graph: ColoredGraph

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

    def __ne__(self, other: object) -> bool:
        # tuple.__ne__ would compare the graphs too, disagreeing with __eq__
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash((self.cycle, self.face_count, self.genus))

    def __repr__(self) -> str:
        return f"Jacket(cycle={self.cycle!r}, face_count={self.face_count!r}, genus={self.genus!r})"


def _adjacent_pairs(cycle: tuple[int, ...]) -> list[tuple[int, int]]:
    n = len(cycle)
    return [tuple(sorted((cycle[i], cycle[(i + 1) % n]))) for i in range(n)]


@lru_cache(maxsize=8)
def _jacket_table(
    colors: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    """Each jacket's canonical cycle and its adjacent color pairs, for a
    sorted color set, with the cycles in sorted order.

    ``colors[0]`` is the smallest color, so ``(colors[0],) + rest`` is
    canonical exactly when ``rest < rest[::-1]``, and walking the
    permutations of ``colors[1:]`` in order yields the canonical cycles
    sorted.  Each color pair is one tuple shared by all its jackets.
    """
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    table = []
    for rest in permutations(colors[1:]):
        if rest < rest[::-1]:
            cycle = (colors[0],) + rest
            table.append((cycle, tuple(shared.setdefault(p, p) for p in _adjacent_pairs(cycle))))
    return tuple(table)


def enumerate_jackets(g: ColoredGraph) -> list[Jacket]:
    """All D!/2 jackets of a regular closed graph on D+1 >= 3 colors.

    At most :data:`MAX_JACKET_COLORS` colors are accepted.
    """
    return _jackets(g)[0]


def _jackets(g: ColoredGraph) -> tuple[list[Jacket], int, int]:
    """:func:`enumerate_jackets`, the number of connected components of g
    and its number of 2-bubbles over all color pairs."""
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
    _require_regular(g, "jackets")

    # Each jacket of a regular graph is a closed orientable surface whose chi
    # is the graph's V - E, (2 - k) V / 2, plus its faces; its genus sums
    # (2 - chi) / 2 over the components.
    n_comp = len(_subset_labels(g, colors)[1])
    base = (2 - len(colors)) * len(g) // 2
    totals = {pair: len(_subset_labels(g, pair)[1]) for pair in combinations(colors, 2)}
    jackets = []
    for cycle, pairs in _jacket_table(colors):
        faces = sum(totals[pair] for pair in pairs)
        jackets.append(Jacket(cycle, faces, n_comp - (base + faces) // 2, g))
    return jackets, n_comp, sum(totals.values())


class DegreeReport(NamedTuple):
    """Degree data: per-jacket genera, the 2-bubble total and the degree.

    ``degree`` sums the jacket genera; ``faces`` counts the 2-bubbles over
    all color pairs, and ``face_count_degree`` recovers the degree from that
    total by the counting identity of the module docstring (verbatim for
    connected graphs; for disconnected ones the component count enters the
    formula).  Both read the same bubble counts, so they agree by algebra.
    """

    jackets: tuple[Jacket, ...]
    degree: int
    faces: int
    face_count_degree: Fraction
    amplitude_exponent: Fraction


def gurau_degree(g: ColoredGraph) -> DegreeReport:
    """Degree of a regular closed graph, with its face-counting identity."""
    found, n_comp, faces = _jackets(g)
    jackets = tuple(found)
    degree = sum(j.genus for j in jackets)

    d = len(g.colors)
    face_deg = Fraction(factorial(d - 2), 4) * _degree_excess(d, len(g.vertices), n_comp, faces)
    return DegreeReport(
        jackets=jackets,
        degree=degree,
        faces=faces,
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
    """Lower bound on the degree of a regular closed 4-colored graph.

    Deleting the largest color leaves 3-colored bubbles, each a ribbon
    graph; the degree is at least 3 times their total genus.
    """
    if g.is_open:
        raise GraphError("degree bound requires a closed graph")
    if len(g.colors) != 4:
        raise GraphError("degree bound requires exactly 4 colors")
    _require_regular(g, "degree bound")
    return 3 * boundary_components(ribbon_from_colored(remove_color(g, max(g.colors)))).genus


def boundary_degree(g: ColoredGraph) -> int:
    """Three times the total ribbon genus of the boundary graph.

    This is the computable right-hand side of the degree bound for open
    4-colored graphs; the boundary components are closed 3-colored graphs.
    """
    if g.is_closed:
        raise GraphError("boundary degree requires an open graph")
    return 3 * boundary_components(ribbon_from_colored(boundary_graph(g))).genus
