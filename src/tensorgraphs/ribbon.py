"""Ribbon (fat) graphs: cyclic half-edge orders, boundary components, genus.

A ribbon structure is a graph together with a cyclic ordering of the
half-edges at each vertex.  Thickening vertices to disks and edges to bands
produces an oriented surface with boundary; the number ``bc`` of boundary
circles is the number of orbits of the face permutation

    h  |->  cyclic successor of j(h)

where ``j`` is the fixed-point-free involution pairing half-edges into
edges.  The closed surface obtained by capping the boundary circles has

    chi = V - E + bc,        genus = (2 - chi) / 2   (per component).

Every closed 3-colored graph is canonically a ribbon graph: order the three
half-edges by ascending color at white vertices and descending color at
black vertices (:func:`ribbon_from_colored`).  Its faces are exactly the
bicolored cycles of the graph (Gurau, arXiv:1006.0714), so
:func:`boundary_components` counts them as the graph's 2-bubbles and
traces no face; the half-edge tables of such a structure are built only
when something reads them.

Abstract ribbon graphs (not arising from colorings) are read from a small
file stanza::

    rv <vertex> <h1> <h2> ... <hk>    # half-edges in cyclic order
    rj <h> <h'>                       # involution pair
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import ColoredGraph, GraphError, _euler_counts, _orbits, _require_regular
from .homology import euler_characteristic

__all__ = [
    "RibbonStructure",
    "BoundaryReport",
    "ribbon_from_colored",
    "parse_ribbon",
    "serialize_ribbon",
    "boundary_components",
    "genus",
    "euler_agreement",
]


class RibbonStructure:
    """Half-edges grouped into cyclically ordered vertices plus an involution.

    A structure made by :func:`ribbon_from_colored` keeps its graph and
    builds the half-edge tables on first read.
    """

    __slots__ = ("_orders", "_pair", "_vertex_of", "_succ", "_graph")

    def __init__(
        self,
        orders: Mapping[str, tuple[str, ...]] | Iterable[tuple[str, tuple[str, ...]]],
        pairing: Mapping[str, str] | Iterable[tuple[str, str]],
    ) -> None:
        self._graph: ColoredGraph | None = None
        self._fill(orders, pairing)

    def _fill(self, orders, pairing) -> None:
        """Check and store the half-edge tables."""
        items = orders.items() if isinstance(orders, Mapping) else orders
        self._orders: dict[str, tuple[str, ...]] = {}
        self._vertex_of: dict[str, str] = {}
        self._succ: dict[str, str] = {}
        for v, cycle in items:
            cycle = tuple(cycle)
            if v in self._orders:
                raise GraphError(f"duplicate ribbon vertex {v!r}")
            if len(cycle) < 2:
                raise GraphError(f"ribbon vertex {v!r} has valence < 2")
            for h in cycle:
                if h in self._vertex_of:
                    raise GraphError(f"half-edge {h!r} listed twice")
                self._vertex_of[h] = v
            for i, h in enumerate(cycle):
                self._succ[h] = cycle[(i + 1) % len(cycle)]
            self._orders[v] = cycle

        pair_items = pairing.items() if isinstance(pairing, Mapping) else pairing
        self._pair: dict[str, str] = {}
        for h, k in pair_items:
            if h == k:
                raise GraphError(f"involution fixes half-edge {h!r}")
            for x in (h, k):
                if x not in self._vertex_of:
                    raise GraphError(f"involution names unknown half-edge {x!r}")
                if x in self._pair:
                    raise GraphError(f"half-edge {x!r} paired twice")
            self._pair[h] = k
            self._pair[k] = h
        unmatched = set(self._vertex_of) - set(self._pair)
        if unmatched:
            raise GraphError(f"unpaired half-edges: {sorted(unmatched)}")

    def _built(self) -> "RibbonStructure":
        """self, with the tables of a colored source built."""
        if self._orders is None:
            g = self._graph
            self._fill(
                {
                    v: tuple(f"{v}:{c}" for c in (g.colors if p == "w" else g.colors[::-1]))
                    for v, p in sorted(g.vertices.items())
                },
                {f"{e.white}:{e.color}": f"{e.black}:{e.color}" for e in g.edges.values()},
            )
        return self

    @property
    def orders(self) -> dict[str, tuple[str, ...]]:
        return dict(self._built()._orders)

    @property
    def involution(self) -> dict[str, str]:
        return dict(self._built()._pair)

    @property
    def n_vertices(self) -> int:
        return len(self._built()._orders)

    @property
    def n_edges(self) -> int:
        return len(self._built()._pair) // 2

    def vertex_of(self, h: str) -> str:
        return self._built()._vertex_of[h]

    def next_around_vertex(self, h: str) -> str:
        return self._built()._succ[h]

    def partner(self, h: str) -> str:
        return self._built()._pair[h]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RibbonStructure(|V|={self.n_vertices}, |E|={self.n_edges})"


def ribbon_from_colored(g: ColoredGraph) -> RibbonStructure:
    """The canonical ribbon structure of a regular closed 3-colored graph.

    Half-edges are named ``<vertex>:<color>``; white vertices order their
    half-edges by ascending color, black vertices by descending color.  The
    tables are built when first read.  A graph with a vertex missing a
    color has unpaired half-edges and raises here.
    """
    if g.is_open:
        raise GraphError("ribbon structure requires a closed graph")
    if len(g.colors) != 3:
        raise GraphError(f"ribbon structure needs exactly 3 colors, got {g.colors}")
    _require_regular(g, "ribbon structure")
    r = RibbonStructure.__new__(RibbonStructure)
    r._graph, r._orders = g, None
    return r


# -- file stanza ---------------------------------------------------------------


def parse_ribbon(text: str) -> RibbonStructure:
    """Parse the ``rv``/``rj`` ribbon stanza."""
    orders: list[tuple[str, tuple[str, ...]]] = []
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "rv":
            if len(tokens) < 4:
                raise GraphError(f"line {lineno}: rv needs a vertex and >= 2 half-edges")
            orders.append((tokens[1], tuple(tokens[2:])))
        elif tokens[0] == "rj":
            if len(tokens) != 3:
                raise GraphError(f"line {lineno}: expected: rj <h> <h'>")
            pairs.append((tokens[1], tokens[2]))
        else:
            raise GraphError(f"line {lineno}: unknown directive {tokens[0]!r}")
    try:
        return RibbonStructure(orders, pairs)
    except GraphError as exc:
        raise GraphError(f"ribbon stanza: {exc}") from None


def serialize_ribbon(r: RibbonStructure) -> str:
    """Deterministic rendering of the ribbon stanza."""
    lines = [f"rv {v} " + " ".join(cycle) for v, cycle in sorted(r.orders.items())]
    lines += [f"rj {h} {k}" for h, k in sorted(r.involution.items()) if h < k]
    return "\n".join(lines) + "\n"


# -- boundary tracing ----------------------------------------------------------


@dataclass(frozen=True)
class BoundaryReport:
    """Boundary circles and derived surface invariants.

    ``euler`` is chi of the capped surface, V - E + bc (summed over
    components); ``genus`` is the per-component genus, summed.
    """

    bc: int
    euler: int
    genus: int
    n_components: int
    per_component: tuple[tuple[int, int, int], ...]  # (bc, euler, genus) each


def boundary_components(r: RibbonStructure) -> BoundaryReport:
    """Count face-permutation orbits and derive chi and genus.

    Components come in the order of their smallest vertex label.  On the
    ribbon of a colored graph the faces are its bicolored cycles, so each
    component's chi is V - E plus its 2-bubbles, and no face is traced.
    """
    g = r._graph
    if g is None:
        return _traced_boundary(r)
    v_minus_e, faces = _euler_counts(g)
    return _report([(f, x + f) for x, f in zip(v_minus_e, map(sum, zip(*faces.values())))])


def _traced_boundary(r: RibbonStructure) -> BoundaryReport:
    """:func:`boundary_components` by tracing the face permutation.

    Half-edges are numbered vertex by vertex in label order; ``around``
    maps each to its cyclic successor and ``across`` to its partner.  The
    components are the orbits of both maps, and the faces the orbits of
    around after across.
    """
    orders = r._orders
    half = {h: i for i, h in enumerate(h for v in sorted(orders) for h in orders[v])}
    around = [half[r._succ[h]] for h in half]
    across = [half[r._pair[h]] for h in half]
    comps = _orbits(len(half), [around, across])
    comp_of = [0] * len(half)
    for i, comp in enumerate(comps):
        for h in comp:
            comp_of[h] = i
    vertices = [0] * len(comps)
    for cycle in orders.values():
        vertices[comp_of[half[cycle[0]]]] += 1
    bcs = [0] * len(comps)
    for face in _orbits(len(half), [[around[j] for j in across]]):
        bcs[comp_of[face[0]]] += 1
    return _report(
        [(bc, v - len(comp) // 2 + bc) for comp, v, bc in zip(comps, vertices, bcs)]
    )


def _report(counts: list[tuple[int, int]]) -> BoundaryReport:
    """The report of the (bc, chi) of each component, checked."""
    per = []
    for bc, chi in counts:
        if chi % 2:
            raise GraphError("odd Euler characteristic: inconsistent ribbon data")
        g = (2 - chi) // 2
        if g < 0:
            raise GraphError("negative genus: inconsistent ribbon data")
        per.append((bc, chi, g))
    return BoundaryReport(
        bc=sum(p[0] for p in per),
        euler=sum(p[1] for p in per),
        genus=sum(p[2] for p in per),
        n_components=len(per),
        per_component=tuple(per),
    )


def genus(r: RibbonStructure) -> int:
    """Total genus (summed over connected components)."""
    return boundary_components(r).genus


def euler_agreement(g: ColoredGraph) -> bool:
    """Bubble-count chi equals ribbon chi for a closed connected 3-colored graph.

    The ribbon side traces the face permutation on the half-edge tables, not
    the 2-bubble count :func:`boundary_components` uses on a colored source,
    so the two sides are independent computations.
    """
    ribbon_chi = _traced_boundary(ribbon_from_colored(g)._built()).euler
    return euler_characteristic(g) == ribbon_chi
