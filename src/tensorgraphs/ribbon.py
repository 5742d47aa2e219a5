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
black vertices (:func:`ribbon_from_colored`).

Abstract ribbon graphs (not arising from colorings) are read from a small
file stanza::

    rv <vertex> <h1> <h2> ... <hk>    # half-edges in cyclic order
    rj <h> <h'>                       # involution pair
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import ColoredGraph, GraphError, _orbits

__all__ = [
    "RibbonStructure",
    "BoundaryReport",
    "CellReport",
    "ribbon_from_colored",
    "parse_ribbon",
    "serialize_ribbon",
    "boundary_components",
    "cell_counts",
    "genus",
    "euler_agreement",
]


class RibbonStructure:
    """Half-edges grouped into cyclically ordered vertices plus an involution."""

    __slots__ = ("_orders", "_pair", "_vertex_of", "_succ")

    def __init__(
        self,
        orders: Mapping[str, tuple[str, ...]] | Iterable[tuple[str, tuple[str, ...]]],
        pairing: Mapping[str, str] | Iterable[tuple[str, str]],
    ) -> None:
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

    @property
    def orders(self) -> dict[str, tuple[str, ...]]:
        return dict(self._orders)

    @property
    def involution(self) -> dict[str, str]:
        return dict(self._pair)

    @property
    def n_vertices(self) -> int:
        return len(self._orders)

    @property
    def n_edges(self) -> int:
        return len(self._pair) // 2

    def vertex_of(self, h: str) -> str:
        return self._vertex_of[h]

    def next_around_vertex(self, h: str) -> str:
        return self._succ[h]

    def partner(self, h: str) -> str:
        return self._pair[h]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RibbonStructure(|V|={self.n_vertices}, |E|={self.n_edges})"


def ribbon_from_colored(g: ColoredGraph) -> RibbonStructure:
    """The canonical ribbon structure of a closed 3-colored graph.

    Half-edges are named ``<vertex>:<color>``; white vertices order their
    half-edges by ascending color, black vertices by descending color.
    """
    if g.is_open:
        raise GraphError("ribbon structure requires a closed graph")
    if len(g.colors) != 3:
        raise GraphError(f"ribbon structure needs exactly 3 colors, got {g.colors}")
    asc = g.colors
    desc = tuple(reversed(asc))
    orders = {}
    for v, p in sorted(g.vertices.items()):
        seq = asc if p == "w" else desc
        orders[v] = tuple(f"{v}:{c}" for c in seq)
    pairing = {}
    for e in g.edges.values():
        pairing[f"{e.white}:{e.color}"] = f"{e.black}:{e.color}"
    return RibbonStructure(orders, pairing)


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
    seen = set()
    for h in sorted(r.involution):
        k = r.partner(h)
        if h in seen or k in seen:
            continue
        seen.update((h, k))
        lines.append(f"rj {h} {k}")
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

    Components come in the order of their smallest vertex label.
    """
    orders, pair, succ = r._orders, r._pair, r._succ
    labels = sorted(orders)
    half: dict[str, int] = {}  # half-edge -> index, grouped by vertex
    owner: list[int] = []  # half-edge index -> vertex index
    for i, v in enumerate(labels):
        for h in orders[v]:
            half[h] = len(owner)
            owner.append(i)
    cycles = [orders[v] for v in labels]
    # one map per cyclic position: v -> the vertex across its k-th half-edge
    across = [
        [owner[half[pair[c[k]]]] if k < len(c) else -1 for c in cycles]
        for k in range(max(map(len, cycles), default=0))
    ]
    comps = _orbits(len(labels), across)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    bcs = [0] * len(comps)
    face = [half[succ[pair[h]]] for h in half]
    for circle in _orbits(len(owner), [face]):
        bcs[comp_of[owner[circle[0]]]] += 1

    per = []
    for comp, bc in zip(comps, bcs):
        e = sum(len(cycles[v]) for v in comp) // 2
        chi = len(comp) - e + bc
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


@dataclass(frozen=True)
class CellReport:
    """Cell counts of the full thickened 2-complex (diagnostic).

    Each vertex of valence n contributes 2n 0-cells (corner points), edges
    contribute sides, and the 2-cells are the vertex disks, edge bands and
    boundary-capping disks.  The alternating sum reproduces V - E + bc.
    """

    zero_cells: int
    one_cells: int
    two_cells: int

    @property
    def euler(self) -> int:
        return self.zero_cells - self.one_cells + self.two_cells


def cell_counts(r: RibbonStructure) -> CellReport:
    total_valence = sum(len(c) for c in r.orders.values())
    report = boundary_components(r)
    return CellReport(
        zero_cells=2 * total_valence,
        one_cells=2 * total_valence + 2 * r.n_edges,
        two_cells=r.n_vertices + r.n_edges + report.bc,
    )


def euler_agreement(g: ColoredGraph) -> bool:
    """Bubble-count chi equals ribbon chi for a closed connected 3-colored graph."""
    from .homology import euler_characteristic

    ribbon_chi = boundary_components(ribbon_from_colored(g)).euler
    return euler_characteristic(g) == ribbon_chi
