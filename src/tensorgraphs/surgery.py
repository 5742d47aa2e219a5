"""Graph surgery: connected sums, edge opening/capping, cones, boundaries.

All operations are label-driven and pure.  The connected sum cuts one
same-colored edge in each summand and cross-rejoins the four loose ends;
along color 0 it is the QFT-compatible gluing (both summands' Feynman
structure survives).  The crystallization-style sum instead deletes a white
vertex in one graph and a black vertex in the other and rejoins the hanging
half-edges color by color -- topologically also a connected sum, but it
generally leaves the Feynman class.

Opening an internal color-0 edge replaces it by two legs; capping two legs
of opposite parity restores an edge.  The cone over a closed D-colored
graph ``b`` is the open (D+1)-colored graph with one leg per vertex of
``b``; its boundary is ``b`` again.

Sums along edges and openings, like prefixing and unions, are one assembly,
``graphs._splice``: it takes a whole row of blocks, each prefixed as it is
copied, so the chain families of :mod:`tensorgraphs.models` splice once,
with no prefixed copy of a block and no copy of the growing chain per sum.

The boundary graph of an open graph has one vertex per leg and one color-c
edge for each alternating (0, c)-path between legs; regularity of the input
makes the path tracing deterministic, through one map per color.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .graphs import (
    ColoredGraph,
    Edge,
    GraphError,
    Leg,
    _fresh,
    _has_certificate,
    _namespace_pair,
    _require_regular,
    _splice,
    add_prefix,
    canonical_certificate,
    disjoint_union,
)

__all__ = [
    "connected_sum",
    "crys_sum",
    "open_edge",
    "close_legs",
    "cone",
    "boundary_graph",
    "separator_check",
]


def connected_sum(a: ColoredGraph, e: str, b: ColoredGraph, f: str) -> ColoredGraph:
    """Cut edge e of a and edge f of b (same color) and cross-rejoin.

    The replacement edges run source-of-e -> target-of-f (named ``<e>'``)
    and source-of-f -> target-of-e (named ``<f>'``).  If the two graphs'
    labels collide, both sides are namespaced (``l.``/``r.``) first.
    """
    if a.colors != b.colors:
        raise GraphError(f"color sets differ: {a.colors} vs {b.colors}")
    if e not in a.edges:
        raise GraphError(f"no edge {e!r} in the first summand")
    if f not in b.edges:
        raise GraphError(f"no edge {f!r} in the second summand")
    ca, cb = a._edges[e].color, b._edges[f].color
    if ca != cb:
        raise GraphError(f"edge colors differ: {ca} vs {cb}")
    pa, pb = _namespace_pair(a, b)
    return _splice(((a, pa), (b, pb)), ((pa + e, pb + f),))


def crys_sum(a: ColoredGraph, p: str, b: ColoredGraph, q: str) -> ColoredGraph:
    """Delete white vertex p of a and black vertex q of b; rejoin by color.

    For each color c, the hanging half-edge at p's former c-neighbor is
    joined to the one at q's former c-neighbor.  Requires both graphs
    closed, on the same colors, with full color slots at p and q.
    """
    if a.colors != b.colors:
        raise GraphError(f"color sets differ: {a.colors} vs {b.colors}")
    if a.is_open or b.is_open:
        raise GraphError("crys sum requires closed graphs")
    if p not in a.vertices or a.parity(p) != "w":
        raise GraphError(f"{p!r} is not a white vertex of the first summand")
    if q not in b.vertices or b.parity(q) != "b":
        raise GraphError(f"{q!r} is not a black vertex of the second summand")
    pa, pb = _namespace_pair(a, b)
    edges: dict[str, Edge] = {}
    at = {}  # (summand, color): its edge at the deleted vertex
    for i, g, v, pre in ((0, a, p, pa), (1, b, q, pb)):
        for x in g._edges.values():
            label, c, w, bl = x
            if v == w or v == bl:
                at[i, c] = x
            elif pre:
                edges[pre + label] = Edge(pre + label, c, pre + w, pre + bl)
            else:
                edges[label] = x
    for c in a._colors:
        ea, eb = at.get((0, c)), at.get((1, c))
        if ea is None or eb is None:
            raise GraphError(f"missing color {c} at {pa + p!r} or {pb + q!r}")
        label = _fresh(f"{pa}{ea.label}~{pb}{eb.label}", edges)
        edges[label] = Edge(label, c, pb + eb.white, pa + ea.black)
    vertices = {pa + v: par for v, par in a._parity.items() if v != p}
    vertices.update((pb + v, par) for v, par in b._parity.items() if v != q)
    return ColoredGraph._trusted(a._colors, vertices, edges)


def open_edge(g: ColoredGraph, e: str) -> ColoredGraph:
    """Replace the internal color-0 edge e by two legs (``<e>.w``, ``<e>.b``)."""
    if e not in g.edges:
        raise GraphError(f"no edge {e!r}")
    edge = g.edges[e]
    if edge.color != 0:
        raise GraphError(f"edge {e!r} has color {edge.color}, not 0")
    return _splice(((g, ""),), (), (e,))


def close_legs(g: ColoredGraph, l1: str, l2: str) -> ColoredGraph:
    """Replace two legs of opposite parity by a color-0 edge (``<l1>~<l2>``)."""
    for l in (l1, l2):
        if l not in g.legs:
            raise GraphError(f"no leg {l!r}")
    if l1 == l2:
        raise GraphError("the two legs must be distinct")
    v1, v2 = g.legs[l1].vertex, g.legs[l2].vertex
    p1, p2 = g.parity(v1), g.parity(v2)
    if p1 == p2:
        raise GraphError(f"legs {l1!r} and {l2!r} sit on same-parity vertices")
    white, black = (v1, v2) if p1 == "w" else (v2, v1)
    edges = dict(g._edges)
    label = _fresh(f"{l1}~{l2}", edges)
    edges[label] = Edge(label, 0, white, black)
    legs = {x: leg for x, leg in g._legs.items() if x not in (l1, l2)}
    return ColoredGraph._trusted(g._colors, dict(g._parity), edges, legs)


def cone(b: ColoredGraph) -> ColoredGraph:
    """The open (D+1)-colored graph with one leg per vertex of b.

    The inner copy keeps b's vertices, edges and parities; each vertex v
    gets a leg ``v'``.  The boundary of the cone is b again.
    """
    if b.is_open:
        raise GraphError("cone requires a closed graph")
    if 0 in b.colors:
        raise GraphError("cone input must not use color 0")
    legs = {f"{v}'": Leg(f"{v}'", v) for v in sorted(b._parity)}
    return ColoredGraph._trusted((0,) + b._colors, dict(b._parity), dict(b._edges), legs)


def boundary_graph(g: ColoredGraph) -> ColoredGraph:
    """The D-colored graph on the legs of a regular graph g.

    One vertex per leg (parity inherited from the legged inner vertex); for
    each leg on a white vertex and each color c != 0, the alternating
    (0, c)-path from that vertex ends at a black-legged vertex, giving one
    color-c edge ``<leg>.<c>``.  Closed graphs have empty boundary.  As g is
    regular, each path goes on until a leg, and it is a path component of
    the (0, c)-subgraph, so the edges fit.
    """
    if 0 not in g.colors:
        raise GraphError("boundary graph needs color 0 in the color set")
    _require_regular(g, "boundary graph")
    colors = tuple(c for c in g._colors if c != 0)
    vertices = {l.label: g._parity[l.vertex] for l in g._legs.values()}
    leg_at = {l.vertex: l.label for l in g._legs.values()}
    ends: dict[int, dict[str, str]] = {c: {} for c in g._colors}
    for _, c, w, b in g._edges.values():  # white to black, and back along color 0
        ends[c][w if c else b] = b if c else w
    edges = {}
    for label, start in sorted(l for l in g._legs.values() if vertices[l.label] == "w"):
        for c in colors:
            forth, back = ends[c], ends[0]
            v = forth[start]  # always black: the path alternates c and 0
            while v not in leg_at:
                v = forth[back[v]]
            name = f"{label}.{c}"
            edges[name] = Edge(name, c, label, leg_at[v])
    return ColoredGraph._trusted(colors, vertices, edges)


def separator_check(
    p: ColoredGraph,
    k: str,
    l: str,
    probes: Sequence[tuple[ColoredGraph, ColoredGraph]],
) -> bool:
    """Does splicing p (along k, l) between probe pairs split their boundaries?

    For each probe pair (G, H), G is summed to p along the first internal
    color-0 edge of G (by label) and k, then H along l and the first
    internal color-0 edge of H; the check holds if the boundary of the
    splice is isomorphic to the disjoint union of the boundaries of G and H.
    A probe side with no internal color-0 edge admits no cut and is skipped
    (vacuously true).  To cut other edges, pass probe pairs relabelled so
    that those edges sort first; the verdict depends on the edges cut.
    """
    for label in (k, l):
        if label not in p.edges or p.edges[label].color != 0:
            raise GraphError(f"{label!r} is not a color-0 edge of the separator")
    if k == l:
        raise GraphError("the two separator edges must be distinct")
    return _separates(p, k, l, _probe_setups(tuple(map(tuple, probes))))


@lru_cache(maxsize=8)
def _probe_setups(pairs: tuple[tuple[ColoredGraph, ColoredGraph], ...]) -> tuple:
    """For each probe pair (G, H) with a color-0 edge on each side: G
    prefixed ``g.`` and its first color-0 edge, the same for H with ``h.``,
    and the certificate of the union of their boundaries.  Graphs hash by
    identity, so the same graphs in the same order get the same setups
    back, prepared once; the cache holds its keys, so no id in one is taken
    by another graph."""
    setups = []
    for g_probe, h_probe in pairs:
        g_edges = [e for e, x in g_probe._edges.items() if x.color == 0]
        h_edges = [e for e, x in h_probe._edges.items() if x.color == 0]
        if g_edges and h_edges:
            expected = disjoint_union(boundary_graph(g_probe), boundary_graph(h_probe))
            setups.append((
                add_prefix(g_probe, "g."), "g." + min(g_edges),
                add_prefix(h_probe, "h."), "h." + min(h_edges),
                canonical_certificate(expected),
            ))
    return tuple(setups)


def _separates(p: ColoredGraph, k: str, l: str, setups: Sequence) -> bool:
    """:func:`separator_check` of p along k, l against prepared probe setups,
    each spliced boundary matched against the expected certificate
    (:func:`~tensorgraphs.graphs._has_certificate`), not certified in full."""
    for g2, ge, h2, he, expected in setups:
        if g2.colors != p.colors:  # H's match G's, or their boundaries' union raised
            raise GraphError(f"color sets differ: {g2.colors} vs {p.colors}")
        spliced = _splice(((g2, ""), (p, "p."), (h2, "")), ((ge, "p." + k), ("p." + l, he)))
        if not _has_certificate(boundary_graph(spliced), expected):
            return False
    return True
