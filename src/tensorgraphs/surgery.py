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

Sums along edges and openings share one routine, ``_splice``; it takes a
whole row of blocks, so the chain families of :mod:`tensorgraphs.models`
splice once instead of copying the growing chain at every sum.

The boundary graph of an open graph has one vertex per leg and one color-c
edge for each alternating (0, c)-path between legs; regularity of the input
makes the path tracing deterministic.
"""

from __future__ import annotations

from collections.abc import Container, Sequence
from functools import lru_cache

from .graphs import (
    ColoredGraph,
    Edge,
    GraphError,
    Leg,
    _namespace_pair,
    _require_regular,
    _slot_index,
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


def _fresh(label: str, taken: Container[str]) -> str:
    while label in taken:
        label += "'"
    return label


def _splice(
    blocks: Sequence[ColoredGraph],
    links: Sequence[tuple[str, str]] = (),
    opens: Sequence[str] = (),
) -> ColoredGraph:
    """Sum a row of blocks and open edges, in one pass and one assembly.

    The blocks share one color set and have disjoint labels.  Link
    ``links[k - 1] = (e, f)`` joins edge e of an earlier block to edge f of
    ``blocks[k]`` as :func:`connected_sum` does; each edge in `opens`, cut by
    no link, becomes two legs as in :func:`open_edge`.  The result equals
    those sums, then those openings, one after the other, insertion order
    included: block k's uncut edges, then the two new edges of link k - 1;
    the blocks' legs, then the opened ones.
    """
    cut = {label for link in links for label in link}
    cut.update(opens)
    gone: dict[str, Edge] = {}
    parity: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    legs: dict[str, Leg] = {}
    for k, block in enumerate(blocks):
        parity.update(block._parity)
        legs.update(block._legs)
        for label, x in block._edges.items():
            if label in cut:
                gone[label] = x
            else:
                edges[label] = x
        if k:
            e, f = links[k - 1]
            ea, fb = gone[e], gone[f]
            e_new = _fresh(e + "'", edges)
            edges[e_new] = Edge(e_new, ea.color, ea.white, fb.black)
            f_new = _fresh(f + "'", edges)
            edges[f_new] = Edge(f_new, fb.color, fb.white, ea.black)
    for e in opens:
        x = gone[e]
        lw = _fresh(f"{e}.w", legs)
        legs[lw] = Leg(lw, x.white)
        lb = _fresh(f"{e}.b", legs)
        legs[lb] = Leg(lb, x.black)
    return ColoredGraph._trusted(blocks[0]._colors, parity, edges, legs)


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
    a2, b2, pa, pb = _namespace_pair(a, b)
    e2, f2 = pa + e, pb + f
    ca, cb = a2.edges[e2].color, b2.edges[f2].color
    if ca != cb:
        raise GraphError(f"edge colors differ: {ca} vs {cb}")
    return _splice((a2, b2), ((e2, f2),))


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
    a2, b2, pa, pb = _namespace_pair(a, b)
    p2, q2 = pa + p, pb + q
    edges = {
        label: x for label, x in a2._edges.items() if p2 not in (x.white, x.black)
    }
    edges.update(
        (label, x) for label, x in b2._edges.items() if q2 not in (x.white, x.black)
    )
    for c in a2.colors:
        ea = a2.edge_at(p2, c)
        eb = b2.edge_at(q2, c)
        if ea is None or eb is None:
            raise GraphError(f"missing color {c} at {p2!r} or {q2!r}")
        label = _fresh(f"{ea.label}~{eb.label}", edges)
        edges[label] = Edge(label, c, eb.white, ea.black)
    vertices = {v: par for v, par in a2._parity.items() if v != p2}
    vertices.update((v, par) for v, par in b2._parity.items() if v != q2)
    return ColoredGraph._trusted(a2._colors, vertices, edges)


def open_edge(g: ColoredGraph, e: str) -> ColoredGraph:
    """Replace the internal color-0 edge e by two legs (``<e>.w``, ``<e>.b``)."""
    if e not in g.edges:
        raise GraphError(f"no edge {e!r}")
    edge = g.edges[e]
    if edge.color != 0:
        raise GraphError(f"edge {e!r} has color {edge.color}, not 0")
    return _splice((g,), (), (e,))


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
    slot = _slot_index(g).get
    edges = {}
    for label, start in sorted(l for l in g._legs.values() if vertices[l.label] == "w"):
        for c in colors:
            cur = start  # always white: the path alternates c and 0
            while True:
                nxt = slot((cur, c)).black
                leg = slot((nxt, None))
                if leg is not None:
                    name = f"{label}.{c}"
                    edges[name] = Edge(name, c, label, leg.label)
                    break
                cur = slot((nxt, 0)).white
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
    """:func:`separator_check` of p along k, l against prepared probe setups."""
    p2 = add_prefix(p, "p.")
    for g2, ge, h2, he, expected in setups:
        if g2.colors != p.colors:  # H's match G's, or their boundaries' union raised
            raise GraphError(f"color sets differ: {g2.colors} vs {p.colors}")
        spliced = _splice((g2, p2, h2), ((ge, "p." + k), ("p." + l, he)))
        if canonical_certificate(boundary_graph(spliced)) != expected:
            return False
    return True
