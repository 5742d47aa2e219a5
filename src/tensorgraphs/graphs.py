"""Edge-colored bipartite multigraphs.

The central object is the :class:`ColoredGraph`: a bipartite multigraph whose
edges carry a color, with *at most one edge of each color at each vertex*
(regular coloring).  Closed graphs use colors ``1..D``; open graphs use colors
``0..D`` and may carry *legs* -- color-0 half-edges standing for amputated
external propagators.  Every edge is oriented white -> black, and both edges
and vertices carry stable string labels so that surgery operations can address
specific edges.

The regularity constraint makes these graphs rigid: walking away from a vertex
along a given color is deterministic, which is what the canonical-form
isomorphism test below exploits.

File format (UTF-8, line oriented, ``#`` starts a comment)::

    colors <D> <closed|open>     # closed: colors 1..D; open: colors 0..D
    v <label> <w|b>
    e <label> <color> <white-label> <black-label>
    leg <label> <inner-vertex-label>
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

WHITE = "w"
BLACK = "b"

__all__ = [
    "WHITE",
    "BLACK",
    "GraphError",
    "Edge",
    "Leg",
    "Bubble",
    "ColoredGraph",
    "parse",
    "serialize",
    "validate",
    "bubbles",
    "connected_components",
    "amputate",
    "remove_color",
    "relabel",
    "add_prefix",
    "recolor",
    "disjoint_union",
    "canonical_certificate",
    "IsoResult",
    "is_isomorphic",
    "export_dot",
]


class GraphError(ValueError):
    """Malformed graph data or an operation applied to an unsuitable graph."""


@dataclass(frozen=True)
class Edge:
    """A colored edge, oriented from its white end to its black end."""

    label: str
    color: int
    white: str
    black: str

    def other(self, vertex: str) -> str:
        """The endpoint different from `vertex`."""
        if vertex == self.white:
            return self.black
        if vertex == self.black:
            return self.white
        raise GraphError(f"vertex {vertex!r} is not an end of edge {self.label!r}")


@dataclass(frozen=True)
class Leg:
    """A color-0 half-edge at an inner vertex.

    The valence-1 outer vertex at the far end is implicit; it is
    reconstructed on demand (e.g. by DOT export and by boundary-graph
    tracing) rather than stored.
    """

    label: str
    vertex: str


@dataclass(frozen=True)
class Bubble:
    """A connected subgraph spanned by the edges of a fixed color subset.

    ``colors`` is the defining color subset (not necessarily the set of
    colors that actually occur -- a 0-bubble has ``colors == ()`` and a
    single vertex).  ``vertices`` and ``edges`` are sorted tuples of labels.
    """

    colors: tuple[int, ...]
    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    @property
    def key(self) -> tuple[tuple[int, ...], str]:
        """Deterministic sort key: (color subset, smallest member vertex)."""
        return (self.colors, self.vertices[0])

    def as_graph(self, parent: "ColoredGraph") -> "ColoredGraph":
        """The bubble as a standalone graph on its own color subset."""
        return ColoredGraph(
            self.colors,
            {v: parent.parity(v) for v in self.vertices},
            [parent.edges[e] for e in self.edges],
        )


class ColoredGraph:
    """An edge-colored bipartite multigraph with at most one edge per
    (vertex, color) pair.

    Instances are immutable after construction; every operation in this
    package returns a new graph.  The color set is explicit: regular graphs
    read from files use contiguous colors (``1..D`` or ``0..D``), but
    intermediate values such as color-deleted subgraphs may live on an
    arbitrary subset.
    """

    __slots__ = ("_colors", "_parity", "_edges", "_legs", "_slots", "_leg_at")

    def __init__(
        self,
        colors: Iterable[int],
        vertices: Mapping[str, str] | Iterable[tuple[str, str]],
        edges: Iterable[Edge | tuple] = (),
        legs: Iterable[Leg | tuple] = (),
    ) -> None:
        colors = tuple(sorted(colors))
        if len(set(colors)) != len(colors):
            raise GraphError("duplicate colors in color set")
        if any(c < 0 for c in colors):
            raise GraphError("colors must be non-negative integers")
        self._colors = colors

        parity: dict[str, str] = {}
        items = vertices.items() if isinstance(vertices, Mapping) else vertices
        for label, p in items:
            if label in parity:
                raise GraphError(f"duplicate vertex label {label!r}")
            if p not in (WHITE, BLACK):
                raise GraphError(f"vertex {label!r}: parity must be 'w' or 'b'")
            parity[label] = p
        self._parity = parity

        edge_map: dict[str, Edge] = {}
        slots: dict[tuple[str, int], Edge] = {}
        for item in edges:
            e = item if isinstance(item, Edge) else Edge(*item)
            if e.label in edge_map:
                raise GraphError(f"duplicate edge label {e.label!r}")
            if e.color not in self._colors:
                raise GraphError(
                    f"edge {e.label!r}: color {e.color} outside color set {self._colors}"
                )
            for end, want in ((e.white, WHITE), (e.black, BLACK)):
                if end not in parity:
                    raise GraphError(f"edge {e.label!r}: unknown vertex {end!r}")
                if parity[end] != want:
                    raise GraphError(
                        f"edge {e.label!r}: vertex {end!r} is not {want!r}"
                    )
            for end in (e.white, e.black):
                slot = (end, e.color)
                if slot in slots:
                    raise GraphError(
                        f"duplicate color at vertex: color {e.color} at {end!r} "
                        f"(edges {slots[slot].label!r} and {e.label!r})"
                    )
                slots[slot] = e
            edge_map[e.label] = e
        self._edges = edge_map
        self._slots = slots

        leg_map: dict[str, Leg] = {}
        leg_at: dict[str, Leg] = {}
        for item in legs:
            l = item if isinstance(item, Leg) else Leg(*item)
            if l.label in leg_map:
                raise GraphError(f"duplicate leg label {l.label!r}")
            if 0 not in self._colors:
                raise GraphError(f"leg {l.label!r}: color 0 not in color set")
            if l.vertex not in parity:
                raise GraphError(f"leg {l.label!r}: unknown vertex {l.vertex!r}")
            if (l.vertex, 0) in slots:
                raise GraphError(
                    f"leg {l.label!r}: vertex {l.vertex!r} already has a color-0 edge"
                )
            if l.vertex in leg_at:
                raise GraphError(f"two legs at vertex {l.vertex!r}")
            leg_at[l.vertex] = l
            leg_map[l.label] = l
        self._legs = leg_map
        self._leg_at = leg_at

    # -- basic accessors ---------------------------------------------------

    @property
    def colors(self) -> tuple[int, ...]:
        return self._colors

    @property
    def vertices(self) -> Mapping[str, str]:
        """Read-only mapping vertex label -> parity ('w' or 'b')."""
        return MappingProxyType(self._parity)

    @property
    def edges(self) -> Mapping[str, Edge]:
        return MappingProxyType(self._edges)

    @property
    def legs(self) -> Mapping[str, Leg]:
        return MappingProxyType(self._legs)

    def parity(self, vertex: str) -> str:
        return self._parity[vertex]

    def whites(self) -> list[str]:
        return sorted(v for v, p in self._parity.items() if p == WHITE)

    def blacks(self) -> list[str]:
        return sorted(v for v, p in self._parity.items() if p == BLACK)

    def edge_at(self, vertex: str, color: int) -> Edge | None:
        """The unique color-`color` edge at `vertex`, or None."""
        return self._slots.get((vertex, color))

    def leg_at(self, vertex: str) -> Leg | None:
        return self._leg_at.get(vertex)

    def neighbor(self, vertex: str, color: int) -> str | None:
        e = self._slots.get((vertex, color))
        return None if e is None else e.other(vertex)

    @property
    def is_open(self) -> bool:
        """True when the graph carries at least one leg."""
        return bool(self._legs)

    @property
    def is_closed(self) -> bool:
        return not self._legs

    def __len__(self) -> int:
        return len(self._parity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColoredGraph(colors={self._colors}, |V|={len(self._parity)}, "
            f"|E|={len(self._edges)}, legs={len(self._legs)})"
        )


# -- file format -----------------------------------------------------------


def parse(text: str, *, require_regular: bool = True) -> ColoredGraph:
    """Parse the line-oriented graph file format.

    Raises :class:`GraphError` with a line number for syntax problems and,
    when `require_regular` (the default), for graphs that are not properly
    colored (a missing or doubled color at some vertex).
    """
    colors: tuple[int, ...] | None = None
    vertices: list[tuple[str, str]] = []
    edges: list[Edge] = []
    legs: list[Leg] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "colors":
                if colors is not None:
                    raise GraphError("second 'colors' header")
                if len(args) != 2 or args[1] not in ("closed", "open"):
                    raise GraphError("expected: colors <D> <closed|open>")
                d = int(args[0])
                if d < 1:
                    raise GraphError("D must be >= 1")
                colors = tuple(range(1, d + 1)) if args[1] == "closed" else tuple(range(d + 1))
            elif kind == "v":
                if colors is None:
                    raise GraphError("'colors' header must come first")
                if len(args) != 2:
                    raise GraphError("expected: v <label> <w|b>")
                vertices.append((args[0], args[1]))
            elif kind == "e":
                if colors is None:
                    raise GraphError("'colors' header must come first")
                if len(args) != 4:
                    raise GraphError("expected: e <label> <color> <white> <black>")
                edges.append(Edge(args[0], int(args[1]), args[2], args[3]))
            elif kind == "leg":
                if colors is None:
                    raise GraphError("'colors' header must come first")
                if len(args) != 2:
                    raise GraphError("expected: leg <label> <inner-vertex>")
                legs.append(Leg(args[0], args[1]))
            else:
                raise GraphError(f"unknown directive {kind!r}")
        except (GraphError, ValueError) as exc:
            raise GraphError(f"line {lineno}: {exc}") from None

    if colors is None:
        raise GraphError("missing 'colors' header")
    g = ColoredGraph(colors, vertices, edges, legs)
    if require_regular:
        problems = validate(g)
        if problems:
            raise GraphError("; ".join(problems))
    return g


def serialize(g: ColoredGraph) -> str:
    """Render a graph in the file format, deterministically.

    Only graphs on a contiguous color set (``1..D`` or ``0..D``) have a
    header; anything else (e.g. the output of :func:`remove_color` for an
    inner color) is an in-memory value and is rejected here.
    """
    cs = g.colors
    if cs and cs == tuple(range(1, len(cs) + 1)):
        header = f"colors {len(cs)} closed"
    elif cs and cs == tuple(range(len(cs))):
        header = f"colors {len(cs) - 1} open"
    else:
        raise GraphError(f"color set {cs} is not contiguous; cannot serialize")
    lines = [header]
    lines += [f"v {v} {p}" for v, p in sorted(g.vertices.items())]
    lines += [
        f"e {e.label} {e.color} {e.white} {e.black}"
        for _, e in sorted(g.edges.items())
    ]
    lines += [f"leg {l.label} {l.vertex}" for _, l in sorted(g.legs.items())]
    return "\n".join(lines) + "\n"


def validate(g: ColoredGraph) -> list[str]:
    """Check regular coloring; an empty report means the graph is valid.

    Structural problems (dangling endpoints, doubled slots, parity clashes)
    cannot occur in a constructed :class:`ColoredGraph`; what remains to
    check is completeness: every vertex must carry exactly one edge of each
    color, with a leg standing in for the color-0 edge in open graphs.
    """
    problems = []
    for v in sorted(g.vertices):
        for c in g.colors:
            if g.edge_at(v, c) is not None:
                continue
            if c == 0 and g.leg_at(v) is not None:
                continue
            problems.append(f"vertex {v!r}: missing color {c}")
    return problems


# -- substructure ----------------------------------------------------------


def bubbles(g: ColoredGraph, colors: Iterable[int]) -> list[Bubble]:
    """The connected components of the subgraph of edges with given colors.

    With ``colors = ()`` every vertex is its own 0-bubble.  Otherwise only
    vertices incident to at least one edge of the chosen colors take part.
    Results are sorted by (color subset, smallest member vertex).
    """
    csub = tuple(sorted(set(colors)))
    for c in csub:
        if c not in g.colors:
            raise GraphError(f"color {c} outside color set {g.colors}")
    if not csub:
        return [Bubble((), (v,), ()) for v in sorted(g.vertices)]

    seen: set[str] = set()
    out: list[Bubble] = []
    for start in sorted(g.vertices):
        if start in seen or all(g.edge_at(start, c) is None for c in csub):
            continue
        comp_v: set[str] = {start}
        comp_e: set[str] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            for c in csub:
                e = g.edge_at(v, c)
                if e is None:
                    continue
                comp_e.add(e.label)
                u = e.other(v)
                if u not in comp_v:
                    comp_v.add(u)
                    stack.append(u)
        seen |= comp_v
        out.append(Bubble(csub, tuple(sorted(comp_v)), tuple(sorted(comp_e))))
    return out


def connected_components(g: ColoredGraph) -> list[ColoredGraph]:
    """Split into maximal connected subgraphs (labels preserved).

    Legs stay with their inner vertex.  The empty graph has no components.
    Components are ordered by their smallest vertex label.
    """
    out = []
    seen: set[str] = set()
    for start in sorted(g.vertices):
        if start in seen:
            continue
        comp: set[str] = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for c in g.colors:
                u = g.neighbor(v, c)
                if u is not None and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(
            ColoredGraph(
                g.colors,
                {v: g.parity(v) for v in sorted(comp)},
                [e for e in g.edges.values() if e.white in comp],
                [l for l in g.legs.values() if l.vertex in comp],
            )
        )
    return out


def amputate(g: ColoredGraph) -> ColoredGraph:
    """Strip all legs, keeping inner vertices and internal edges.

    The result is generally not color-regular at formerly-legged vertices.
    """
    if not g.legs:
        raise GraphError("amputate: graph is closed (no legs)")
    return ColoredGraph(g.colors, dict(g.vertices), g.edges.values())


def remove_color(g: ColoredGraph, c: int) -> ColoredGraph:
    """Delete every color-`c` edge and drop `c` from the color set.

    Removing color 0 also drops all legs (legs are color-0 half-edges).
    The result may live on a non-contiguous color set, in which case it
    cannot be serialized -- it is an in-memory value.
    """
    if c not in g.colors:
        raise GraphError(f"color {c} outside color set {g.colors}")
    new_colors = tuple(x for x in g.colors if x != c)
    legs = () if c == 0 else tuple(g.legs.values())
    return ColoredGraph(
        new_colors,
        dict(g.vertices),
        [e for e in g.edges.values() if e.color != c],
        legs,
    )


# -- renaming and unions ----------------------------------------------------


def relabel(
    g: ColoredGraph,
    vertex_map: Mapping[str, str] | None = None,
    edge_map: Mapping[str, str] | None = None,
    leg_map: Mapping[str, str] | None = None,
) -> ColoredGraph:
    """Rename vertices/edges/legs; missing keys keep their labels."""
    vm = vertex_map or {}
    em = edge_map or {}
    lm = leg_map or {}
    return ColoredGraph(
        g.colors,
        {vm.get(v, v): p for v, p in g.vertices.items()},
        [
            Edge(em.get(e.label, e.label), e.color, vm.get(e.white, e.white), vm.get(e.black, e.black))
            for e in g.edges.values()
        ],
        [Leg(lm.get(l.label, l.label), vm.get(l.vertex, l.vertex)) for l in g.legs.values()],
    )


def add_prefix(g: ColoredGraph, prefix: str) -> ColoredGraph:
    """Prefix every vertex, edge and leg label (namespacing for sums)."""
    return relabel(
        g,
        {v: prefix + v for v in g.vertices},
        {e: prefix + e for e in g.edges},
        {l: prefix + l for l in g.legs},
    )


def recolor(g: ColoredGraph, color_map: Mapping[int, int]) -> ColoredGraph:
    """Apply a bijective recoloring to all edges and the color set.

    Colors not mentioned are kept.  Moving color 0 is rejected when the
    graph has legs (legs are anchored to color 0).
    """
    cmap = {c: color_map.get(c, c) for c in g.colors}
    if len(set(cmap.values())) != len(cmap):
        raise GraphError("recoloring is not injective on the color set")
    if g.legs and cmap.get(0, 0) != 0:
        raise GraphError("cannot move color 0 of a graph with legs")
    return ColoredGraph(
        sorted(cmap.values()),
        dict(g.vertices),
        [Edge(e.label, cmap[e.color], e.white, e.black) for e in g.edges.values()],
        tuple(g.legs.values()),
    )


def disjoint_union(a: ColoredGraph, b: ColoredGraph) -> ColoredGraph:
    """Disjoint union of two graphs on the same color set.

    If any labels collide, both sides are namespaced (``l.``/``r.``).
    """
    if a.colors != b.colors:
        raise GraphError(f"color sets differ: {a.colors} vs {b.colors}")
    if (
        set(a.vertices) & set(b.vertices)
        or set(a.edges) & set(b.edges)
        or set(a.legs) & set(b.legs)
    ):
        a = add_prefix(a, "l.")
        b = add_prefix(b, "r.")
    return ColoredGraph(
        a.colors,
        {**a.vertices, **b.vertices},
        list(a.edges.values()) + list(b.edges.values()),
        list(a.legs.values()) + list(b.legs.values()),
    )


# -- isomorphism -------------------------------------------------------------
#
# Because each vertex carries at most one edge per color, a breadth-first
# scan from a fixed root visits a connected component in a deterministic
# order and encodes it as a sequence of rows
#
#     (parity, slot_1, ..., slot_k)
#
# where slot_i is the BFS index of the neighbor along the i-th color of the
# read order (or a marker for "leg" / "empty").  The canonical certificate of
# a component is the lexicographically smallest encoding over all roots, the
# earliest root in label order winning ties.  Every encoding starts with its
# root's parity (0 for white), so a component with white vertices tries only
# those as roots.  All encodings of a component have the same length, so a
# root is abandoned at its first row that is larger than the best encoding's
# row at the same index.  Two components are isomorphic (with colors fixed) iff
# their certificates are equal, and the certificate-minimizing BFS orders
# themselves provide a witness bijection.
#
# The read order is the graph's color set unless given: reading `a` in the
# order [cmap^-1(c) for c in b.colors] yields the encodings of
# recolor(a, cmap) without building that graph, which is how the
# up-to-color-permutation test tries each color bijection against `b`.


_EMPTY_SLOT = -1
_LEG_SLOT = -2


def _component_certs(
    g: ColoredGraph, colors: Iterable[int] | None = None
) -> list[tuple[tuple[tuple[int, ...], ...], dict[str, int]]]:
    """Per component: (canonical code, vertex -> canonical index).

    Slots are read in `colors` order (default ``g.colors``); components come
    in the order of their smallest vertex label.
    """
    labels = sorted(g._parity)
    index = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    read = g._colors if colors is None else tuple(colors)
    slot_of = {c: k for k, c in enumerate(read)}
    nbrs = [[_EMPTY_SLOT] * n for _ in read]
    for e in g._edges.values():
        w, b = index[e.white], index[e.black]
        nb = nbrs[slot_of[e.color]]
        nb[w] = b
        nb[b] = w
    for l in g._legs.values():
        nbrs[slot_of[0]][index[l.vertex]] = _LEG_SLOT
    parity = [0 if g._parity[v] == WHITE else 1 for v in labels]

    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:
            for nb in nbrs:
                u = nb[v]
                if u >= 0 and not seen[u]:
                    seen[u] = True
                    comp.append(u)
        comp.sort()
        roots = [v for v in comp if not parity[v]] or comp
        best: tuple | None = None
        best_queue: list[int] = []
        for root in roots:
            pos = {root: 0}
            queue = [root]
            rows = []
            smaller = best is None
            for v in queue:
                row = [parity[v]]
                for nb in nbrs:
                    u = nb[v]
                    if u >= 0:
                        j = pos.get(u)
                        if j is None:
                            j = pos[u] = len(queue)
                            queue.append(u)
                        u = j
                    row.append(u)
                row = tuple(row)
                if not smaller:
                    rival = best[len(rows)]
                    if row > rival:
                        break
                    smaller = row < rival
                rows.append(row)
            else:
                if smaller:
                    best, best_queue = tuple(rows), queue
        out.append((best, {labels[v]: k for k, v in enumerate(best_queue)}))
    return out


def canonical_certificate(g: ColoredGraph) -> tuple:
    """A hashable value equal for exactly the (exact-colors) isomorphic graphs.

    Suitable as a deduplication key, e.g. when enumerating Wick contractions.
    """
    certs = sorted(code for code, _ in _component_certs(g))
    return (g.colors, tuple(certs))


@dataclass(frozen=True)
class IsoResult:
    """Outcome of an isomorphism test.

    ``witness`` maps vertices of the first graph to vertices of the second
    when isomorphic.  In up-to-color-permutation mode ``color_map`` records
    the color bijection used (first graph's colors -> second's).
    """

    isomorphic: bool
    witness: dict[str, str] | None = None
    color_map: dict[int, int] | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


def is_isomorphic(
    a: ColoredGraph, b: ColoredGraph, mode: str = "exact-colors"
) -> IsoResult:
    """Test for a parity-preserving, color-respecting graph isomorphism.

    ``mode='exact-colors'`` requires edge colors to match on the nose;
    ``mode='up-to-color-permutation'`` allows a global bijection of the
    color sets (fixing color 0 whenever legs are present).  Color
    bijections are tried in ``itertools.permutations`` order of
    ``b.colors``; the first that works is reported.
    """
    if mode == "exact-colors":
        if a.colors != b.colors:
            return IsoResult(False)
        cmaps: Iterable[dict[int, int] | None] = (None,)
    elif mode == "up-to-color-permutation":
        if len(a.colors) != len(b.colors):
            return IsoResult(False)
        must_fix_zero = bool(a.legs) or bool(b.legs)
        if must_fix_zero and (0 not in a.colors or 0 not in b.colors):
            return IsoResult(False)
        cmaps = (dict(zip(a.colors, p)) for p in itertools.permutations(b.colors))
        if must_fix_zero:
            cmaps = (cmap for cmap in cmaps if cmap[0] == 0)
    else:
        raise GraphError(f"unknown isomorphism mode {mode!r}")
    if len(a) != len(b) or len(a.edges) != len(b.edges) or len(a.legs) != len(b.legs):
        return IsoResult(False)
    certs_b = _component_certs(b)
    codes_b = sorted(code for code, _ in certs_b)
    for cmap in cmaps:
        read = None
        if cmap is not None:
            inverse = {c: s for s, c in cmap.items()}
            read = [inverse[c] for c in b.colors]
        certs_a = _component_certs(a, read)
        if sorted(code for code, _ in certs_a) != codes_b:
            continue
        by_code: dict[tuple, list[dict[str, int]]] = {}
        for code, order in certs_b:
            by_code.setdefault(code, []).append(order)
        witness: dict[str, str] = {}
        for code, order_a in certs_a:
            inv_b = {i: v for v, i in by_code[code].pop().items()}
            for v, i in order_a.items():
                witness[v] = inv_b[i]
        return IsoResult(True, witness, cmap)
    return IsoResult(False)


# -- DOT export ---------------------------------------------------------------

_DOT_PALETTE = (
    "gray40",
    "red",
    "blue",
    "forestgreen",
    "orange",
    "purple",
    "brown",
    "cadetblue",
)


def export_dot(g: ColoredGraph) -> str:
    """Deterministic Graphviz DOT rendering.

    Vertex parity is shown as node fill (white/black), the edge color index
    as an edge label plus a drawing color, and each leg as a dashed edge to
    an auto-named point-shaped outer node.
    """
    lines = ["graph coloredgraph {", "  node [shape=circle];"]
    for v, p in sorted(g.vertices.items()):
        if p == WHITE:
            style = 'style=filled, fillcolor=white'
        else:
            style = 'style=filled, fillcolor=black, fontcolor=white'
        lines.append(f'  "{v}" [{style}];')
    for _, e in sorted(g.edges.items()):
        tint = _DOT_PALETTE[e.color % len(_DOT_PALETTE)]
        lines.append(
            f'  "{e.white}" -- "{e.black}" [label="{e.color}", color="{tint}", '
            f'tooltip="{e.label}"];'
        )
    for _, l in sorted(g.legs.items()):
        outer = f"out_{l.label}"
        lines.append(f'  "{outer}" [shape=point, label=""];')
        lines.append(
            f'  "{l.vertex}" -- "{outer}" [label="0", style=dashed, tooltip="{l.label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
