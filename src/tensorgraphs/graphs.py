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

The header's ``D`` is at most :data:`MAX_D`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple

WHITE = "w"
BLACK = "b"

# Largest D a ``colors`` header may declare.  The color tuple is built
# eagerly, so without a cap a one-line file could ask for gigabytes; 32 is
# far past any graph whose homology (one bubble walk per color subset) can
# be computed.
MAX_D = 32

__all__ = [
    "WHITE",
    "BLACK",
    "MAX_D",
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


class Edge(NamedTuple):
    """A colored edge, oriented from its white end to its black end.

    An immutable named tuple: it equals the plain tuple of its fields.
    """

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


class Leg(NamedTuple):
    """A color-0 half-edge at an inner vertex.

    An immutable named tuple, like :class:`Edge`.  The valence-1 outer
    vertex at the far end is implicit; it is reconstructed on demand (e.g.
    by DOT export and by boundary-graph tracing) rather than stored.
    """

    label: str
    vertex: str


class _Record:
    """Base of an immutable record that keeps private slots, which a named
    tuple cannot: ``_fields`` names its constructor's arguments, in order,
    which ``repr`` shows, equality and hashing read and copies are rebuilt
    from; ``__slots__`` holds them first, then the private ones."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._key()


class Bubble(NamedTuple):
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
    package returns a new graph.  A graph stores its colors, vertex
    parities, edges and legs; what derives from them is built when first
    read and kept: the :func:`_slot_index` of :meth:`edge_at` and
    :meth:`leg_at`, and the walk slot (one set of neighbour arrays, and the
    vertex-index orbits of each color subset walked so far).  Only bubble
    walks fill the slot: :func:`bubbles`, homology, jackets, the ribbon of
    a colored graph and ``report``'s 2-bubble counts.  Certificates,
    isomorphism, components and model vertices build their own arrays and
    leave it empty.  The color set is explicit: regular graphs read
    from files use contiguous colors (``1..D`` or ``0..D``), but
    intermediate values such as color-deleted subgraphs may live on an
    arbitrary subset.

    The constructor rejects malformed input with a :class:`GraphError`
    naming the first offender, and keeps the slot index it fills while it
    checks.  Operations in this package whose result is valid whenever
    their input graphs are build it unchecked, through :meth:`_trusted`.
    """

    __slots__ = ("_colors", "_parity", "_edges", "_legs", "_slots", "_walks")

    def __init__(
        self,
        colors: Iterable[int],
        vertices: Mapping[str, str] | Iterable[tuple[str, str]],
        edges: Iterable[Edge | tuple] = (),
        legs: Iterable[Leg | tuple] = (),
    ) -> None:
        colors = _checked_colors(colors)
        parity = _checked_parity(vertices)

        edge_map: dict[str, Edge] = {}
        slots: dict[tuple[str, int], Edge] = {}
        take = slots.setdefault
        e = None
        # One handler for the whole loop, so a valid item pays nothing for it:
        # a TypeError raised while the record e is checked comes from hashing
        # its label or an end (the color has a tuple test).
        try:
            for item in edges:
                if isinstance(item, Edge):
                    e = item
                else:
                    try:
                        e = Edge._make(item)
                    except TypeError:
                        raise GraphError(
                            f"edge {item!r}: expected (label, color, white, black)"
                        ) from None
                label, c, w, b = e
                if label in edge_map:
                    raise GraphError(f"duplicate edge label {label!r}")
                if c not in colors:  # a tuple test: an unhashable color gets this message
                    raise GraphError(f"edge {label!r}: color {c} outside color set {colors}")
                ends_fit = parity.get(w) == WHITE and parity.get(b) == BLACK
                if not ends_fit or take((w, c), e) is not e or take((b, c), e) is not e:
                    raise _edge_fault(e, parity, slots)
                edge_map[label] = e
        except TypeError:
            fault = e and _unhashable("edge", e.label, (e.white, e.black))
            if not fault:
                raise
            raise fault from None

        leg_map: dict[str, Leg] = {}
        l = None
        try:  # as for the edges
            for item in legs:
                if isinstance(item, Leg):
                    l = item
                else:
                    try:
                        l = Leg._make(item)
                    except TypeError:
                        raise GraphError(f"leg {item!r}: expected (label, vertex)") from None
                label, v = l
                if label in leg_map:
                    raise GraphError(f"duplicate leg label {label!r}")
                if 0 not in colors:
                    raise GraphError(f"leg {label!r}: color 0 not in color set")
                if v not in parity:
                    raise GraphError(f"leg {label!r}: unknown vertex {v!r}")
                if (v, 0) in slots:
                    raise GraphError(f"leg {label!r}: vertex {v!r} already has a color-0 edge")
                if (v, None) in slots:
                    raise GraphError(f"two legs at vertex {v!r}")
                slots[v, None] = l
                leg_map[label] = l
        except TypeError:
            fault = l and _unhashable("leg", l.label, (l.vertex,))
            if not fault:
                raise
            raise fault from None

        self._colors, self._parity, self._edges, self._legs = colors, parity, edge_map, leg_map
        self._slots, self._walks = slots, None

    @classmethod
    def _trusted(
        cls,
        colors: tuple[int, ...],
        parity: dict[str, str],
        edges: dict[str, Edge],
        legs: dict[str, Leg] | None = None,
    ) -> "ColoredGraph":
        """A graph from parts that already form one, built without checks.

        For the outputs of internal operations that are valid whenever
        their input graphs are: `colors` is a sorted tuple of distinct
        non-negative colors, every edge and leg is keyed by its label and
        fits `parity` and `colors`, and no slot is taken twice.  The dicts
        must be fresh; the graph keeps them and stores nothing else, so its
        slot index and walks are built when first read.
        """
        g = cls.__new__(cls)
        g._colors, g._parity, g._edges = colors, parity, edges
        g._legs = {} if legs is None else legs
        g._slots = g._walks = None
        return g

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
        return _slot_index(self).get((vertex, color))

    def leg_at(self, vertex: str) -> Leg | None:
        return _slot_index(self).get((vertex, None))

    def neighbor(self, vertex: str, color: int) -> str | None:
        e = _slot_index(self).get((vertex, color))
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


# -- construction checks ---------------------------------------------------


def _checked_colors(colors: Iterable[int]) -> tuple[int, ...]:
    """The color set as a sorted tuple; duplicates and negatives raise."""
    colors = tuple(sorted(colors))
    if len(set(colors)) != len(colors):
        raise GraphError("duplicate colors in color set")
    if any(c < 0 for c in colors):
        raise GraphError("colors must be non-negative integers")
    return colors


def _checked_parity(
    vertices: Mapping[str, str] | Iterable[tuple[str, str]],
) -> dict[str, str]:
    """A fresh vertex -> parity dict; a duplicate label or bad parity raises.

    A dict or mapping proxy cannot repeat a label, so it is copied whole and
    its parities counted; only a failed count walks it vertex by vertex.
    """
    if isinstance(vertices, (dict, MappingProxyType)):
        parity = dict(vertices)
        values = list(parity.values())
        if values.count(WHITE) + values.count(BLACK) == len(values):
            return parity
    if isinstance(vertices, Mapping):
        vertices = vertices.items()
    parity = {}
    label = None
    try:
        for label, p in vertices:
            if label in parity:
                raise GraphError(f"duplicate vertex label {label!r}")
            if p not in (WHITE, BLACK):
                raise GraphError(f"vertex {label!r}: parity must be 'w' or 'b'")
            parity[label] = p
    except TypeError:
        fault = _unhashable("vertex", label, ())
        if not fault:
            raise
        raise fault from None
    return parity


def _unhashable(kind: str, label, vertices: tuple) -> GraphError | None:
    """The error for an unhashable label, else for the first unhashable
    vertex, else None."""
    for value in (label, *vertices):
        try:
            hash(value)
        except TypeError:
            what = "label" if value is label else f"vertex {value!r}"
            return GraphError(f"{kind} {label!r}: {what} is not hashable")
    return None


def _edge_fault(e: Edge, parity: Mapping[str, str], slots: Mapping) -> GraphError:
    """The error for the first end of `e` that is unknown, of the wrong parity
    or, when both fit, holding another edge of its color."""
    for end, want in ((e.white, WHITE), (e.black, BLACK)):
        if end not in parity:
            return GraphError(f"edge {e.label!r}: unknown vertex {end!r}")
        if parity[end] != want:
            return GraphError(f"edge {e.label!r}: vertex {end!r} is not {want!r}")
    end = e.white if slots[e.white, e.color] is not e else e.black
    return GraphError(
        f"duplicate color at vertex: color {e.color} at {end!r} "
        f"(edges {slots[end, e.color].label!r} and {e.label!r})"
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
                if d > MAX_D:
                    raise GraphError(f"D must be <= {MAX_D}")
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
    color, with a leg standing in for the color-0 edge in open graphs.  No
    slot is taken twice, so that holds when the edges and legs fill as
    many slots as there are.  Otherwise the empty slots of
    :func:`_slot_arrays` are the missing colors; a leg fills color 0.
    """
    if 2 * len(g._edges) + len(g._legs) == len(g._parity) * len(g._colors):
        return []
    labels, nbrs = _slot_arrays(g, g._colors)
    return [
        f"vertex {v!r}: missing color {c}"
        for i, v in enumerate(labels)
        for c, nb in zip(g._colors, nbrs)
        if nb[i] == _EMPTY_SLOT
    ]


def _require_regular(g: ColoredGraph, what: str) -> None:
    """Raise :class:`GraphError` naming the first missing color unless every
    vertex of g carries every color (a leg for color 0), by the count
    :func:`validate` starts with; invariant readers call it at entry."""
    if 2 * len(g._edges) + len(g._legs) != len(g._parity) * len(g._colors):
        raise GraphError(f"{what}: {validate(g)[0]}")


# -- substructure ----------------------------------------------------------


def _slot_index(g: ColoredGraph) -> dict:
    """Each edge at its two ``(vertex, color)`` keys, then each leg at
    ``(vertex, None)``, kept on g from the first call.  No color is None,
    so a key with a color never finds a leg."""
    if g._slots is None:
        slots = {}
        for e in g._edges.values():
            _, c, w, b = e
            slots[w, c] = e
            slots[b, c] = e
        for l in g._legs.values():
            slots[l.vertex, None] = l
        g._slots = slots
    return g._slots


_EMPTY_SLOT = -1
_LEG_SLOT = -2


def _slot_arrays(
    g: ColoredGraph, read: Sequence[int]
) -> tuple[list[str], list[list[int]]]:
    """The sorted vertex labels and one neighbour array per color of `read`.

    ``nbrs[k][v]`` is the index (into the labels) of v's neighbour along
    color ``read[k]``, ``_LEG_SLOT`` for a leg and ``_EMPTY_SLOT`` for an
    empty slot.  Edges of colors outside `read` are left out.
    """
    labels = sorted(g._parity)
    index = dict(zip(labels, range(len(labels))))
    slot_of = {c: k for k, c in enumerate(read)}
    nbrs = [[_EMPTY_SLOT] * len(labels) for _ in read]
    for _, c, w, b in g._edges.values():
        k = slot_of.get(c)
        if k is not None:
            nb = nbrs[k]
            w, b = index[w], index[b]
            nb[w] = b
            nb[b] = w
    if 0 in slot_of:
        nb = nbrs[slot_of[0]]
        for _, v in g._legs.values():
            nb[index[v]] = _LEG_SLOT
    return labels, nbrs


def _orbits(n: int, maps: Sequence[Sequence[int]]) -> list[list[int]]:
    """The orbits of ``0..n-1`` under the integer maps.

    A negative entry has no image.  Images are only followed forwards,
    which reaches the whole orbit when every map is a permutation or when
    the maps are symmetric (u is an image of v iff v is one of u), as
    neighbour arrays are.  Each orbit is sorted, and orbits come in the
    order of their smallest member.

    >>> _orbits(5, [[1, 0, -1, 4, 3]])
    [[0, 1], [2], [3, 4]]
    >>> _orbits(4, [[2, 3, 1, 0]])
    [[0, 1, 2, 3]]
    """
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for v in orbit:
            for m in maps:
                u = m[v]
                if u >= 0 and not seen[u]:
                    seen[u] = True
                    orbit.append(u)
        orbit.sort()
        out.append(orbit)
    return out


def _walk_state(g: ColoredGraph) -> tuple:
    """``(labels, nbrs, orbits)``, kept on g from the first call: the
    :func:`_slot_arrays` of all colors and the :func:`_subset_orbits` of
    each color subset walked so far."""
    if g._walks is None:
        g._walks = (*_slot_arrays(g, g._colors), {})
    return g._walks


def _subset_orbits(g: ColoredGraph, csub: tuple[int, ...]) -> list[list[int]]:
    """The bubbles over a sorted, nonempty subset of g's colors, as sorted
    lists of vertex indices by smallest member; walked once per graph, and
    shared, so callers must not change them.

    Every edge joins two distinct vertices, so the singleton orbits are
    exactly the vertices without an edge of csub; they are left out.
    """
    labels, nbrs, walked = _walk_state(g)
    orbits = walked.get(csub)
    if orbits is None:
        maps = [nbrs[g._colors.index(c)] for c in csub]
        orbits = walked[csub] = [o for o in _orbits(len(labels), maps) if len(o) > 1]
    return orbits


def _euler_counts(g: ColoredGraph) -> tuple[list[int], dict[tuple[int, int], list[int]]]:
    """V - E of each component of a regular closed graph g on k >= 1
    colors, (2 - k) V / 2, and per pair of g's colors its number of
    2-bubbles in each component.

    Components are the all-color orbits of the walk slot, in the order of
    their smallest vertex.
    """
    comps = _subset_orbits(g, g._colors)
    comp_of = [0] * len(g._parity)
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    faces = {}
    for pair in itertools.combinations(g._colors, 2):
        counts = faces[pair] = [0] * len(comps)
        for orbit in _subset_orbits(g, pair):
            counts[comp_of[orbit[0]]] += 1
    return [(2 - len(g._colors)) * len(comp) // 2 for comp in comps], faces


def _degree_excess(k: int, n: int, comps: int, faces: int) -> int:
    """4 w / (k-2)! for the degree w of a regular closed graph on k >= 3
    colors with n vertices, ``comps`` components and ``faces`` 2-bubbles
    over all color pairs: C(k-1, 2) n + 2 (k-1) comps - 2 faces.  w sums
    nonnegative jacket genera, so this is 0 exactly when every component
    has degree 0 (see :mod:`tensorgraphs.jackets`); on an irregular graph,
    which its readers refuse first, it can be negative."""
    return (k - 1) * (k - 2) // 2 * n + 2 * (k - 1) * comps - 2 * faces


def bubbles(g: ColoredGraph, colors: Iterable[int]) -> list[Bubble]:
    """The connected components of the subgraph of edges with given colors.

    With ``colors = ()`` every vertex is its own 0-bubble.  Otherwise only
    vertices incident to at least one edge of the chosen colors take part.
    Results are sorted by (color subset, smallest member vertex).  Each
    color subset is walked once per graph (see :class:`ColoredGraph`); its
    bubbles are built on each call, with the edge labels read from g's
    slot index at the orbit's vertices.
    """
    csub = tuple(sorted(set(colors)))
    for c in csub:
        if c not in g.colors:
            raise GraphError(f"color {c} outside color set {g.colors}")
    if not csub:
        return [Bubble((), (v,), ()) for v in sorted(g.vertices)]
    labels, slot = _walk_state(g)[0], _slot_index(g).get
    found = []
    for orbit in _subset_orbits(g, csub):
        members = tuple(labels[v] for v in orbit)
        edges = sorted(
            e.label
            for v in members
            for c in csub
            if (e := slot((v, c))) is not None and e.white == v
        )
        found.append(Bubble(csub, members, tuple(edges)))
    return found


def connected_components(g: ColoredGraph) -> list[ColoredGraph]:
    """Split into maximal connected subgraphs (labels preserved).

    Legs stay with their inner vertex.  The empty graph has no components.
    Components are ordered by their smallest vertex label.
    """
    labels, nbrs = _slot_arrays(g, g.colors)
    orbits = _orbits(len(labels), nbrs)
    comp_of = {labels[v]: i for i, orbit in enumerate(orbits) for v in orbit}
    edges: list[dict[str, Edge]] = [{} for _ in orbits]
    for label, e in g._edges.items():
        edges[comp_of[e.white]][label] = e
    legs: list[dict[str, Leg]] = [{} for _ in orbits]
    for label, l in g._legs.items():
        legs[comp_of[l.vertex]][label] = l
    return [
        ColoredGraph._trusted(
            g._colors, {labels[v]: g._parity[labels[v]] for v in orbit}, es, ls
        )
        for orbit, es, ls in zip(orbits, edges, legs)
    ]


def amputate(g: ColoredGraph) -> ColoredGraph:
    """Strip all legs, keeping inner vertices and internal edges.

    The result is generally not color-regular at formerly-legged vertices.
    """
    if not g.legs:
        raise GraphError("amputate: graph is closed (no legs)")
    return ColoredGraph._trusted(g._colors, dict(g._parity), dict(g._edges))


def remove_color(g: ColoredGraph, c: int) -> ColoredGraph:
    """Delete every color-`c` edge and drop `c` from the color set.

    Removing color 0 also drops all legs (legs are color-0 half-edges).
    The result may live on a non-contiguous color set, in which case it
    cannot be serialized -- it is an in-memory value.
    """
    if c not in g.colors:
        raise GraphError(f"color {c} outside color set {g.colors}")
    return ColoredGraph._trusted(
        tuple(x for x in g._colors if x != c),
        dict(g._parity),
        {label: e for label, e in g._edges.items() if e.color != c},
        {} if c == 0 else dict(g._legs),
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
    edges = {}
    for label, e in g._edges.items():
        label = prefix + label
        edges[label] = Edge(label, e.color, prefix + e.white, prefix + e.black)
    legs = {}
    for label, l in g._legs.items():
        label = prefix + label
        legs[label] = Leg(label, prefix + l.vertex)
    return ColoredGraph._trusted(
        g._colors, {prefix + v: p for v, p in g._parity.items()}, edges, legs
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
    return ColoredGraph._trusted(
        _checked_colors(cmap.values()),
        dict(g._parity),
        {
            label: Edge(label, cmap[e.color], e.white, e.black)
            for label, e in g._edges.items()
        },
        dict(g._legs),
    )


def _namespace_pair(
    a: ColoredGraph, b: ColoredGraph
) -> tuple[ColoredGraph, ColoredGraph, str, str]:
    """Prefix both graphs' labels (``l.``/``r.``) if any collide; return the
    two graphs and the prefixes used."""
    if (
        set(a.vertices) & set(b.vertices)
        or set(a.edges) & set(b.edges)
        or set(a.legs) & set(b.legs)
    ):
        return add_prefix(a, "l."), add_prefix(b, "r."), "l.", "r."
    return a, b, "", ""


def disjoint_union(a: ColoredGraph, b: ColoredGraph) -> ColoredGraph:
    """Disjoint union of two graphs on the same color set.

    If any labels collide, both sides are namespaced (``l.``/``r.``).
    """
    if a.colors != b.colors:
        raise GraphError(f"color sets differ: {a.colors} vs {b.colors}")
    a, b, _, _ = _namespace_pair(a, b)
    return ColoredGraph._trusted(
        a._colors,
        {**a._parity, **b._parity},
        {**a._edges, **b._edges},
        {**a._legs, **b._legs},
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
# read order, or _LEG_SLOT / _EMPTY_SLOT.  The scan runs on the arrays of
# _slot_arrays, and the components are the _orbits of those arrays.
#
# The canonical certificate of a component is the lexicographically
# smallest encoding over all roots, the earliest root in label order
# winning ties.  Every encoding starts with its root's parity (0 for
# white), so a component with white vertices tries only those as roots.
# All encodings of a component have the same length, so a root is
# abandoned at its first row that is larger than the best encoding's row
# at the same index.  Two components are isomorphic (with colors fixed)
# iff their certificates are equal, and the certificate-minimizing BFS
# orders themselves provide a witness bijection.  The roots that tie the
# best encoding are the images of the best root under the automorphisms of
# the component, one root per automorphism, so their number is |Aut|.
#
# The read order is the graph's color set unless given: reading `a` in the
# order [cmap^-1(c) for c in b.colors] yields the encodings of
# recolor(a, cmap) without building that graph, which is how the
# up-to-color-permutation test tries each color bijection against `b`.


def _component_certs(
    g: ColoredGraph, colors: Iterable[int] | None = None
) -> tuple[list[str], list[tuple[tuple[tuple[int, ...], ...], list[int], list[int]]]]:
    """The sorted vertex labels and, per component, (canonical code, BFS
    order, tied roots).

    The BFS order lists the component's vertices as indices into the labels,
    the vertex of canonical index k at position k.  The tied roots, in
    increasing order from ``order[0]``, are the images of that best root
    under the component's automorphisms.  Slots are read in
    `colors` order (default ``g.colors``, else a subset of them); components
    come in the order of their smallest vertex label.  The arrays are built
    for this call: the walk slot is neither read nor filled, so the result
    does not depend on what was walked before.
    """
    labels, nbrs = _slot_arrays(g, g._colors if colors is None else tuple(colors))
    parity = [0 if g._parity[v] == WHITE else 1 for v in labels]
    pos = [-1] * len(labels)  # BFS index of each vertex queued from the current root

    out = []
    for comp in _orbits(len(labels), nbrs):
        roots = [v for v in comp if not parity[v]] or comp
        best: tuple | None = None
        best_queue: list[int] = []
        ties: list[int] = []
        for root in roots:
            pos[root] = 0
            queue = [root]
            rows = []
            smaller = best is None
            for v in queue:
                row = [parity[v]]
                for nb in nbrs:
                    u = nb[v]
                    if u >= 0:
                        j = pos[u]
                        if j < 0:
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
                    best, best_queue, ties = tuple(rows), queue, [root]
                else:
                    ties.append(root)
            for v in queue:
                pos[v] = -1
        out.append((best, best_queue, ties))
    return labels, out


def canonical_certificate(g: ColoredGraph) -> tuple:
    """A hashable value equal for exactly the (exact-colors) isomorphic graphs.

    Suitable as a deduplication key, e.g. when enumerating Wick contractions.
    """
    _, certs = _component_certs(g)
    return (g.colors, tuple(sorted(code for code, _, _ in certs)))


# Most colors the up-to-color-permutation test accepts: it may try all k!
# color bijections, 40 320 at 8 colors (the jackets' limit too).
_MAX_PERMUTED_COLORS = 8


class IsoResult(NamedTuple):
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
    ``b.colors``; the first that works is reported.  That mode accepts at
    most 8 colors.
    """
    if mode == "exact-colors":
        if a.colors != b.colors:
            return IsoResult(False)
        cmaps: Iterable[dict[int, int] | None] = (None,)
    elif mode == "up-to-color-permutation":
        if len(a.colors) != len(b.colors):
            return IsoResult(False)
        if len(a.colors) > _MAX_PERMUTED_COLORS:
            raise GraphError(
                f"{len(a.colors)} colors exceed the permutation cap ({_MAX_PERMUTED_COLORS})"
            )
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
    labels_b, certs_b = _component_certs(b)
    codes_b = sorted(code for code, _, _ in certs_b)
    for cmap in cmaps:
        read = None
        if cmap is not None:
            inverse = {c: s for s, c in cmap.items()}
            read = [inverse[c] for c in b.colors]
        labels_a, certs_a = _component_certs(a, read)
        if sorted(code for code, _, _ in certs_a) != codes_b:
            continue
        by_code: dict[tuple, list[list[int]]] = {}
        for code, order, _ in certs_b:
            by_code.setdefault(code, []).append(order)
        witness: dict[str, str] = {}
        for code, order_a, _ in certs_a:
            for u, v in zip(order_a, by_code[code].pop()):
                witness[labels_a[u]] = labels_b[v]
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
    an auto-named point-shaped outer node.  Node IDs and tooltips are
    quoted, with backslashes and quotes in labels escaped.
    """
    def q(s: str) -> str:  # s as a quoted DOT string
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph coloredgraph {", "  node [shape=circle];"]
    for v, p in sorted(g.vertices.items()):
        if p == WHITE:
            style = 'style=filled, fillcolor=white'
        else:
            style = 'style=filled, fillcolor=black, fontcolor=white'
        lines.append(f"  {q(v)} [{style}];")
    for _, e in sorted(g.edges.items()):
        tint = _DOT_PALETTE[e.color % len(_DOT_PALETTE)]
        lines.append(
            f'  {q(e.white)} -- {q(e.black)} [label="{e.color}", color="{tint}", '
            f"tooltip={q(e.label)}];"
        )
    for _, l in sorted(g.legs.items()):
        outer = q(f"out_{l.label}")
        lines.append(f'  {outer} [shape=point, label=""];')
        lines.append(
            f'  {q(l.vertex)} -- {outer} [label="0", style=dashed, tooltip={q(l.label)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
