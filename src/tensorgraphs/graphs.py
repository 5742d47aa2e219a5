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
import operator
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple, NoReturn

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
    :meth:`leg_at`, and the walk slot (one set of neighbour arrays, and per
    color subset built so far a label array giving each vertex the index of
    its bubble, and each bubble's smallest vertex).  Only bubble
    walks fill the slot: :func:`bubbles`, homology, jackets, the ribbon of
    a colored graph and ``report``'s 2-bubble counts.  Certificates,
    isomorphism, components and model vertices build their own arrays and
    leave it empty.  The color set is explicit: regular graphs read
    from files use contiguous colors (``1..D`` or ``0..D``), but
    intermediate values such as color-deleted subgraphs may live on an
    arbitrary subset.

    The constructor is the one acceptance check for graphs from outside
    the package, :func:`parse` included: it checks whole columns of its
    parts and, when they fail, walks them item by item to raise a
    :class:`GraphError` naming the first offender.  Operations in this
    package whose result is valid whenever their input graphs are build it
    unchecked, through :meth:`_trusted`.  Either way the slot index waits
    for its first read.
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
        if type(vertices) is not list and not isinstance(vertices, Mapping):
            vertices = list(vertices)
        if type(edges) is not list:
            edges = list(edges)
        if type(legs) is not list:
            legs = list(legs)
        edge_records = _records(Edge, edges)
        leg_records = _records(Leg, legs) if legs else legs
        try:
            parts = _column_checked(colors, vertices, edge_records, leg_records)
        except (TypeError, ValueError):  # an unhashable, wrong-length or unread item
            parts = None
        if parts is None:
            _raise_first_fault(colors, vertices, (edges, edge_records), (legs, leg_records))
        self._colors, (self._parity, self._edges, self._legs) = colors, parts
        self._slots = self._walks = None

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
        must be fresh; the graph keeps them, as the checking constructor
        keeps the dicts it builds.
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
    """The color set as a sorted tuple of ints; a color that is no integer,
    a negative one or a duplicate raises."""
    try:
        colors = tuple(sorted(map(operator.index, colors)))
    except TypeError:
        raise GraphError("colors must be non-negative integers") from None
    if len(set(colors)) != len(colors):
        raise GraphError("duplicate colors in color set")
    if colors and colors[0] < 0:
        raise GraphError("colors must be non-negative integers")
    return colors


def _records(cls: type, items: list) -> list:
    """`items` as records of `cls`, each item read once, so an item given as
    a one-shot iterator is still whole when the fault walk reads it.  The
    lengths are not checked.  An item that is not iterable ends the list
    with None, after the records made before it (``list.extend`` keeps
    them), and no column check gets past that None."""
    if all(map(isinstance, items, itertools.repeat(cls))):
        return items
    records: list = []
    try:
        records.extend(map(tuple.__new__, itertools.repeat(cls), items))
    except TypeError:
        records.append(None)
    return records


def _column_checked(
    colors: tuple[int, ...], vertices: Mapping | list, edges: list[Edge], legs: list[Leg]
) -> tuple[dict[str, str], dict[str, Edge], dict[str, Leg]] | None:
    """The parity, edge and leg dicts of a graph on these parts, or None when
    an item is at fault; an unhashable or wrong-length item raises TypeError
    or ValueError.  Every check is a set, ``zip`` or ``map`` pass over whole
    columns, so none can say which item is at fault."""
    parity = dict(vertices)
    if len(parity) != len(vertices) or not {WHITE, BLACK}.issuperset(parity.values()):
        return None
    labels, cs, ws, bs = zip(*edges, strict=True) if edges else ((), (), (), ())
    edge_map = dict(zip(labels, edges))
    n = len(edges)
    white_slots, black_slots = set(zip(ws, cs)), set(zip(bs, cs))
    if (
        len(edge_map) != n
        or not set(cs) <= set(colors)
        or list(map(parity.get, ws)).count(WHITE) != n
        or list(map(parity.get, bs)).count(BLACK) != n
        or len(white_slots) != n
        or len(black_slots) != n
    ):
        return None
    leg_map = {}
    if legs:
        leg_labels, at = zip(*legs, strict=True)
        leg_map = dict(zip(leg_labels, legs))
        zero_slots = set(zip(at, itertools.repeat(0)))
        if (
            0 not in colors
            or len(leg_map) != len(legs)
            or len(zero_slots) != len(legs)
            or not parity.keys() >= set(at)
            or not zero_slots.isdisjoint(white_slots)
            or not zero_slots.isdisjoint(black_slots)
        ):
            return None
    return parity, edge_map, leg_map


def _raise_first_fault(
    colors: tuple[int, ...],
    vertices: Mapping | list,
    edges: tuple[list, list],
    legs: tuple[list, list],
) -> NoReturn:
    """Raise the :class:`GraphError` naming the first offender in parts that
    :func:`_column_checked` rejected, walking the vertices, then the edges,
    then the legs, item by item.  Edges and legs come as the items and
    their :func:`_records`: the walk reads the records and names the items
    (a record that is None or of the wrong length is a malformed item).
    A vertex that is no pair raises what unpacking it raises."""
    parity, edge_map, leg_map, slots = {}, {}, {}, {}
    at = None, None, ()  # kind, label and vertices of the item being checked
    try:
        for label, p in vertices.items() if isinstance(vertices, Mapping) else vertices:
            at = "vertex", label, ()
            if label in parity:
                raise GraphError(f"duplicate vertex label {label!r}")
            if p not in (WHITE, BLACK):
                raise GraphError(f"vertex {label!r}: parity must be 'w' or 'b'")
            parity[label] = p
        for item, e in itertools.zip_longest(*edges):
            if e is None or len(e) != 4:
                raise GraphError(f"edge {item!r}: expected (label, color, white, black)")
            label, c, w, b = e
            at = "edge", label, (w, b)
            if label in edge_map:
                raise GraphError(f"duplicate edge label {label!r}")
            if c not in colors:  # a tuple test: an unhashable color gets this message
                raise GraphError(f"edge {label!r}: color {c!r} outside color set {colors}")
            for end, want in ((w, WHITE), (b, BLACK)):
                if end not in parity:
                    raise GraphError(f"edge {label!r}: unknown vertex {end!r}")
                if parity[end] != want:
                    raise GraphError(f"edge {label!r}: vertex {end!r} is not {want!r}")
            for end in (w, b):
                if (end, c) in slots:
                    raise GraphError(
                        f"duplicate color at vertex: color {c} at {end!r} "
                        f"(edges {slots[end, c].label!r} and {label!r})"
                    )
                slots[end, c] = e
            edge_map[label] = e
        for item, l in itertools.zip_longest(*legs):
            if l is None or len(l) != 2:
                raise GraphError(f"leg {item!r}: expected (label, vertex)")
            label, v = l
            at = "leg", label, (v,)
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
    except TypeError:  # from hashing the label or a vertex of the item at hand
        kind, label, ends = at
        for value in (label, *ends):
            try:
                hash(value)
            except TypeError:
                what = "label" if value is label else f"vertex {value!r}"
                raise GraphError(f"{kind} {label!r}: {what} is not hashable") from None
        raise
    raise AssertionError("the column check rejected parts the item walk accepts")


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
    new = tuple.__new__
    # int() also reads signs, underscores and non-ASCII digits: only a text
    # that holds one of them has its numbers checked
    number = int
    if not text.isascii() or "+" in text or "-" in text or "_" in text:
        number = _ascii_int
    lines = text.splitlines()
    if "#" in text:  # one scan, so a file without comments splits each line once
        lines = [raw.split("#", 1)[0] for raw in lines]

    # One handler for the whole loop, so an edge or vertex line pays nothing
    # for it: a ValueError comes from number() or is a GraphError.
    try:
        for lineno, raw in enumerate(lines, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            kind = tokens[0]
            if kind == "e" and len(tokens) == 5 and colors is not None:
                edges.append(new(Edge, (tokens[1], number(tokens[2]), tokens[3], tokens[4])))
                continue
            if kind == "v" and len(tokens) == 3 and colors is not None:
                vertices.append((tokens[1], tokens[2]))
                continue
            args = tokens[1:]
            if kind == "colors":
                if colors is not None:
                    raise GraphError("second 'colors' header")
                if len(args) != 2 or args[1] not in ("closed", "open"):
                    raise GraphError("expected: colors <D> <closed|open>")
                d = number(args[0])
                if d < 1:
                    raise GraphError("D must be >= 1")
                if d > MAX_D:
                    raise GraphError(f"D must be <= {MAX_D}")
                colors = tuple(range(1, d + 1)) if args[1] == "closed" else tuple(range(d + 1))
            elif kind not in ("v", "e", "leg"):
                raise GraphError(f"unknown directive {kind!r}")
            elif colors is None:
                raise GraphError("'colors' header must come first")
            elif kind == "v":
                raise GraphError("expected: v <label> <w|b>")
            elif kind == "e":
                raise GraphError("expected: e <label> <color> <white> <black>")
            elif len(args) != 2:
                raise GraphError("expected: leg <label> <inner-vertex>")
            else:
                legs.append(Leg(args[0], args[1]))
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


def _ascii_int(token: str) -> int:
    """``int(token)``, refused unless the token is ASCII decimal digits."""
    value = int(token)
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"expected ASCII decimal digits: {token!r}")
    return value


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
    _check_labels(g)
    parity, edges, legs = g._parity, g._edges, g._legs
    lines = [header]
    lines += [f"v {v} {parity[v]}" for v in sorted(parity)]
    lines += ["e %s %s %s %s" % edges[e] for e in sorted(edges)]
    lines += ["leg %s %s" % legs[l] for l in sorted(legs)]
    return "\n".join(lines) + "\n"


def _check_labels(g: ColoredGraph) -> None:
    """Raise a :class:`GraphError` naming the first vertex, edge or leg label
    that does not sort with the others of its kind, or that :func:`parse`
    could not read back because it is not one token free of ``#``.

    String labels are cleared by one scan of their concatenation; only a
    graph that fails it, or has other labels, is looked at label by label.
    """
    parity, edges, legs = g._parity, g._edges, g._legs
    try:
        joined = "".join([*parity, *edges, *legs])
    except TypeError:  # a label that is no string
        pass
    else:
        empty = "" in parity or "" in edges or "" in legs
        if not empty and joined.split() == [joined] and "#" not in joined:
            return
    for kind, labels in (("vertex", parity), ("edge", edges), ("leg", legs)):
        try:
            sorted(labels)
        except TypeError:
            first = next(iter(labels))
            bad = next((x for x in labels if type(x) is not type(first)), first)
            raise GraphError(
                f"{kind} label {bad!r} does not sort with the other {kind} labels; "
                "cannot serialize"
            ) from None
        for label in labels:
            text = str(label)
            if text.split() != [text] or "#" in text:
                raise GraphError(
                    f"{kind} label {label!r} is not one token free of '#'; cannot serialize"
                )


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
    """``(labels, nbrs, walked)``, kept on g from the first call: the
    :func:`_slot_arrays` of all colors and the :func:`_subset_labels` of
    each color subset built so far."""
    if g._walks is None:
        g._walks = (*_slot_arrays(g, g._colors), {})
    return g._walks


def _subset_labels(g: ColoredGraph, csub: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The bubbles over a sorted, nonempty subset S of g's colors as
    ``(lab, reps)``: ``lab[v]`` indexes the bubble holding vertex v (-1 when
    v has no edge of S), ``reps[i]`` is the smallest vertex of bubble i, and
    bubbles come in that order.  Built once per graph and shared.

    One or two colors are walked (:func:`_face_labels`).  More merge the
    bubbles of S - {c}, for the last c whose S - {c} is built, along the
    c-edges (:func:`_merged_labels`); with none built, S's bubbles are the
    :func:`_orbits` of its arrays that hold an edge.
    """
    labels, nbrs, walked = _walk_state(g)
    found = walked.get(csub)
    if found is None:
        n, maps = len(labels), [nbrs[g._colors.index(c)] for c in csub]
        if len(csub) <= 2:
            found = _face_labels(n, maps[0], maps[-1])
        else:
            for q in reversed(range(len(csub))):
                base = walked.get(csub[:q] + csub[q + 1 :])
                if base is not None:
                    found = _merged_labels(n, *base, [maps[q]])
                    break
            else:  # one BFS; a vertex with no edge in S is an orbit of one
                lab, reps = [-1] * n, []
                for orbit in _orbits(n, maps):
                    if len(orbit) > 1:
                        for v in orbit:
                            lab[v] = len(reps)
                        reps.append(orbit[0])
                found = lab, reps
        walked[csub] = found
    return found


def _face_labels(n: int, ma: Sequence[int], mb: Sequence[int]) -> tuple[list[int], list[int]]:
    """The ``(lab, reps)`` of the bubbles of two neighbour arrays: cycles or
    paths of alternating edges, each walked from its smallest vertex v along
    ma first, and a path's other half from v along mb.  With ``ma is mb``
    each edge is a cycle of two steps."""
    lab, reps = [-1] * n, []
    for v in range(n):
        if lab[v] >= 0 or (ma[v] < 0 and mb[v] < 0):
            continue
        i = lab[v] = len(reps)
        reps.append(v)
        u = v
        while (u := ma[u]) >= 0:
            lab[u] = i
            if (u := mb[u]) < 0 or u == v:
                break
            lab[u] = i
        if u < 0:
            u = v
            while (u := mb[u]) >= 0:
                lab[u] = i
                if (u := ma[u]) < 0:
                    break
                lab[u] = i
    return lab, reps


def _merged_labels(
    n: int, lab: list[int], reps: list[int], maps: Sequence[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """The ``(lab, reps)`` of the bubbles ``(lab, reps)`` joined along the
    edges of `maps`, by union-find with the smaller bubble as root; a vertex
    with edges in `maps` only is first made a bubble of its own."""
    loose = -1 in lab and [v for v in range(n) if lab[v] < 0 and any(m[v] >= 0 for m in maps)]
    if loose:
        ids = sorted(reps + loose)
        index = dict(zip(ids, range(len(ids))))
        lab = [index[reps[i]] if i >= 0 else index.get(v, -1) for v, i in enumerate(lab)]
        reps = ids
    parent = list(range(len(reps)))
    for m in maps:
        for v, u in enumerate(m):
            if u > v and (x := lab[v]) != (y := lab[u]):
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
    new, roots = [], []
    for i, r in enumerate(parent):  # a root, or r < i with new[r] its class's id
        if r == i:
            new.append(len(roots))
            roots.append(reps[i])
        else:
            new.append(new[r])
    new.append(-1)  # lab's -1 stays -1
    return list(map(new.__getitem__, lab)), roots


def _euler_counts(g: ColoredGraph) -> tuple[list[int], dict[tuple[int, int], list[int]]]:
    """V - E of each component of a regular closed graph g on k >= 1
    colors, (2 - k) V / 2, and per pair of g's colors its number of
    2-bubbles in each component.

    Components are the all-color bubbles of the walk slot, in the order of
    their smallest vertex.
    """
    comp_of, comps = _subset_labels(g, g._colors)
    sizes = [0] * len(comps)
    for i in comp_of:
        sizes[i] += 1
    faces = {}
    for pair in itertools.combinations(g._colors, 2):
        counts = faces[pair] = [0] * len(comps)
        for v in _subset_labels(g, pair)[1]:
            counts[comp_of[v]] += 1
    return [(2 - len(g._colors)) * size // 2 for size in sizes], faces


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
    color subset is built once per graph as a label array (see
    :func:`_subset_labels`); its bubbles are built on each call, the
    members by one pass over the labels and the edge labels read from g's
    slot index at the members.
    """
    csub = tuple(sorted(set(colors)))
    for c in csub:
        if c not in g.colors:
            raise GraphError(f"color {c} outside color set {g.colors}")
    if not csub:
        return [Bubble((), (v,), ()) for v in sorted(g.vertices)]
    labels, slot = _walk_state(g)[0], _slot_index(g).get
    lab, reps = _subset_labels(g, csub)
    lists: list[list[str]] = [[] for _ in reps]
    for v, i in enumerate(lab):  # in vertex order, so each list is sorted
        if i >= 0:
            lists[i].append(labels[v])
    found = []
    for members in map(tuple, lists):
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
    """Rename vertices/edges/legs; missing keys keep their labels.

    The renamed parts go to the checking constructor, vertices as a list of
    pairs, so a map that sends two vertices, edges or legs to one label
    raises a :class:`GraphError` naming the duplicate.
    """
    vm = vertex_map or {}
    em = edge_map or {}
    lm = leg_map or {}
    return ColoredGraph(
        g.colors,
        [(vm.get(v, v), p) for v, p in g._parity.items()],
        [
            Edge(em.get(e.label, e.label), e.color, vm.get(e.white, e.white), vm.get(e.black, e.black))
            for e in g.edges.values()
        ],
        [Leg(lm.get(l.label, l.label), vm.get(l.vertex, l.vertex)) for l in g.legs.values()],
    )


def _fresh(label: str, taken: Container[str]) -> str:
    while label in taken:
        label += "'"
    return label


def _splice(
    blocks: Sequence[tuple[ColoredGraph, str]],
    links: Sequence[tuple[str, str]] = (),
    opens: Sequence[str] = (),
) -> ColoredGraph:
    """The one assembly of a graph from blocks (graph, label prefix), each
    prefixed as its records are copied.  They share one color set, their
    prefixed labels are disjoint, and links and opens name prefixed edges.

    Link ``links[k - 1] = (e, f)``, if any, joins edge e of an earlier block
    to edge f of block k as :func:`~tensorgraphs.surgery.connected_sum`
    does; each edge in `opens`, cut by no link, becomes two legs as in
    :func:`~tensorgraphs.surgery.open_edge`.  The result equals the union
    of the prefixed blocks, then those sums, then those openings, insertion
    order included: block k's uncut edges, then the two new edges of link
    k - 1; the blocks' legs, then the opened ones.
    """
    new = tuple.__new__
    cut = {label for link in links for label in link}
    cut.update(opens)
    gone: dict[str, Edge] = {}
    parity: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    legs: dict[str, Leg] = {}
    for k, (block, pre) in enumerate(blocks):
        if not pre:
            parity.update(block._parity)
            edges.update(block._edges)
            legs.update(block._legs)
            for label in cut.intersection(block._edges):
                gone[label] = edges.pop(label)
        else:
            parity.update(zip([pre + v for v in block._parity], block._parity.values()))
            for label, c, w, b in block._edges.values():
                label = pre + label
                x = new(Edge, (label, c, pre + w, pre + b))
                if label in cut:
                    gone[label] = x
                else:
                    edges[label] = x
            legs.update([(pre + x, new(Leg, (pre + x, pre + v))) for x, v in block._legs.values()])
        if k and links:
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
    return ColoredGraph._trusted(blocks[0][0]._colors, parity, edges, legs)


def add_prefix(g: ColoredGraph, prefix: str) -> ColoredGraph:
    """Prefix every vertex, edge and leg label: a one-block :func:`_splice`."""
    return _splice(((g, prefix),))


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


def _namespace_pair(a: ColoredGraph, b: ColoredGraph) -> tuple[str, str]:
    """The label prefixes for a union of a and b: ``l.``/``r.`` if any of
    their vertex, edge or leg labels collide, else none."""
    apart = a._parity.keys().isdisjoint(b._parity) and a._edges.keys().isdisjoint(b._edges)
    return ("", "") if apart and a._legs.keys().isdisjoint(b._legs) else ("l.", "r.")


def disjoint_union(a: ColoredGraph, b: ColoredGraph) -> ColoredGraph:
    """Disjoint union of two graphs on the same color set, a two-block
    :func:`_splice`; if any labels collide, both sides are namespaced."""
    if a.colors != b.colors:
        raise GraphError(f"color sets differ: {a.colors} vs {b.colors}")
    pa, pb = _namespace_pair(a, b)
    return _splice(((a, pa), (b, pb)))


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
# An isomorphism test minimizes only one side.  The other side is matched
# against those codes: a root is abandoned at its first row that differs
# from the target code, and a component stops at the first root that
# completes it.  That root is the earliest one reaching the smallest code,
# the one minimizing would pick, so orders and witnesses are the same.  A
# component whose size several distinct target codes share is minimized
# instead and looked up, which keeps a union of many small components
# linear.
#
# The read order is the graph's color set unless given: reading `a` in the
# order [cmap^-1(c) for c in b.colors] yields the encodings of
# recolor(a, cmap) without building that graph, which is how the
# up-to-color-permutation test tries each color bijection against `b`.  A
# bijection must first send the number of bubbles over each pair of colors
# (the edges of one color for a pair of equal ones) to that number over the
# image pair; only the bijections that do are scanned.


def _iso_arrays(
    g: ColoredGraph, colors: Iterable[int] | None = None
) -> tuple[list[str], list[int], list[list[int]], list[list[int]]]:
    """The sorted vertex labels, their parities (0 for white), the
    :func:`_slot_arrays` neighbour arrays read in `colors` order (default
    ``g.colors``, else a subset of them) and the components, as the
    :func:`_orbits` of those arrays.  Built for this call: the walk slot is
    neither read nor filled."""
    labels, nbrs = _slot_arrays(g, g._colors if colors is None else tuple(colors))
    parity = [0 if g._parity[v] == WHITE else 1 for v in labels]
    return labels, parity, nbrs, _orbits(len(labels), nbrs)


def _bfs_codes(
    parity: Sequence[int],
    nbrs: Sequence[Sequence[int]],
    comps: Sequence[list[int]],
    pool: Mapping[int, dict[tuple, None]] | None = None,
) -> list[tuple[tuple[tuple[int, ...], ...], list[int], list[int]]] | None:
    """Per component, (code, BFS order, tied roots): the one BFS kernel.

    The BFS order lists the component's vertices, the vertex of code index
    k at position k.  Without `pool` the code is the canonical one and the
    tied roots, in increasing order from ``order[0]``, are the images of
    that best root under the component's automorphisms.  With `pool`, which
    maps a component size to the distinct target codes of that size, a
    component whose size has one target is matched against it: the code is
    that target object, and the one tied root is ``order[0]``.  With
    several, it is minimized and looked up.  None when some component's
    code is no target.
    """
    pos = [-1] * len(parity)  # BFS index of each vertex queued from the current root
    out = []
    for comp in comps:
        roots = [v for v in comp if not parity[v]] or comp
        best = target = None
        if pool is not None:
            same = pool.get(len(comp))
            if not same:
                return None
            if len(same) == 1:
                best = target = next(iter(same))
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
                    if row != rival:
                        if target is not None:
                            break
                        smaller = True
                rows.append(row)
            else:
                if smaller:
                    best, best_queue, ties = tuple(rows), queue, [root]
                elif ties:
                    ties.append(root)
                else:  # the first root to reach the target
                    best_queue, ties = queue, [root]
            for v in queue:
                pos[v] = -1
            if target is not None and ties:
                break
        if target is not None:
            if not ties:
                return None
        elif pool is not None and best not in same:
            return None
        out.append((best, best_queue, ties))
    return out


def _component_certs(
    g: ColoredGraph, colors: Iterable[int] | None = None
) -> tuple[list[str], list[tuple[tuple[tuple[int, ...], ...], list[int], list[int]]]]:
    """The sorted vertex labels and the canonical :func:`_bfs_codes` of g's
    components, read in `colors` order (default ``g.colors``, else a subset
    of them), in the order of their smallest vertex label.  The BFS orders
    and tied roots index into the labels.  The arrays are built for this
    call, so the result does not depend on what was walked before."""
    labels, parity, nbrs, comps = _iso_arrays(g, colors)
    return labels, _bfs_codes(parity, nbrs, comps)


def _code_pool(codes: Iterable[tuple]) -> dict[int, dict[tuple, None]]:
    """The distinct codes by component size (rows), the `pool` of
    :func:`_bfs_codes`."""
    pool: dict[int, dict[tuple, None]] = {}
    for code in codes:
        pool.setdefault(len(code), {})[code] = None
    return pool


def canonical_certificate(g: ColoredGraph) -> tuple:
    """A hashable value equal for exactly the (exact-colors) isomorphic graphs.

    Suitable as a deduplication key, e.g. when enumerating Wick contractions.
    """
    _, certs = _component_certs(g)
    return (g.colors, tuple(sorted(code for code, _, _ in certs)))


def _has_certificate(g: ColoredGraph, cert: tuple) -> bool:
    """Whether ``canonical_certificate(g) == cert``, with g's components
    matched against the codes of `cert` rather than minimized."""
    colors, codes = cert
    if g._colors != colors:
        return False
    _, parity, nbrs, comps = _iso_arrays(g)
    found = _bfs_codes(parity, nbrs, comps, _code_pool(codes))
    return found is not None and tuple(sorted(code for code, _, _ in found)) == codes


def _bubble_counts(nbrs: Sequence[Sequence[int]]) -> list[list[int]]:
    """``counts[i][j]``: the number of bubbles over the colors of arrays i
    and j, by :func:`_face_labels`; the edges of color i when i == j."""
    n = len(nbrs[0]) if nbrs else 0
    counts = [[0] * len(nbrs) for _ in nbrs]
    for i, mi in enumerate(nbrs):
        for j in range(i, len(nbrs)):
            counts[i][j] = counts[j][i] = len(_face_labels(n, mi, nbrs[j])[1])
    return counts


def _color_bijections(
    counts_a: Sequence[Sequence[int]], counts_b: Sequence[Sequence[int]], pin_first: bool
) -> Iterator[tuple[int, ...]]:
    """The permutations p of ``range(k)``, in ``itertools.permutations``
    order, with ``counts_a[i][j] == counts_b[p[i]][p[j]]`` for all i and j
    and, when `pin_first`, with ``p[0] == 0``: backtracking position by
    position, each candidate tested against the positions before it."""
    k = len(counts_a)
    perm: list[int] = []
    free = [True] * k

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield tuple(perm)
            return
        row = counts_a[i]
        for j in range(k):
            if not free[j] or (pin_first and (i == 0) != (j == 0)):
                continue
            perm.append(j)
            image = counts_b[j]
            if all(row[h] == image[x] for h, x in enumerate(perm)):
                free[j] = False
                yield from extend(i + 1)
                free[j] = True
            perm.pop()

    return extend(0)


# Most colors the up-to-color-permutation test accepts: with the bubble
# counts pruning nothing, it tries all k! color bijections, 40 320 at 8
# colors (the jackets' limit too).
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
    most 8 colors.  b is minimized once and a matched against its codes.
    """
    if mode == "exact-colors":
        if a.colors != b.colors:
            return IsoResult(False)
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
    else:
        raise GraphError(f"unknown isomorphism mode {mode!r}")
    if len(a) != len(b) or len(a.edges) != len(b.edges) or len(a.legs) != len(b.legs):
        return IsoResult(False)
    labels_a, parity_a, nbrs_a, comps_a = _iso_arrays(a)
    labels_b, parity_b, nbrs_b, comps_b = _iso_arrays(b)
    if mode == "exact-colors":
        perms: Iterable[tuple[int, ...] | None] = (None,)
    else:
        perms = _color_bijections(_bubble_counts(nbrs_a), _bubble_counts(nbrs_b), must_fix_zero)
    certs_b = pool = None
    for perm in perms:
        read, cmap = nbrs_a, None
        if perm is not None:
            read = list(nbrs_a)
            for i, j in enumerate(perm):
                read[j] = nbrs_a[i]
            cmap = {c: b.colors[j] for c, j in zip(a.colors, perm)}
        if certs_b is None:  # b is minimized at the first bijection tried, if any
            certs_b = _bfs_codes(parity_b, nbrs_b, comps_b)
            pool = _code_pool(code for code, _, _ in certs_b)
        certs_a = _bfs_codes(parity_a, read, comps_a, pool)
        if certs_a is None:
            continue
        by_code: dict[tuple, list[list[int]]] = {}
        for code, order, _ in certs_b:
            by_code.setdefault(code, []).append(order)
        witness: dict[str, str] = {}
        for code, order_a, _ in certs_a:
            orders = by_code[code]
            if not orders:  # more components of this code in a than in b
                break
            for u, v in zip(order_a, orders.pop()):
                witness[labels_a[u]] = labels_b[v]
        else:
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
