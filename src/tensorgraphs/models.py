"""Tensor-model vertex sets, Feynman membership, and graph-family builders.

A rank-D model is specified by its finite set of interaction vertices: closed
D-colored graphs (:class:`ModelSpec`).  A (D+1)-colored graph is a Feynman
graph of the model iff, after amputating legs and deleting the propagator
color 0, every connected component is one of the interaction vertices
(:func:`is_member`).  Wick contraction of ``k`` vertices is enumerated as
perfect matchings of white against black vertices (:func:`enumerate_vacuum`)
and counted without building a graph (:func:`count_vacuum`): a combination
of w whites contracts in w! ways, and its classes up to isomorphism are
counted by Burnside's lemma over the automorphisms of its pieces.

The second half of the module builds the named graph families used
throughout the package: the quartic-matrix contractions R0/R1, the torus
block O and its sphere twin N, the genus-g chains Qg/Kg and their opened
bordism versions Qgbc, the canonical genus-g boundary templates Cg, the
filled graphs Tg with boundary Cg, separator-spliced chains L, and small
fixture graphs (dipoles, the necklace, a 2-point chain, abstract ribbon
examples).  O and the chains Qg, Kg, Qgbc and L are each one splice of
their blocks (``surgery._splice``), which equals the successive connected
sums and openings without copying the growing chain at every step.

Three constructions the literature leaves to figures are frozen here, no
longer searched for at run time: the Tg gadget wiring (written out in
:func:`build_tg`), O's four distinguished color-0 edges mu0, nu0, alpha0,
beta0 (``_O_EDGES``), and the central (1,2)-bubble whose colors N swaps
(``_N_BUBBLE``).  ``tests/test_models.py`` keeps the searches that found
them and checks that they still return the frozen answers.

The separator graphs P and M (also figure-only) are found by
:func:`find_separators`; the shipped builders take its answer straight from
the Wick contractions (the first of one and of two ``phi4-rank3`` vertices),
so that fixtures regenerate without re-searching.

:func:`build` caps every size parameter at :data:`MAX_FAMILY_PARAMETER`, and
:func:`builtin_model` caps the p of ``matrix-2p:<p>`` there too.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import (
    WHITE,
    ColoredGraph,
    Edge,
    GraphError,
    Leg,
    _component_certs,
    _orbits,
    _Record,
    _slot_arrays,
    add_prefix,
    canonical_certificate,
    relabel,
)
from .ribbon import RibbonStructure
from .surgery import _probe_setups, _separates, _splice, cone

__all__ = [
    "MAX_FAMILY_PARAMETER",
    "ModelSpec",
    "builtin_model",
    "MembershipReport",
    "is_member",
    "enumerate_vacuum",
    "count_vacuum",
    "centralizer_order",
    "build",
    "build_families",
    "build_dipole",
    "build_melon",
    "build_r0",
    "build_r1",
    "build_necklace",
    "build_twopoint",
    "build_cg",
    "build_tg",
    "build_o",
    "build_n",
    "build_qg",
    "build_kg",
    "build_qgbc",
    "build_l",
    "build_p",
    "build_m",
    "build_ribbon_w",
    "build_ribbon_q",
    "build_ribbon_r",
    "SeparatorResult",
    "default_probes",
    "find_separators",
    "separator_p",
    "separator_m",
]


# Largest size parameter build() accepts (genus, color count, B, C, each
# genus of l and their number), and largest p of matrix-2p:<p>.  Every
# family grows linearly in it: qg(64) has 1536 vertices and tg(64) 1032.
MAX_FAMILY_PARAMETER = 64


# -- model specifications ------------------------------------------------------


class ModelSpec(_Record):
    """Rank D plus the interaction vertices (closed D-colored graphs)."""

    _fields = ("name", "rank", "upsilon", "vertex_names")
    # _codes holds the canonical code of each vertex, read by is_member and
    # count_vacuum; _symmetries the white flags and automorphisms of each
    # vertex, as index maps over its sorted labels, read by count_vacuum:
    # the tied roots of its certificate.
    __slots__ = _fields + ("_codes", "_symmetries")

    def __init__(
        self,
        name: str,
        rank: int,
        upsilon: tuple[ColoredGraph, ...],
        vertex_names: tuple[str, ...],
    ) -> None:
        codes, symmetries = [], []
        for label, v in zip(vertex_names, upsilon):
            if v.colors != tuple(range(1, rank + 1)):  # no color 0: no legs
                raise GraphError(f"vertex {label}: colors {v.colors} != 1..{rank}")
            labels, nbrs = _slot_arrays(v, v.colors)
            _, certs = _component_certs(v)
            if len(certs) != 1:
                raise GraphError(f"vertex {label} is not connected")
            if 2 * len(v.whites()) != len(v):
                raise GraphError(f"vertex {label} has unequal white and black counts")
            code, order, ties = certs[0]
            autos = []
            for root in ties:
                # the automorphism taking order[0] to root, extended along
                # each color from the vertices already mapped
                image = [0] * len(labels)
                image[order[0]] = root
                for x in order:
                    for nb in nbrs:
                        if nb[x] >= 0:
                            image[nb[x]] = nb[image[x]]
                autos.append(tuple(image))
            codes.append(code)
            white = tuple(v._parity[x] == WHITE for x in labels)
            symmetries.append((white, tuple(autos)))
        self._set(name, rank, upsilon, vertex_names, tuple(codes), tuple(symmetries))


def _cycle_vertex(p: int) -> ColoredGraph:
    """The 2p-gonal matrix vertex: a 2p-cycle alternating colors 1, 2."""
    vertices = {}
    edges = []
    for i in range(1, p + 1):
        vertices[f"w{i}"] = "w"
        vertices[f"b{i}"] = "b"
        edges.append(Edge(f"s{i}", 1, f"w{i}", f"b{i}"))
        edges.append(Edge(f"t{i}", 2, f"w{i % p + 1}", f"b{i}"))
    return ColoredGraph((1, 2), vertices, edges)


def _rank3_vertex(i: int) -> ColoredGraph:
    """The quartic rank-3 vertex in which color i is transmitted.

    Colors j != i run in parallel (a-p, b-q); color i crosses (a-q, b-p).
    """
    edges = []
    for j in (1, 2, 3):
        x, y = ("q", "p") if j == i else ("p", "q")
        edges += [Edge(f"c{j}1", j, "a", x), Edge(f"c{j}2", j, "b", y)]
    return ColoredGraph((1, 2, 3), {"a": "w", "b": "w", "p": "b", "q": "b"}, edges)


def builtin_model(name: str) -> ModelSpec:
    """Look up a built-in model: ``phi4-matrix``, ``phi4-rank3``, ``matrix-2p:<p>``.

    Each model is built and checked once per process; ``matrix-2p:03`` and
    ``matrix-2p:3`` are the same model, named ``matrix-2p:3``.
    """
    if name in ("phi4-matrix", "phi4-rank3"):
        return _builtin_model(name, 0)
    if name.startswith("matrix-2p:"):
        try:
            p = int(name.split(":", 1)[1])
        except ValueError:
            raise GraphError(f"bad matrix-2p parameter in {name!r}") from None
        if p < 2:
            raise GraphError("matrix-2p requires p >= 2")
        if p > MAX_FAMILY_PARAMETER:
            raise GraphError(
                f"matrix-2p: p = {p} is above the family-parameter cap "
                f"({MAX_FAMILY_PARAMETER})"
            )
        return _builtin_model("matrix-2p", p)
    raise GraphError(f"unknown model {name!r}")


# At most 65 entries: the two phi4 models and matrix-2p for p = 2 .. 64.
@lru_cache(maxsize=None)
def _builtin_model(kind: str, p: int) -> ModelSpec:
    if kind == "phi4-matrix":
        return ModelSpec(kind, 2, (_cycle_vertex(2),), ("V",))
    if kind == "phi4-rank3":
        return ModelSpec(
            kind, 3, tuple(_rank3_vertex(i) for i in (1, 2, 3)), ("V1", "V2", "V3")
        )
    return ModelSpec(f"matrix-2p:{p}", 2, (_cycle_vertex(p),), (f"V{2 * p}",))


# -- membership ----------------------------------------------------------------


class MembershipReport(NamedTuple):
    """Verdict plus, per component of the 0-color-deleted interior, the
    matched vertex name (or None)."""

    ok: bool
    components: tuple[tuple[str, str | None], ...]

    def __bool__(self) -> bool:
        return self.ok

    def lines(self) -> list[str]:
        out = [f"component {tag}: {'no match' if m is None else m}" for tag, m in self.components]
        return out + ["member" if self.ok else "not member"]


def is_member(g: ColoredGraph, model: ModelSpec) -> MembershipReport:
    """Is g a Feynman graph of the model?

    Checks that every connected component of the amputated graph with the
    propagator color removed is exact-colors isomorphic to an interaction
    vertex.
    """
    expected = tuple(range(model.rank + 1))
    if g.colors != expected:
        raise GraphError(
            f"graph colors {g.colors} do not match rank-{model.rank} model "
            f"(expected {expected})"
        )
    names: dict[tuple, str] = {}
    for name, code in zip(model.vertex_names, model._codes):
        names.setdefault(code, name)
    # read without color 0: the stripped graph's components, left unbuilt
    labels, certs = _component_certs(g, expected[1:])
    entries = tuple((labels[min(order)], names.get(code)) for code, order, _ in certs)
    return MembershipReport(all(m is not None for _, m in entries), entries)


# -- Wick contraction ----------------------------------------------------------

_MAX_MATCHING_WHITES = 6


def _combinations(model: ModelSpec, k: int):
    """Each combination of k vertex types (with repetition, in order) and its
    white count, counted before anything is built from it; a count above
    the enumeration cap raises."""
    if k < 1:
        raise GraphError("k must be >= 1")
    n_whites = [len(v.whites()) for v in model.upsilon]
    for combo in itertools.combinations_with_replacement(range(len(model.upsilon)), k):
        total = sum(n_whites[t] for t in combo)
        if total > _MAX_MATCHING_WHITES:
            raise GraphError(
                f"{total} white vertices exceed the enumeration cap "
                f"({_MAX_MATCHING_WHITES}); k is too large for this model"
            )
        yield combo, total


def enumerate_vacuum(
    model: ModelSpec, k: int, *, dedup: bool = False
) -> list[ColoredGraph]:
    """All vacuum graphs from k interaction vertices.

    Chooses k vertices from the model with repetition and contracts every
    white against every black vertex in all possible ways (perfect
    matchings by color 0).  The raw list counts each Wick contraction once;
    with ``dedup`` the list is reduced up to exact-colors isomorphism,
    keeping first occurrences in order.
    """
    return list(_distinct_vacuum(model, k) if dedup else _wick_contractions(model, k))


def _wick_contractions(model: ModelSpec, k: int) -> Iterator[ColoredGraph]:
    """The Wick contractions of :func:`enumerate_vacuum`, built one at a time."""
    colors = (0,) + tuple(range(1, model.rank + 1))
    for combo, _ in _combinations(model, k):
        pieces = [add_prefix(model.upsilon[t], f"x{i}.") for i, t in enumerate(combo)]
        vertices: dict[str, str] = {}
        edges: dict[str, Edge] = {}
        for piece in pieces:
            vertices.update(piece.vertices)
            edges.update(piece.edges)
        whites = sorted(v for v, p in vertices.items() if p == "w")
        blacks = sorted(v for v, p in vertices.items() if p == "b")
        zeros = [f"z{j}" for j in range(len(whites))]
        for matching in itertools.permutations(range(len(blacks))):
            contraction = dict(edges)
            for j, label in enumerate(zeros):
                contraction[label] = Edge(label, 0, whites[j], blacks[matching[j]])
            yield ColoredGraph._trusted(colors, dict(vertices), contraction)


def _distinct_vacuum(model: ModelSpec, k: int) -> Iterator[ColoredGraph]:
    """The first occurrence of each isomorphism class among the Wick
    contractions, certified as they are built, so a caller that stops early
    builds no more of them."""
    seen = set()
    for g in _wick_contractions(model, k):
        cert = canonical_certificate(g)
        if cert not in seen:
            seen.add(cert)
            yield g


def count_vacuum(model: ModelSpec, k: int) -> tuple[int, int]:
    """``len(enumerate_vacuum(model, k))`` and the same with ``dedup``,
    counted without building a graph.

    A combination of w whites contracts in w! ways.  Graphs from different
    combinations of vertex classes are never isomorphic, since their
    color-0-deleted components differ; so only combinations of the first
    type of each class are counted up to isomorphism.  Within one, the
    classes are the orbits of its automorphism group G =
    (prod Aut(piece)) x| (permutations of equal pieces) on the color-0
    matchings, and by Burnside's lemma (Ben Geloun & Ramgoolam,
    arXiv:1307.6490) there are (1/|G|) sum over g of z(lambda), taken over
    the g whose cycle type lambda on the whites is the one on the blacks.
    The enumeration cap is enumerate_vacuum's.

    >>> count_vacuum(builtin_model("phi4-matrix"), 2)
    (24, 8)
    """
    firsts = {model._codes.index(code) for code in model._codes}
    raw = distinct = 0
    for combo, whites in _combinations(model, k):
        raw += factorial(whites)
        if firsts.issuperset(combo):
            distinct += _matching_classes(model, combo)
    return raw, distinct


def _matching_classes(model: ModelSpec, combo: tuple[int, ...]) -> int:
    """Burnside's orbit count of the color-0 matchings of one combination."""
    pieces = [model._symmetries[t] for t in combo]
    white = [w for flags, _ in pieces for w in flags]
    starts = list(itertools.accumulate((len(flags) for flags, _ in pieces), initial=0))
    fixed = order = 0
    for moved in itertools.permutations(range(len(combo))):
        if any(combo[i] != combo[j] for i, j in enumerate(moved)):
            continue
        for autos in itertools.product(*(a for _, a in pieces)):
            # vertex x of piece i goes to vertex image[x] of piece moved[i]
            perm = [starts[j] + y for j, image in zip(moved, autos) for y in image]
            cycles = ([], [])  # lengths on the blacks, on the whites
            for cycle in _orbits(len(perm), [perm]):
                cycles[white[cycle[0]]].append(len(cycle))
            if sorted(cycles[0]) == sorted(cycles[1]):
                fixed += centralizer_order(cycles[1])
            order += 1
    return fixed // order


def centralizer_order(cycle_type: Iterable[int]) -> int:
    """z of a cycle type: the order of the centralizer in S_n of a
    permutation with these cycle lengths, prod over k of k^m_k * m_k!.

    >>> centralizer_order([2, 1, 1])
    4
    >>> centralizer_order([3])
    3
    """
    out = 1
    for k, m in Counter(cycle_type).items():
        out *= k**m * factorial(m)
    return out


# -- small fixed graphs ---------------------------------------------------------


def build_dipole(d: int = 3, base: int = 1) -> ColoredGraph:
    """Two vertices joined by one edge of each of d colors."""
    if d < 1:
        raise GraphError("dipole needs at least one color")
    colors = tuple(range(base, base + d))
    return ColoredGraph(
        colors,
        {"w": "w", "b": "b"},
        [Edge(f"e{c}", c, "w", "b") for c in colors],
    )


def _quartic_pair(beta0: str, gamma0: str, mu0: str) -> ColoredGraph:
    """Two 4-cycle matrix vertices (p a q b, x c y d) joined by color 0.

    R0 and R1 share alpha0 = (x, a); the three other color-0 edges are
    given by their white and black ends.
    """
    table = (
        ("e1", 1, "pa"), ("e2", 2, "qa"), ("f1", 1, "qb"), ("f2", 2, "pb"),
        ("g1", 1, "xc"), ("g2", 2, "xd"), ("h1", 1, "yd"), ("h2", 2, "yc"),
        ("alpha0", 0, "xa"), ("beta0", 0, beta0), ("gamma0", 0, gamma0),
        ("mu0", 0, mu0),
    )
    return ColoredGraph(
        (0, 1, 2),
        dict.fromkeys("pqxy", "w") | dict.fromkeys("abcd", "b"),
        [Edge(label, c, *ends) for label, c, ends in table],
    )


def build_r1() -> ColoredGraph:
    """The quartic-matrix 2-vertex contraction realizing the torus."""
    return _quartic_pair("pd", "yb", "qc")


def build_r0() -> ColoredGraph:
    """The quartic-matrix 2-vertex contraction realizing the sphere."""
    return _quartic_pair("yb", "pc", "qd")


def build_necklace(base: int = 0) -> ColoredGraph:
    """The 4-colored necklace: a 4-cycle with doubled edges.

    The doubled edges carry the color pairs {base, base+1} and
    {base+2, base+3}; with the default base 0 this is the degree-1 vacuum
    graph whose jackets have genera (0, 1, 0).
    """
    c = base
    return ColoredGraph(
        (c, c + 1, c + 2, c + 3),
        {"p": "w", "q": "w", "a": "b", "b": "b"},
        [
            Edge("e1", c, "p", "b"),
            Edge("e2", c + 1, "p", "b"),
            Edge("e3", c + 2, "p", "a"),
            Edge("e4", c + 3, "p", "a"),
            Edge("f1", c, "q", "a"),
            Edge("f2", c + 1, "q", "a"),
            Edge("f3", c + 2, "q", "b"),
            Edge("f4", c + 3, "q", "b"),
        ],
    )


def build_twopoint() -> ColoredGraph:
    """A 2-point chain of three melonic blocks (open, 6 inner vertices).

    Its boundary is the propagator dipole; amputation leaves the 6-vertex
    interior.
    """
    vertices = {f"w{i}": "w" for i in (1, 2, 3)} | {f"b{i}": "b" for i in (1, 2, 3)}
    edges = [
        Edge(f"m{i}{c}", c, f"w{i}", f"b{i}") for i in (1, 2, 3) for c in (1, 2, 3)
    ]
    edges.append(Edge("z1", 0, "w2", "b1"))
    edges.append(Edge("z2", 0, "w3", "b2"))
    return ColoredGraph(
        (0, 1, 2, 3), vertices, edges, [Leg("lw", "w1"), Leg("lb", "b3")]
    )


def build_cg(g: int) -> ColoredGraph:
    """The canonical genus-g boundary template on colors 1, 2, 3.

    A 2(2g+1)-gon with alternating side colors 1 and 2 and the longest
    diagonals colored 3; C0 is the 3-dipole and C1 the colored K(3,3).
    """
    if g < 0:
        raise GraphError("genus must be >= 0")
    n = 2 * g + 1
    shift = (n - 1) // 2
    vertices = {f"w{i}": "w" for i in range(n)} | {f"b{i}": "b" for i in range(n)}
    edges = []
    for i in range(n):
        edges.append(Edge(f"s{i}", 1, f"w{i}", f"b{i}"))
        edges.append(Edge(f"t{i}", 2, f"w{(i + 1) % n}", f"b{i}"))
        edges.append(Edge(f"d{i}", 3, f"w{i}", f"b{(i + shift) % n}"))
    return ColoredGraph._trusted((1, 2, 3), vertices, {e.label: e for e in edges})


# -- ribbon fixtures -------------------------------------------------------------


def build_ribbon_w() -> RibbonStructure:
    """One 4-valent vertex, opposite half-edges paired: genus 1, bc 1."""
    return RibbonStructure(
        {"v": ("h1", "h2", "h3", "h4")}, {"h1": "h3", "h2": "h4"}
    )


def build_ribbon_q() -> RibbonStructure:
    """One 4-valent vertex, adjacent half-edges paired: genus 0, bc 3."""
    return RibbonStructure(
        {"v": ("h1", "h2", "h3", "h4")}, {"h1": "h2", "h3": "h4"}
    )


def build_ribbon_r() -> RibbonStructure:
    """Theta graph with equal cyclic orders at both vertices: genus 1, bc 1."""
    return RibbonStructure(
        {"u": ("h1", "h2", "h3"), "v": ("k1", "k2", "k3")},
        {"h1": "k1", "h2": "k2", "h3": "k3"},
    )


# -- the torus block O and its sphere twin N -------------------------------------


def _o_base() -> ColoredGraph:
    """(R0 # R1) # R0', summed along the alpha0 / beta0 color-0 edges."""
    r0, r1 = build_r0(), build_r1()
    return _splice(
        (add_prefix(r0, "r0."), add_prefix(r1, "r1."), add_prefix(r0, "r0b.")),
        (("r0.alpha0", "r1.alpha0"), ("r1.beta0", "r0b.alpha0")),
    )


def _swap_bubble_colors(g: ColoredGraph, labels: Iterable[str]) -> ColoredGraph:
    """Swap colors 1 <-> 2 on the edges of one (1,2)-bubble of g, given by
    their labels."""
    swap = {1: 2, 2: 1}
    target = set(labels)
    edges = {
        label: Edge(label, swap[e.color], e.white, e.black) if label in target else e
        for label, e in g._edges.items()
    }
    return ColoredGraph._trusted(g._colors, dict(g._parity), edges, dict(g._legs))


def _chain(
    blocks: Sequence[ColoredGraph],
    left: str = "nu0",
    right: str = "mu0",
    opens: Sequence[str] = (),
) -> ColoredGraph:
    """Connected-sum a row of blocks: the `left` edge of each block is summed
    with the `right` edge of the next, then the edges in `opens` are opened.
    Block k is namespaced ``o<k>.``."""
    return _splice(
        [add_prefix(b, f"o{k}.") for k, b in enumerate(blocks, 1)],
        [(f"o{k - 1}.{left}", f"o{k}.{right}") for k in range(2, len(blocks) + 1)],
        opens,
    )


# O's distinguished color-0 edges, keyed by their labels in (R0 # R1) # R0'.
# mu0 and nu0 chain blocks into Qg; alpha0 and beta0 each open one boundary
# circle.  tests/test_models.py re-runs the search that fixed this choice.
_O_EDGES = {
    "r0.alpha0'": "mu0",
    "r1.beta0'": "nu0",
    "r0.beta0": "alpha0",
    "r0b.beta0": "beta0",
}

# The edges of O's central (1,2)-bubble, the first that touches an end of
# mu0 and one of nu0; N swaps their colors.  tests/test_models.py re-runs
# the bubble search.
_N_BUBBLE = ("r1.e1", "r1.e2", "r1.f1", "r1.f2")


@lru_cache(maxsize=1)
def build_o() -> ColoredGraph:
    """The 24-vertex torus block (R0 # R1) # R0'.

    Its four distinguished color-0 edges are named mu0, nu0 (chaining) and
    alpha0, beta0 (boundary creation).  The choice is the frozen map
    ``_O_EDGES``; ``tests/test_models.py`` re-runs the search behind it.
    """
    return relabel(_o_base(), edge_map=_O_EDGES)


def build_n() -> ColoredGraph:
    """The sphere twin of O: the colors of the central (1,2)-bubble
    ``_N_BUBBLE`` swapped."""
    return _swap_bubble_colors(build_o(), _N_BUBBLE)


def build_qg(g: int) -> ColoredGraph:
    """Chain of g torus blocks summed nu0-to-mu0 (closed, chi = 2 - 2g)."""
    if g < 1:
        raise GraphError("qg needs g >= 1")
    return _chain((build_o(),) * g)


def build_kg(g: int) -> ColoredGraph:
    """Chain of g torus blocks summed beta0-to-alpha0 (chi = 2 - 2g)."""
    if g < 1:
        raise GraphError("kg needs g >= 1")
    return _chain((build_o(),) * g, left="beta0", right="alpha0")


def build_qgbc(g: int, b: int = 0, c: int = 0) -> ColoredGraph:
    """The bordism chain: max(g, c) blocks, opened along alpha0/beta0.

    Block k is a torus block O for k <= g and the sphere twin N beyond;
    blocks k <= b have both alpha0 and beta0 opened (two boundary circles
    each), blocks b < k <= c only alpha0.  Total boundary circles: b + c.
    """
    if g < 0 or b < 0 or c < 0:
        raise GraphError("qgbc parameters must be non-negative")
    if b > c:
        raise GraphError("qgbc needs B <= C")
    m = max(g, c)
    if m < 1:
        raise GraphError("qgbc needs max(g, C) >= 1")
    o, n = build_o(), build_n()
    opened = [("alpha0", "beta0") if k <= b else ("alpha0",) for k in range(1, c + 1)]
    return _chain(
        [o if k <= g else n for k in range(1, m + 1)],
        opens=[f"o{k}.{edge}" for k, edges in enumerate(opened, 1) for edge in edges],
    )


# -- the filled genus-g graphs Tg --------------------------------------------------

@lru_cache(maxsize=12)  # 3 crossings times 4 leg vertices
def _leg_fragment(crossing: int, leg_vertex: str) -> ColoredGraph:
    """A quartic rank-3 vertex viewed inside a 4-colored graph, one leg."""
    frag = _rank3_vertex(crossing)
    return ColoredGraph((0, 1, 2, 3), frag.vertices, frag.edges.values(), [("leg", leg_vertex)])


def build_tg(g: int) -> ColoredGraph:
    """The open 4-colored graph filling Cg: boundary(Tg) = Cg.

    Each vertex of Cg is replaced by a quartic rank-3 vertex with one leg:
    white vertex w_i becomes gadget ``a<i>.`` (color 1 crossing, leg at a)
    and black vertex b_i gadget ``m<i>.`` (color 2 crossing, leg at p).
    Each edge of Cg becomes a color-0 edge between free gadget vertices:
    (w_i, b_i) of color 1 joins m<i>.b to a<i>.p, (w_i+1, b_i) of color 2
    joins m<i>.a to a<i+1>.q, and (w_i, b_i+g) of color 3 joins a<i>.b to
    m<i+g>.q, indices mod 2g+1.  This wiring is frozen;
    ``tests/test_models.py`` re-runs the search that found it.
    """
    if g < 0:
        raise GraphError("genus must be >= 0")
    n = 2 * g + 1
    vertices: dict[str, str] = {}
    edges: list[Edge] = []
    legs: dict[str, Leg] = {}
    gadgets = _leg_fragment(1, "a"), _leg_fragment(2, "p")
    for i in range(n):
        for prefix, gadget in zip((f"a{i}.", f"m{i}."), gadgets):
            piece = add_prefix(gadget, prefix)
            vertices.update(piece._parity)
            edges.extend(piece._edges.values())
            legs.update(piece._legs)
    for i in range(n):
        edges.append(Edge(f"z1.{i}", 0, f"m{i}.b", f"a{i}.p"))
        edges.append(Edge(f"z2.{i}", 0, f"m{i}.a", f"a{(i + 1) % n}.q"))
        edges.append(Edge(f"z3.{i}", 0, f"a{i}.b", f"m{(i + g) % n}.q"))
    return ColoredGraph._trusted((0, 1, 2, 3), vertices, {e.label: e for e in edges}, legs)


# -- separators and the multi-boundary chain L ------------------------------------


class SeparatorResult(NamedTuple):
    """A separator graph with its two distinguished color-0 splice edges."""

    graph: ColoredGraph
    k: str
    l: str


def default_probes() -> list[tuple[ColoredGraph, ColoredGraph]]:
    """Probe pairs used to certify separators: (T1,T1), (T1,T2), (cone C1, T1),
    built once per process; each call returns a fresh list."""
    return list(_probes())


@lru_cache(maxsize=1)
def _probes() -> tuple[tuple[ColoredGraph, ColoredGraph], ...]:
    t1 = build_tg(1)
    return (t1, t1), (t1, build_tg(2)), (cone(build_cg(1)), t1)


def find_separators(
    model: ModelSpec, max_vertices: int
) -> tuple[SeparatorResult, SeparatorResult]:
    """Search vacuum graphs for the first two non-isomorphic separators.

    Scans the deduplicated enumerate_vacuum outputs for k = 1..max_vertices
    interaction vertices, in order, and every ordered pair of distinct
    color-0 edges, keeping configurations that pass separator_check on all
    :func:`default_probes`, whose setups are prepared once.  Returns the
    first hit and the first hit on another graph, which is not isomorphic
    to it: each class comes once per k, and graphs of different k differ in
    their color-0-deleted components, one per interaction vertex.  Vacuum
    graphs are built and certified one at a time, so none is built after
    the second hit.
    """
    if model.rank != 3:
        raise GraphError("separator search is defined for rank-3 models")
    if max_vertices < 1:
        raise GraphError("max_vertices must be >= 1")
    setups = _probe_setups(_probes())
    first: SeparatorResult | None = None
    for k in range(1, max_vertices + 1):
        for g in _distinct_vacuum(model, k):
            zeros = sorted(e for e, x in g.edges.items() if x.color == 0)
            for ke, le in itertools.permutations(zeros, 2):
                if not _separates(g, ke, le, setups):
                    continue
                if first is None:
                    first = SeparatorResult(g, ke, le)
                    break
                return first, SeparatorResult(g, ke, le)
    raise GraphError(
        ("only one separator" if first else "no separator")
        + f" found within {max_vertices} interaction vertices; raise the bound"
    )


# The answer of find_separators(builtin_model("phi4-rank3"), 2), taken from
# the Wick builder so that the shipped builders do not re-run the search.  P
# is the first one-vertex contraction, whose color-0 edges run parallel to
# the non-crossing colors; M is the first two-vertex one (two disjoint copies
# of P, spliced through one copy), the first passer in enumeration order not
# isomorphic to P.  Both are spliced along z0 and z1.
@lru_cache(maxsize=1)
def _frozen_separators() -> tuple[SeparatorResult, SeparatorResult]:
    model = builtin_model("phi4-rank3")
    p, m = (next(_wick_contractions(model, k)) for k in (1, 2))
    return SeparatorResult(p, "z0", "z1"), SeparatorResult(m, "z0", "z1")


def separator_p() -> SeparatorResult:
    """The first discovered separator, with its splice edges."""
    return _frozen_separators()[0]


def separator_m() -> SeparatorResult:
    """The second (non-isomorphic) discovered separator."""
    return _frozen_separators()[1]


def build_p() -> ColoredGraph:
    return separator_p().graph


def build_m() -> ColoredGraph:
    return separator_m().graph


def build_l(genera: Sequence[int]) -> ColoredGraph:
    """The multi-boundary chain T_g1 # P # T_g2 # P # ... # T_gb.

    Each separator P is spliced between consecutive T blocks along its two
    distinguished edges, so the boundary is the disjoint union of the Cg's.
    A T block meets each P at its first (by label) color-0 edge not yet
    cut.  A single genus gives T_g1 alone.
    """
    genera = tuple(genera)
    if not genera:
        raise GraphError("l needs at least one genus")
    if any(g < 0 for g in genera):
        raise GraphError("genera must be non-negative")
    sep = separator_p()
    tg = {genus: build_tg(genus) for genus in set(genera)}
    zeros = {
        genus: sorted(label for label, e in t._edges.items() if e.color == 0)[:2]
        for genus, t in tg.items()
    }
    blocks: list[ColoredGraph] = []
    links: list[tuple[str, str]] = []
    for i, genus in enumerate(genera, 1):
        first, second = (f"t{i}.{label}" for label in zeros[genus])
        if i > 1:
            blocks.append(add_prefix(sep.graph, f"p{i}."))
            links += [(free, f"p{i}.{sep.k}"), (f"p{i}.{sep.l}", first)]
        blocks.append(add_prefix(tg[genus], f"t{i}."))
        free = first if i == 1 else second
    return _splice(blocks, links)


# -- family registry ----------------------------------------------------------------


def build_melon() -> ColoredGraph:
    """The elementary melon: the 4-dipole on colors 0..3 (degree 0)."""
    return build_dipole(4, base=0)


build_families = {
    "dipole": build_dipole,
    "r0": build_r0,
    "r1": build_r1,
    "necklace": build_necklace,
    "melon": build_melon,
    "twopoint": build_twopoint,
    "cg": build_cg,
    "tg": build_tg,
    "o": build_o,
    "n": build_n,
    "qg": build_qg,
    "kg": build_kg,
    "qgbc": build_qgbc,
    "l": build_l,
    "p": build_p,
    "m": build_m,
    "ribbon-w": build_ribbon_w,
    "ribbon-q": build_ribbon_q,
    "ribbon-r": build_ribbon_r,
}


def build(family: str, **params):
    """Build a named family member; see ``build_families`` for the names.

    Every size parameter -- a genus, a color count, B and C of ``qgbc``,
    each genus of ``l`` and their number -- is at most
    :data:`MAX_FAMILY_PARAMETER`; ``base`` is a label offset and is not
    capped.
    """
    try:
        builder = build_families[family]
    except KeyError:
        known = ", ".join(sorted(build_families))
        raise GraphError(f"unknown family {family!r} (known: {known})") from None
    try:
        sizes = [(k, v) for k, v in params.items() if k not in ("base", "genera")]
        if "genera" in params:
            genera = params["genera"] = tuple(params["genera"])
            sizes += [("number of genera", len(genera))]
            sizes += [("genus", g) for g in genera]
        for key, value in sizes:
            if value > MAX_FAMILY_PARAMETER:
                raise GraphError(
                    f"{family}: {key} = {value} is above the family-parameter "
                    f"cap ({MAX_FAMILY_PARAMETER})"
                )
        return builder(**params)
    except TypeError as exc:
        raise GraphError(f"bad parameters for {family!r}: {exc}") from None
