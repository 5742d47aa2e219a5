"""Core graph type: parsing, validation, bubbles, components, isomorphism."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorgraphs.graphs import (
    MAX_D,
    WHITE,
    Bubble,
    ColoredGraph,
    Edge,
    GraphError,
    IsoResult,
    _component_certs,
    _orbits,
    add_prefix,
    amputate,
    bubbles,
    canonical_certificate,
    connected_components,
    disjoint_union,
    export_dot,
    is_isomorphic,
    parse,
    recolor,
    relabel,
    remove_color,
    serialize,
    validate,
)
from tensorgraphs.models import build_cg, build_dipole, build_necklace, build_r1
from tensorgraphs.surgery import connected_sum

from conftest import (
    CLOSED_FIXTURES,
    OPEN_FIXTURES,
    fixture_text,
    load_fixture,
)

ALL_GRAPH_FIXTURES = CLOSED_FIXTURES + OPEN_FIXTURES


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_serialize_parse_identity(name):
    text = fixture_text(name)
    g = parse(text)
    assert serialize(g) == text
    assert serialize(parse(serialize(g))) == text


def test_parse_closed_header_maps_colors():
    g = parse("colors 3 closed\nv a w\nv b b\ne e1 1 a b\ne e2 2 a b\ne e3 3 a b\n")
    assert g.colors == (1, 2, 3)
    assert g.is_closed and not g.is_open


def test_parse_open_header_includes_color_zero():
    g = parse(
        "colors 2 open\n"
        "v a w\nv b b\n"
        "e e1 1 a b\ne e2 2 a b\n"
        "e z 0 a b\n"
    )
    assert g.colors == (0, 1, 2)
    # no legs: operationally closed even though stored with the open header
    assert g.is_closed


def test_parse_legs():
    g = parse(
        "colors 1 open\n"
        "v a w\nv b b\n"
        "e e1 1 a b\n"
        "leg la a\nleg lb b\n"
    )
    assert g.is_open
    assert [leg.label for leg in g.legs.values()] == ["la", "lb"]
    assert g.leg_at("a").label == "la"
    assert g.neighbor("a", 1) == "b"
    assert g.edge_at("a", 0) is None


def test_parse_comments_and_blank_lines():
    g = parse("# a comment\ncolors 1 closed\n\nv a w\nv b b  # trailing\ne e1 1 a b\n")
    assert sorted(g.vertices) == ["a", "b"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("colors x closed\n", "line 1"),
        ("colors 2 closed\nv a w\nv a b\n", "duplicate vertex"),
        (
            "colors 2 closed\nv a w\nv b b\ne e1 1 a b\ne e2 1 a b\n",
            "duplicate color",
        ),
        ("colors 2 closed\nv a w\nv b b\ne e1 3 a b\n", "outside color set"),
        ("colors 2 closed\nv a w\nv b b\ne e1 1 b a\n", "is not 'w'"),
        ("colors 2 closed\nv a w\ne e1 1 a zz\n", "unknown vertex"),
        ("colors 2 closed\nv a w\nv b b\nleg l1 a\n", "color 0 not in color set"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(GraphError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_parse_caps_the_header_dimension():
    with pytest.raises(GraphError, match=f"line 1: D must be <= {MAX_D}"):
        parse(f"colors {MAX_D + 1} closed\n")
    with pytest.raises(GraphError, match=f"line 2: D must be <= {MAX_D}"):
        parse(f"# big\ncolors {MAX_D + 1} open\n")
    assert parse(f"colors {MAX_D} open\n").colors == tuple(range(MAX_D + 1))


def test_parse_requires_regularity_by_default():
    text = "colors 2 closed\nv a w\nv b b\ne e1 1 a b\n"
    with pytest.raises(GraphError, match="missing color"):
        parse(text)
    g = parse(text, require_regular=False)
    issues = validate(g)
    assert any("missing color 2" in issue for issue in issues)


@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_fixtures_validate_clean(name):
    assert validate(load_fixture(name)) == []


# ---------------------------------------------------------------- bubbles

def test_dipole_two_bubbles():
    d = build_dipole(3)
    one = bubbles(d, (1, 2))
    assert len(one) == 1
    assert one[0].vertices == tuple(sorted(d.vertices))
    assert one[0].colors == (1, 2)


def test_r1_two_bubble_census():
    g = build_r1()
    counts = {
        (c1, c2): len(bubbles(g, (c1, c2)))
        for c1 in g.colors
        for c2 in g.colors
        if c1 < c2
    }
    assert counts == {(0, 1): 1, (0, 2): 1, (1, 2): 2}
    inner = bubbles(g, (1, 2))
    assert [b.vertices for b in inner] == [("a", "b", "p", "q"), ("c", "d", "x", "y")]


def test_bubbles_do_not_cross_legs():
    g = load_fixture("twopoint.cg")
    zero = bubbles(g, (0, 1))
    for b in zero:
        assert set(b.edges) <= set(g.edges)


def test_single_color_bubbles_are_edges():
    g = build_r1()
    assert len(bubbles(g, (1,))) == 4
    assert all(len(b.edges) == 1 for b in bubbles(g, (0,)))


# ------------------------------------------------------- transformations

def test_remove_color_drops_edges_and_palette():
    g = build_r1()
    h = remove_color(g, 0)
    assert h.colors == (1, 2)
    assert len(h.edges) == 8
    assert len(h.vertices) == 8


def test_amputate_strips_legs():
    g = load_fixture("twopoint.cg")
    h = amputate(g)
    assert not h.legs
    assert h.vertices == g.vertices


def test_relabel_preserves_structure():
    g = build_dipole(3)
    h = relabel(g, vertex_map={"w": "north", "b": "south"})
    assert sorted(h.vertices) == ["north", "south"]
    assert is_isomorphic(g, h).isomorphic


def test_add_prefix_is_pure_renaming():
    g = build_r1()
    h = add_prefix(g, "copy.")
    assert all(v.startswith("copy.") for v in h.vertices)
    assert all(e.startswith("copy.") for e in h.edges)
    assert canonical_certificate(g) == canonical_certificate(h)


def test_recolor_changes_exact_class_only():
    g = build_necklace(0)
    h = recolor(g, {0: 1, 1: 2, 2: 3, 3: 4})
    assert not is_isomorphic(g, h).isomorphic
    res = is_isomorphic(g, h, mode="up-to-color-permutation")
    assert res.isomorphic
    assert res.color_map == {0: 1, 1: 2, 2: 3, 3: 4}


def test_disjoint_union_namespaces_on_collision():
    d = build_dipole(3)
    u = disjoint_union(d, d)
    assert len(u.vertices) == 4
    assert len(u.edges) == 6
    assert len(connected_components(u)) == 2


def test_union_and_sum_share_the_namespacing():
    d = build_dipole(3)
    u = disjoint_union(d, d)
    prefixed = [p + v for p in ("l.", "r.") for v in d.vertices]
    assert list(u.vertices) == prefixed
    assert list(u.edges) == [p + e for p in ("l.", "r.") for e in d.edges]
    e = sorted(d.edges)[0]
    assert list(connected_sum(d, e, d, e).vertices) == prefixed
    # no collision: labels are kept as they are
    other = relabel(d, {v: v + "'" for v in d.vertices}, {x: x + "'" for x in d.edges})
    assert list(disjoint_union(d, other).vertices) == list(d.vertices) + list(other.vertices)


# ---------------------------------------------------------- components

def test_connected_components_of_m():
    m = load_fixture("m.cg")
    parts = connected_components(m)
    assert len(parts) == 2
    p = load_fixture("p.cg")
    assert all(is_isomorphic(part, p).isomorphic for part in parts)


def test_connected_fixture_is_single_component():
    assert len(connected_components(load_fixture("l-2-3.cg"))) == 1


# ---------------------------------------------------------- isomorphism

def test_iso_witness_maps_edges_correctly():
    g = build_cg(1)
    h = add_prefix(g, "zz.")
    res = is_isomorphic(g, h)
    assert res.isomorphic
    # the vertex witness must carry every edge onto an edge of equal color
    for e in g.edges.values():
        image = h.edge_at(res.witness[e.white], e.color)
        assert image is not None
        assert image.black == res.witness[e.black]


def test_iso_distinguishes_r0_from_r1():
    r0 = load_fixture("r0.cg")
    r1 = load_fixture("r1.cg")
    assert not is_isomorphic(r0, r1).isomorphic


def test_iso_rejects_unknown_mode():
    d = build_dipole(3)
    with pytest.raises(GraphError, match="unknown isomorphism mode"):
        is_isomorphic(d, d, mode="whatever")


@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_certificate_invariant_under_relabeling(name):
    g = load_fixture(name)
    assert canonical_certificate(add_prefix(g, "x.")) == canonical_certificate(g)


@given(st.permutations(list("abcdpqxy")))
def test_certificate_invariant_under_vertex_permutation(perm):
    g = build_r1()
    mapping = dict(zip(sorted(g.vertices), perm))
    # legal renaming: parities travel with the vertices
    h = relabel(g, vertex_map=mapping)
    assert canonical_certificate(h) == canonical_certificate(g)
    assert is_isomorphic(g, h).isomorphic


# ------------------------------------------- certificate kernel vs. reference
#
# `_component_certs` tries white roots only and abandons a root at its first
# row larger than the best code's.  The reference below is the plain
# definition: a BFS from every root of the component, the smallest code
# winning and the earliest root keeping ties; the color-permutation mode
# builds `recolor(a, cmap)` for every bijection.  Codes, BFS orders (with
# their insertion order), certificates, witnesses and color maps must agree.


def _reference_bfs_code(g, root):
    order = {root: 0}
    queue = [root]
    rows = []
    for v in queue:
        row = [0 if g.parity(v) == WHITE else 1]
        for c in g.colors:
            e = g.edge_at(v, c)
            if e is None:
                row.append(-2 if c == 0 and g.leg_at(v) is not None else -1)
                continue
            u = e.other(v)
            if u not in order:
                order[u] = len(queue)
                queue.append(u)
            row.append(order[u])
        rows.append(tuple(row))
    return tuple(rows), order


def _reference_component_certs(g):
    seen = set()
    out = []
    for start in sorted(g.vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for c in g.colors:
                u = g.neighbor(v, c)
                if u is not None and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        best = None
        for root in sorted(comp):
            code, order = _reference_bfs_code(g, root)
            if best is None or code < best[0]:
                best = (code, order)
        out.append(best)
    return out


def _reference_iso_exact(a, b):
    if (a.colors, len(a), len(a.edges), len(a.legs)) != (
        b.colors, len(b), len(b.edges), len(b.legs)
    ):
        return IsoResult(False)
    certs_a = _reference_component_certs(a)
    certs_b = _reference_component_certs(b)
    if sorted(c for c, _ in certs_a) != sorted(c for c, _ in certs_b):
        return IsoResult(False)
    by_code = {}
    for code, order in certs_b:
        by_code.setdefault(code, []).append(order)
    witness = {}
    for code, order_a in certs_a:
        inv_b = {i: v for v, i in by_code[code].pop().items()}
        for v, i in order_a.items():
            witness[v] = inv_b[i]
    return IsoResult(True, witness)


def _reference_is_isomorphic(a, b, mode):
    if mode == "exact-colors":
        return _reference_iso_exact(a, b)
    if len(a.colors) != len(b.colors):
        return IsoResult(False)
    fix_zero = bool(a.legs) or bool(b.legs)
    if fix_zero and (0 not in a.colors or 0 not in b.colors):
        return IsoResult(False)
    for perm in itertools.permutations(b.colors):
        cmap = dict(zip(a.colors, perm))
        if fix_zero and cmap[0] != 0:
            continue
        res = _reference_iso_exact(recolor(a, cmap), b)
        if res:
            return IsoResult(True, res.witness, cmap)
    return IsoResult(False)


def _iso_key(res):
    witness = None if res.witness is None else list(res.witness.items())
    return res.isomorphic, witness, res.color_map


def assert_kernel_matches_reference(a, b):
    for g in (a, b):
        fast = [(code, list(order.items())) for code, order in _component_certs(g)]
        slow = [
            (code, list(order.items())) for code, order in _reference_component_certs(g)
        ]
        assert fast == slow
        assert canonical_certificate(g) == (g.colors, tuple(sorted(c for c, _ in slow)))
    for mode in ("exact-colors", "up-to-color-permutation"):
        for x, y in ((a, b), (b, a)):
            assert _iso_key(is_isomorphic(x, y, mode)) == _iso_key(
                _reference_is_isomorphic(x, y, mode)
            )


def _partial_graph(colors, parities, matchings, legs):
    """A graph on vertices ``v<i>`` from per-color (white, black) index pairs."""
    verts = {f"v{i}": p for i, p in enumerate(parities)}
    edges = [
        (f"e{c}.{w}", c, f"v{w}", f"v{b}") for c, pairs in zip(colors, matchings)
        for w, b in pairs
    ]
    zero = {x for c, pairs in zip(colors, matchings) if c == 0 for p in pairs for x in p}
    legs = set(legs) & set(range(len(parities))) - zero if 0 in colors else ()
    leg_list = [(f"l{i}", f"v{i}") for i in sorted(legs)]
    return ColoredGraph(colors, verts, edges, leg_list)


def _random_graph(rng):
    """Open or closed, irregular, on 1-5 colors, usually disconnected."""
    d = rng.randint(1, 5)
    colors = tuple(range(d + 1)) if rng.random() < 0.4 else tuple(range(1, d + 1))
    n = rng.randint(0, 12)
    parities = [rng.choice("wb") for _ in range(n)]
    whites = [i for i, p in enumerate(parities) if p == "w"]
    blacks = [i for i, p in enumerate(parities) if p == "b"]
    matchings = []
    for _ in colors:
        rng.shuffle(blacks)
        matchings.append([wb for wb in zip(whites, blacks) if rng.random() < 0.8])
    legs = [i for i in range(n) if rng.random() < 0.5]
    return _partial_graph(colors, parities, matchings, legs)


def _shuffled_copy(g, rng):
    """`g` under fresh vertex labels, recolored (fixing 0 when it has legs)."""
    vs = sorted(g.vertices)
    fresh = [f"u{i}" for i in range(len(vs))]
    rng.shuffle(fresh)
    h = relabel(g, dict(zip(vs, fresh)))
    movable = [c for c in g.colors if not (g.legs and c == 0)]
    image = movable[:]
    rng.shuffle(image)
    return recolor(h, dict(zip(movable, image)))


def test_kernel_matches_reference_on_seeded_random_graphs():
    rng = random.Random(20161)
    for _ in range(300):
        a = _random_graph(rng)
        roll = rng.random()
        if roll < 0.6:
            b = _shuffled_copy(a, rng)
        elif roll < 0.8 and a.edges:
            h = _shuffled_copy(a, rng)
            drop = rng.choice(sorted(h.edges))
            b = ColoredGraph(
                h.colors, dict(h.vertices),
                [e for k, e in h.edges.items() if k != drop], h.legs.values(),
            )
        else:
            b = _random_graph(rng)
        assert_kernel_matches_reference(a, b)


@st.composite
def small_graphs(draw):
    d = draw(st.integers(1, 4))
    colors = tuple(range(d + 1)) if draw(st.booleans()) else tuple(range(1, d + 1))
    parities = draw(st.lists(st.sampled_from("wb"), max_size=8))
    whites = [i for i, p in enumerate(parities) if p == "w"]
    blacks = [i for i, p in enumerate(parities) if p == "b"]
    matchings = []
    for _ in colors:
        order = draw(st.permutations(blacks))
        keep = draw(st.lists(st.booleans(), min_size=len(whites), max_size=len(whites)))
        matchings.append([wb for wb, k in zip(zip(whites, order), keep) if k])
    legs = draw(st.sets(st.integers(0, max(len(parities) - 1, 0))))
    return _partial_graph(colors, parities, matchings, legs)


@given(small_graphs(), small_graphs(), st.randoms(use_true_random=False))
def test_kernel_matches_reference_on_drawn_graphs(a, other, rng):
    assert_kernel_matches_reference(a, other)
    assert_kernel_matches_reference(a, _shuffled_copy(a, rng))


@pytest.mark.parametrize(
    "g",
    [
        ColoredGraph((1, 2, 3), {}),
        ColoredGraph((1, 2), {"a": "w"}),
        ColoredGraph((1, 2), {"a": "b"}),
        ColoredGraph((0, 1, 2), {"a": "w"}, legs=[("l", "a")]),
        ColoredGraph((0, 1), {"a": "b", "z": "w"}, legs=[("l", "a")]),
    ],
    ids=["empty", "white-vertex", "black-vertex", "leg-only", "leg-and-isolated"],
)
def test_kernel_matches_reference_on_edge_cases(g):
    assert_kernel_matches_reference(g, g)
    assert_kernel_matches_reference(g, relabel(g, {v: v + "'" for v in g.vertices}))
    assert is_isomorphic(g, g).isomorphic


def test_legs_hold_color_zero_fixed():
    # A color-0 edge at one pair, legs at the other: only bijections fixing 0
    # are tried, and the first of them in permutation order is reported.
    a = parse(
        "colors 2 open\n"
        "v p w\nv q b\nv r w\nv s b\n"
        "e e0 0 p q\ne e1 1 p q\ne e2 2 p q\n"
        "e f1 1 r s\ne f2 2 r s\n"
        "leg lr r\nleg ls s\n"
    )
    b = relabel(recolor(a, {1: 2, 2: 1}), {"p": "r", "q": "s", "r": "p", "s": "q"})
    res = is_isomorphic(a, b, "up-to-color-permutation")
    assert res.isomorphic and res.color_map == {0: 0, 1: 1, 2: 2}
    assert res.witness == {"p": "r", "q": "s", "r": "p", "s": "q"}
    assert_kernel_matches_reference(a, b)
    # without legs on either side, color 0 may move
    closed = amputate(a)
    moved = recolor(closed, {0: 1, 1: 0})
    assert is_isomorphic(closed, moved, "up-to-color-permutation").color_map == {
        0: 1, 1: 0, 2: 2
    }
    assert_kernel_matches_reference(closed, moved)
    # a leg on one side only pins color 0, which the other side lacks
    shifted = recolor(closed, {0: 3, 1: 1, 2: 2})
    assert not is_isomorphic(shifted, a, "up-to-color-permutation")
    assert_kernel_matches_reference(shifted, a)


# ---------------------------------------------------- Burnside class counts
#
# A closed C-colored graph with n white and n black vertices is a tuple of C
# permutations of S_n (white i meets black sigma_c(i) along color c), and
# isomorphism is the S_n x S_n action (sigma_c) -> (beta sigma_c alpha^-1).
# By Burnside the number of classes is sum_{lambda |- n} z_lambda^(C-2)
# (Ben Geloun & Ramgoolam, arXiv:1307.6490).  Every class has a member with
# sigma_1 = id, so only those tuples are certified.


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _z(partition):
    out = 1
    for k in set(partition):
        m = partition.count(k)
        out *= k**m * math.factorial(m)
    return out


def _burnside_count(n_colors, n):
    return sum(_z(lam) ** (n_colors - 2) for lam in _partitions(n))


@pytest.mark.parametrize(
    "n_colors, n, expected", [(3, 2, 4), (3, 3, 11), (3, 4, 43), (4, 2, 8), (4, 3, 49)]
)
def test_certificate_classes_match_burnside(n_colors, n, expected):
    assert _burnside_count(n_colors, n) == expected
    colors = tuple(range(1, n_colors + 1))
    verts = {**{f"w{i}": "w" for i in range(n)}, **{f"b{i}": "b" for i in range(n)}}
    identity = tuple(range(n))
    classes = set()
    for rest in itertools.product(itertools.permutations(range(n)), repeat=n_colors - 1):
        edges = [
            (f"e{c}.{i}", c, f"w{i}", f"b{sigma[i]}")
            for c, sigma in zip(colors, (identity,) + rest)
            for i in range(n)
        ]
        classes.add(canonical_certificate(ColoredGraph(colors, verts, edges)))
    assert len(classes) == expected


# ------------------------------------------------------- component walks
#
# Test-local copies of the stack walks that `bubbles` and
# `connected_components` ran before both moved onto `_orbits`.  Bubble
# lists and component graphs (vertex, edge and leg insertion order
# included) must agree with them.


def _reference_bubbles(g, colors):
    csub = tuple(sorted(set(colors)))
    if not csub:
        return [Bubble((), (v,), ()) for v in sorted(g.vertices)]
    seen = set()
    out = []
    for start in sorted(g.vertices):
        if start in seen or all(g.edge_at(start, c) is None for c in csub):
            continue
        comp_v, comp_e = {start}, set()
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


def _reference_components(g):
    out = []
    seen = set()
    for start in sorted(g.vertices):
        if start in seen:
            continue
        comp = {start}
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


def _items(g):
    return g.colors, list(g.vertices.items()), list(g.edges.items()), list(g.legs.items())


def assert_walks_match_reference(g):
    for r in range(len(g.colors) + 1):
        for subset in itertools.combinations(g.colors, r):
            assert bubbles(g, subset) == _reference_bubbles(g, subset)
    assert [_items(c) for c in connected_components(g)] == [
        _items(c) for c in _reference_components(g)
    ]


def _scrambled(g, rng):
    """`g` with its vertices, edges and legs inserted in a random order."""
    parts = [list(g.vertices.items()), list(g.edges.values()), list(g.legs.values())]
    for part in parts:
        rng.shuffle(part)
    return ColoredGraph(g.colors, *parts)


def _many_components(rng):
    """Hundreds of small pieces: sparse matchings on 600-900 vertices."""
    n = rng.randint(600, 900)
    colors = (0, 1, 2) if rng.random() < 0.5 else (1, 2)
    parities = [rng.choice("wb") for _ in range(n)]
    whites = [i for i, p in enumerate(parities) if p == "w"]
    blacks = [i for i, p in enumerate(parities) if p == "b"]
    matchings = []
    for _ in colors:
        rng.shuffle(blacks)
        matchings.append([wb for wb in zip(whites, blacks) if rng.random() < 0.35])
    legs = [i for i in range(n) if rng.random() < 0.3]
    return _scrambled(_partial_graph(colors, parities, matchings, legs), rng)


def test_walks_match_reference_on_seeded_random_graphs():
    rng = random.Random(5)
    for _ in range(300):
        assert_walks_match_reference(_scrambled(_random_graph(rng), rng))


def test_walks_match_reference_on_hundreds_of_components():
    rng = random.Random(11)
    for _ in range(3):
        g = _many_components(rng)
        comps = connected_components(g)
        assert len(comps) >= 200
        assert [_items(c) for c in comps] == [_items(c) for c in _reference_components(g)]
        for subset in ((0,), (1,), (1, 2), g.colors):
            if set(subset) <= set(g.colors):
                assert bubbles(g, subset) == _reference_bubbles(g, subset)


@given(small_graphs(), st.randoms(use_true_random=False))
def test_walks_match_reference_on_drawn_graphs(g, rng):
    assert_walks_match_reference(g)
    assert_walks_match_reference(_scrambled(g, rng))


@pytest.mark.parametrize(
    "g",
    [
        ColoredGraph((1, 2, 3), {}),
        ColoredGraph((), {"a": "w", "b": "b"}),
        ColoredGraph((1, 2), {"a": "b", "z": "w"}),
        ColoredGraph((0, 1, 2), {"a": "w"}, legs=[("l", "a")]),
        ColoredGraph((0, 1), {"a": "b", "z": "w"}, [("e", 1, "z", "a")], [("l", "a")]),
    ],
    ids=["empty", "colorless", "isolated", "leg-only", "leg-and-edge"],
)
def test_walks_match_reference_on_edge_cases(g):
    assert_walks_match_reference(g)


def _reference_orbits(n, maps):
    """Union-find classes of i ~ m[i], as sorted lists in order of minimum."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in maps:
        for i, j in enumerate(m):
            if j >= 0:
                parent[find(i)] = find(j)
    classes = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values())


@given(st.data())
def test_orbits_of_involutions_and_a_permutation(data):
    n = data.draw(st.integers(0, 24))
    maps = []
    for _ in range(data.draw(st.integers(0, 3))):
        perm = data.draw(st.permutations(range(n)))
        m = [-1] * n
        for i, j in zip(perm[::2], perm[1::2]):
            if data.draw(st.booleans()):
                m[i], m[j] = j, i
        maps.append(m)
    assert _orbits(n, maps) == _reference_orbits(n, maps)
    sigma = data.draw(st.permutations(range(n)))
    assert _orbits(n, [sigma]) == _reference_orbits(n, [sigma])


# ------------------------------------------------------------- export

def test_export_dot_mentions_every_element():
    g = build_dipole(3)
    dot = export_dot(g)
    assert dot.startswith("graph")
    for v in g.vertices:
        assert f'"{v}"' in dot
    assert dot.count("--") == len(g.edges) + len(g.legs)
    assert export_dot(g) == dot  # deterministic


# ------------------------------------------------------------ interface

def test_graph_is_immutable():
    g = build_dipole(3)
    with pytest.raises(TypeError):
        g.vertices["new"] = "w"  # type: ignore[index]
    with pytest.raises(TypeError):
        g.edges["e1"] = Edge("e1", 1, "w", "b")  # type: ignore[index]


def test_constructor_rejects_bad_parity_tag():
    with pytest.raises(GraphError):
        ColoredGraph((1,), {"a": "white"}, [])
