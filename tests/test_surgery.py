"""Surgery operations: sums, opening/closing, cones, boundaries, separators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs.graphs import (
    ColoredGraph,
    GraphError,
    add_prefix,
    bubbles,
    canonical_certificate,
    connected_components,
    disjoint_union,
    is_isomorphic,
    relabel,
)
from tensorgraphs.homology import euler_characteristic
from tensorgraphs.models import (
    build_cg,
    build_dipole,
    build_p,
    build_r1,
    build_tg,
    builtin_model,
    enumerate_vacuum,
)
from tensorgraphs.surgery import (
    _splice,
    boundary_graph,
    close_legs,
    cone,
    connected_sum,
    crys_sum,
    open_edge,
    separator_check,
)

from conftest import every_edge_choice, graph_state, load_fixture


def two_bubble_count(g):
    return sum(
        len(bubbles(g, (c1, c2)))
        for i, c1 in enumerate(g.colors)
        for c2 in g.colors[i + 1 :]
    )


# ---------------------------------------------------------- connected sum

def test_connected_sum_counts_and_euler():
    r1 = build_r1()
    s = connected_sum(r1, "alpha0", r1, "beta0")
    assert len(s.vertices) == 16
    assert len(s.edges) == 24
    assert euler_characteristic(s) == -2  # 0 + 0 - 2
    assert two_bubble_count(s) == two_bubble_count(r1) * 2 - 2


def test_connected_sum_namespaces_only_on_collision():
    r1 = build_r1()
    s = connected_sum(r1, "alpha0", r1, "beta0")
    assert all(v.startswith(("l.", "r.")) for v in s.vertices)
    # replacement edges keep the original labels, primed
    assert "l.alpha0'" in s.edges and "r.beta0'" in s.edges

    a = load_fixture("r0.cg")
    b = load_fixture("o.cg")  # label sets already disjoint from r0's? they are not:
    # o.cg contains r0.* labels, so collision namespacing must kick in
    s2 = connected_sum(b, "mu0", a, "alpha0")
    assert any(v.startswith("l.") for v in s2.vertices)


def test_connected_sum_along_any_shared_color():
    # same-color requirement, not color-0-only: sum along a color-1 edge
    r1 = build_r1()
    s = connected_sum(r1, "e1", r1, "g1")
    assert len(s.vertices) == 16
    assert euler_characteristic(s) == -2


@pytest.mark.parametrize(
    "f,args,msg",
    [
        (connected_sum, ("r1", "alpha0", "d3", "e1"), "color sets differ"),
        (connected_sum, ("r1", "alpha0", "r1", "e1"), "edge colors differ"),
        (connected_sum, ("r1", "nope", "r1", "alpha0"), "no edge 'nope'"),
        (connected_sum, ("r1", "alpha0", "r1", "nope"), "no edge 'nope'"),
    ],
)
def test_connected_sum_rejects_bad_input(f, args, msg):
    graphs = {"r1": build_r1(), "d3": build_dipole(3)}
    a, e, b, fe = graphs[args[0]], args[1], graphs[args[2]], args[3]
    with pytest.raises(GraphError, match=msg):
        f(a, e, b, fe)


def test_connected_sum_takes_the_next_fresh_label():
    # r1 with its edge beta0 renamed alpha0': the cut edge alpha0 cannot
    # pass its name on as alpha0', which is taken, so the new edge is alpha0''
    a = relabel(build_r1(), edge_map={"beta0": "alpha0'"})
    s = connected_sum(a, "alpha0", build_r1(), "alpha0")
    assert sorted(e for e in s.edges if e.startswith("l.alpha0")) == ["l.alpha0'", "l.alpha0''"]
    assert s.edges["l.alpha0''"].color == 0
    assert s.edges["l.alpha0''"].white == "l." + a.edges["alpha0"].white


# --------------------------------------------------------------- crys sum

def test_crys_sum_counts():
    r1 = build_r1()
    c = crys_sum(r1, "p", r1, "a")
    assert len(c.vertices) == 14  # 8 + 8 - 2
    assert len(c.edges) == 21  # 12 + 12 - 3
    joined = sorted(e for e in c.edges if "~" in e)
    assert joined == ["l.beta0~r.alpha0", "l.e1~r.e1", "l.f2~r.e2"]


def test_crys_sum_requires_white_then_black():
    r1 = build_r1()
    with pytest.raises(GraphError, match="not a white vertex"):
        crys_sum(r1, "a", r1, "a")
    with pytest.raises(GraphError, match="not a black vertex"):
        crys_sum(r1, "p", r1, "q")


def test_crys_sum_requires_one_color_set_and_full_slots():
    d3 = build_dipole(3)
    with pytest.raises(GraphError, match=r"^color sets differ: \(1, 2, 3\) vs \(1, 2, 3, 4\)$"):
        crys_sum(d3, "w", build_dipole(4), "b")
    # w has no color-3 edge
    partial = ColoredGraph((1, 2, 3), {"w": "w", "b": "b"}, [("e1", 1, "w", "b"), ("e2", 2, "w", "b")])
    with pytest.raises(GraphError, match="^missing color 3 at 'l.w' or 'r.b'$"):
        crys_sum(partial, "w", d3, "b")


def test_crys_sum_requires_closed_graphs():
    r1 = build_r1()
    opened = open_edge(r1, "alpha0")
    with pytest.raises(GraphError, match="closed"):
        crys_sum(opened, "p", r1, "a")


# ------------------------------------------------------------ open / close

def test_open_edge_makes_leg_pair():
    r1 = build_r1()
    o = open_edge(r1, "alpha0")
    assert o.is_open
    assert sorted(l.label for l in o.legs.values()) == ["alpha0.b", "alpha0.w"]
    assert o.leg_at("x").label == "alpha0.w"  # white end of alpha0
    assert o.leg_at("a").label == "alpha0.b"
    assert "alpha0" not in o.edges


def test_open_edge_only_color_zero():
    with pytest.raises(GraphError, match="color 1, not 0"):
        open_edge(build_r1(), "e1")


def test_close_restores_up_to_isomorphism():
    r1 = build_r1()
    o = open_edge(r1, "alpha0")
    back = close_legs(o, "alpha0.w", "alpha0.b")
    assert back.is_closed
    assert "alpha0.w~alpha0.b" in back.edges
    assert is_isomorphic(back, r1).isomorphic


def test_close_requires_opposite_parities():
    o = open_edge(build_r1(), "alpha0")
    o2 = open_edge(o, "beta0")
    with pytest.raises(GraphError, match="same-parity"):
        close_legs(o2, "alpha0.w", "beta0.w")
    for leg in ("alpha0.w", "alpha0.b"):
        with pytest.raises(GraphError, match="^the two legs must be distinct$"):
            close_legs(o2, leg, leg)


def test_open_then_open_accumulates_legs():
    o = open_edge(open_edge(build_r1(), "alpha0"), "beta0")
    assert len(o.legs) == 4
    assert len(o.edges) == 10


# ------------------------------------------------------------------- cone

def test_cone_structure():
    d = build_dipole(3)
    c = cone(d)
    assert c.colors == (0, 1, 2, 3)
    assert len(c.legs) == len(d.vertices)
    assert sorted(l.label for l in c.legs.values()) == ["b'", "w'"]
    # parities preserved on the inner graph
    assert c.parity("w") == "w" and c.parity("b") == "b"


def test_cone_boundary_identity():
    d = build_dipole(3)
    assert is_isomorphic(boundary_graph(cone(d)), d).isomorphic


def test_cone_rejects_color_zero_and_open_input():
    with pytest.raises(GraphError, match="must not use color 0"):
        cone(build_r1())
    with pytest.raises(GraphError, match="closed"):
        cone(build_tg(1))


# --------------------------------------------------------------- boundary

def test_boundary_of_vacuum_is_empty():
    b = boundary_graph(build_r1())
    assert len(b.vertices) == 0
    assert b.colors == (1, 2)


def test_boundary_requires_color_zero_in_palette():
    with pytest.raises(GraphError, match="color 0"):
        boundary_graph(build_dipole(3))


def test_twopoint_boundary_is_propagator_dipole():
    b = boundary_graph(load_fixture("twopoint.cg"))
    assert len(b.vertices) == 2
    assert len(b.edges) == 3
    assert b.colors == (1, 2, 3)
    assert is_isomorphic(b, build_dipole(3)).isomorphic


def test_boundary_vertex_labels_and_parity():
    g = build_tg(1)
    b = boundary_graph(g)
    # boundary vertices are the leg labels, with the legged vertex's parity
    for v in b.vertices:
        leg = g.legs[v]
        assert b.parity(v) == g.parity(leg.vertex)
    # boundary edges are tagged by the white leg and the traversed color
    for label, e in b.edges.items():
        stem, _, color = label.rpartition(".")
        assert stem == e.white
        assert int(color) == e.color


def test_boundary_of_t1_is_c1():
    assert is_isomorphic(boundary_graph(build_tg(1)), build_cg(1)).isomorphic


# ------------------------------------------------------------- separators

def probes():
    t1, t2 = build_tg(1), build_tg(2)
    return [(t1, t1), (t1, t2)]


def test_p_certifies_on_probes():
    p = build_p()
    assert separator_check(p, "z0", "z1", probes())


def test_separator_check_vacuous_on_closed_probe_side():
    # cone(C1) has no internal color-0 edge: that probe passes vacuously
    p = build_p()
    c = cone(build_cg(1))
    assert all(e.color != 0 for e in c.edges.values())
    assert separator_check(p, "z0", "z1", [(c, build_tg(1))])
    assert separator_check(p, "z0", "z1", [(c, c)])


def test_separator_edge_choice_is_not_independent():
    # the certified property depends on *which* color-0 edge of each probe
    # is cut: the deterministic first-edge convention passes, quantifying
    # over every ordered edge pair does not.
    p = build_p()
    t1, t2 = build_tg(1), build_tg(2)
    assert separator_check(p, "z0", "z1", [(t1, t1)])
    assert not separator_check(p, "z0", "z1", every_edge_choice([(t1, t1)]))
    assert not separator_check(p, "z0", "z1", every_edge_choice([(t1, t2)]))


def test_documented_bad_insert_fails():
    # the crosswise closure of the same interaction vertex is NOT a
    # separator: splicing it into a propagator line changes the boundary
    model = builtin_model("phi4-rank3")
    seen = {}
    for g in enumerate_vacuum(model, 1):
        seen.setdefault(canonical_certificate(g), g)
    assert len(seen) == 6
    p = build_p()
    verdicts = []
    for _, g in sorted(seen.items()):
        zs = sorted(e for e, ed in g.edges.items() if ed.color == 0)
        verdicts.append(
            (is_isomorphic(g, p).isomorphic, separator_check(g, zs[0], zs[1], probes()))
        )
    # exactly one closure passes, and it is P itself
    assert verdicts.count((True, True)) == 1
    assert all(ok == is_p for is_p, ok in verdicts)


def test_separator_check_input_validation():
    p = build_p()
    with pytest.raises(GraphError, match="distinct"):
        separator_check(p, "z0", "z0", [])
    with pytest.raises(GraphError):
        separator_check(p, "x0.c11", "z1", [])  # not a color-0 edge
    r0 = load_fixture("r0.cg")  # a 3-colored probe against a 4-colored separator
    with pytest.raises(GraphError, match=r"^color sets differ: \(0, 1, 2\) vs \(0, 1, 2, 3\)$"):
        separator_check(p, "z0", "z1", [(r0, r0)])


def test_spliced_boundary_splits_explicitly():
    # direct statement of the certified property on one probe pair
    p = build_p()
    t1, t2 = build_tg(1), build_tg(2)
    expected = disjoint_union(boundary_graph(t1), boundary_graph(t2))
    # replicate: cut first internal 0-edge of each probe, splice through P
    g2, h2, p2 = add_prefix(t1, "g."), add_prefix(t2, "h."), add_prefix(p, "p.")
    ge = sorted(e for e, ed in t1.edges.items() if ed.color == 0)[0]
    he = sorted(e for e, ed in t2.edges.items() if ed.color == 0)[0]
    left = connected_sum(g2, "g." + ge, p2, "p.z0")
    spliced = connected_sum(left, "p.z1", h2, "h." + he)
    assert is_isomorphic(boundary_graph(spliced), expected).isomorphic


# --------------------------------------------------- random-pair properties

MATRIX_POOL = []


def matrix_pool():
    if not MATRIX_POOL:
        model = builtin_model("phi4-matrix")
        seen = {}
        for k in (1, 2):
            for g in enumerate_vacuum(model, k):
                seen.setdefault(canonical_certificate(g), g)
        MATRIX_POOL.extend(g for _, g in sorted(seen.items()))
    return MATRIX_POOL


@given(st.data())
@settings(max_examples=40)
def test_connected_sum_euler_lemma_random(data):
    pool = matrix_pool()
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    color = data.draw(st.sampled_from(sorted(a.colors)))
    ea = data.draw(
        st.sampled_from(sorted(e for e, ed in a.edges.items() if ed.color == color))
    )
    eb = data.draw(
        st.sampled_from(sorted(e for e, ed in b.edges.items() if ed.color == color))
    )
    s = connected_sum(a, ea, b, eb)
    assert euler_characteristic(s) == (
        euler_characteristic(a) + euler_characteristic(b) - 2
    )
    assert two_bubble_count(s) == two_bubble_count(a) + two_bubble_count(b) - 2


def test_open_close_random_roundtrips():
    rng = random.Random(20240817)
    pool = matrix_pool()
    for _ in range(25):
        g = rng.choice(pool)
        zeros = sorted(e for e, ed in g.edges.items() if ed.color == 0)
        e = rng.choice(zeros)
        o = open_edge(g, e)
        back = close_legs(o, f"{e}.w", f"{e}.b")
        assert is_isomorphic(back, g).isomorphic


def _prefixed(g, prefix):
    """g with every label prefixed, renamed by the checking constructor."""
    return relabel(
        g,
        {v: prefix + v for v in g.vertices},
        {e: prefix + e for e in g.edges},
        {l: prefix + l for l in g.legs},
    )


def _random_splice(rng):
    """A row of 1-5 blocks (some already open), each with a prefix (the
    first sometimes none), links of random colors between uncut edges, and
    a few uncut color-0 edges to open; labels name prefixed edges."""
    blocks = []
    for k in range(rng.randint(1, 5)):
        g = rng.choice(matrix_pool())
        if rng.random() < 0.3:
            g = open_edge(g, rng.choice(sorted(e for e, x in g.edges.items() if x.color == 0)))
        blocks.append((g, "" if k == 0 and rng.random() < 0.3 else f"b{k}."))
    prefixed = [_prefixed(g, prefix) for g, prefix in blocks]
    cut = set()

    def uncut(graphs, color):
        return [e for g in graphs for e, x in g.edges.items() if x.color == color and e not in cut]

    links = []
    for k in range(1, len(blocks)):
        color = rng.choice([c for c in (0, 1, 2) if uncut(prefixed[:k], c)])
        links.append(
            (rng.choice(uncut(prefixed[:k], color)), rng.choice(uncut([prefixed[k]], color)))
        )
        cut.update(links[-1])
    zeros = uncut(prefixed, 0)
    return blocks, prefixed, links, rng.sample(zeros, rng.randint(0, min(3, len(zeros))))


def test_splice_equals_the_successive_sums_and_openings():
    # the prefixes applied inside the splice against blocks prefixed first
    rng = random.Random(1608)
    for _ in range(300):
        blocks, prefixed, links, opens = _random_splice(rng)
        s = prefixed[0]
        for block, (e, f) in zip(prefixed[1:], links):
            s = connected_sum(s, e, block, f)
        for e in opens:
            s = open_edge(s, e)
        assert graph_state(_splice(blocks, links, opens)) == graph_state(s)
