"""Interaction models, membership, enumeration, and the graph families."""

from __future__ import annotations

import itertools
import random

import pytest

from tensorgraphs import graphs as graphs_module
from tensorgraphs import models as models_module
from tensorgraphs.graphs import (
    Bubble,
    ColoredGraph,
    Edge,
    GraphError,
    Leg,
    add_prefix,
    amputate,
    bubbles,
    canonical_certificate,
    connected_components,
    disjoint_union,
    is_isomorphic,
    parse,
    relabel,
    remove_color,
    serialize,
)
from tensorgraphs.homology import euler_characteristic, homology
from tensorgraphs.jackets import gurau_degree
from tensorgraphs.models import (
    MAX_FAMILY_PARAMETER,
    _N_BUBBLE,
    _O_EDGES,
    MembershipReport,
    ModelSpec,
    _chain,
    _leg_fragment,
    _o_base,
    _swap_bubble_colors,
    build,
    build_cg,
    build_dipole,
    build_kg,
    build_l,
    build_m,
    build_melon,
    build_n,
    build_necklace,
    build_o,
    build_p,
    build_qg,
    build_qgbc,
    build_r0,
    build_r1,
    build_tg,
    build_twopoint,
    builtin_model,
    centralizer_order,
    count_vacuum,
    default_probes,
    enumerate_vacuum,
    find_separators,
    is_member,
    separator_m,
    separator_p,
)
from tensorgraphs.surgery import (
    _probe_setups,
    _separates,
    boundary_graph,
    cone,
    connected_sum,
    crys_sum,
    open_edge,
    separator_check,
)

from conftest import (
    CLOSED_FIXTURES,
    OPEN_FIXTURES,
    every_edge_choice,
    fixture_text,
    graph_state,
    load_fixture,
)


def two_bubble_count(g):
    return sum(
        len(bubbles(g, (c1, c2)))
        for i, c1 in enumerate(g.colors)
        for c2 in g.colors[i + 1 :]
    )


# ----------------------------------------------------------------- models

def test_builtin_models():
    m2 = builtin_model("phi4-matrix")
    assert m2.rank == 2
    assert m2.vertex_names == ("V",)
    assert len(m2.upsilon) == 1
    m3 = builtin_model("phi4-rank3")
    assert m3.rank == 3
    assert m3.vertex_names == ("V1", "V2", "V3")
    assert len(m3.upsilon) == 3
    mp = builtin_model("matrix-2p:3")
    assert mp.rank == 2
    assert mp.vertex_names == ("V6",)
    assert len(mp.upsilon[0].vertices) == 6


def test_model_vertices_carry_no_walk_slot():
    # ModelSpec takes each vertex's certificate and automorphisms from
    # arrays of its own, so a built model leaves no walk slot on a vertex
    models_module._builtin_model.cache_clear()
    for name in ("phi4-matrix", "phi4-rank3", "matrix-2p:3"):
        upsilon = builtin_model(name).upsilon
        assert [v._walks for v in upsilon] == [None] * len(upsilon), name


def test_unknown_model_rejected():
    with pytest.raises(GraphError, match="unknown model"):
        builtin_model("nope")
    with pytest.raises(GraphError):
        builtin_model("matrix-2p:0")


def test_unbalanced_model_vertex_is_rejected():
    # w1-b1 (color 1), w2-b1 (color 2): connected and closed, but no Wick
    # contraction can pair two whites with one black
    lopsided = ColoredGraph(
        (1, 2), {"w1": "w", "w2": "w", "b1": "b"},
        [Edge("s", 1, "w1", "b1"), Edge("t", 2, "w2", "b1")],
    )
    with pytest.raises(GraphError, match="vertex V has unequal white and black counts"):
        ModelSpec("lopsided", 2, (lopsided,), ("V",))
    # the balanced vertices are still admitted, whatever their name
    assert ModelSpec("m", 2, builtin_model("matrix-2p:3").upsilon, ("W",)).rank == 2


def test_model_vertices_must_be_closed_connected_and_on_the_model_colors():
    d = build_dipole(2)
    with pytest.raises(GraphError, match=r"^vertex V: colors \(1, 2, 3\) != 1..2$"):
        ModelSpec("x", 2, (build_dipole(3),), ("V",))
    # legs sit on color 0, which no model color set has
    with pytest.raises(GraphError, match=r"^vertex V: colors \(0, 1, 2, 3\) != 1..3$"):
        ModelSpec("x", 3, (load_fixture("twopoint.cg"),), ("V",))
    with pytest.raises(GraphError, match="^vertex V is not connected$"):
        ModelSpec("x", 2, (disjoint_union(d, d),), ("V",))


def test_rank3_interaction_vertices_are_distinct():
    m3 = builtin_model("phi4-rank3")
    certs = {canonical_certificate(v) for v in m3.upsilon}
    assert len(certs) == 3


# ------------------------------------------------------------- membership

def test_r1_is_a_matrix_member():
    rep = is_member(build_r1(), builtin_model("phi4-matrix"))
    assert rep.ok
    assert rep.components == (("a", "V"), ("c", "V"))
    assert rep.lines() == ["component a: V", "component c: V", "member"]


def test_membership_requires_matching_palette():
    with pytest.raises(GraphError, match="do not match rank-3 model"):
        is_member(build_r1(), builtin_model("phi4-rank3"))


def test_tg_is_a_rank3_member():
    rep = is_member(build_tg(1), builtin_model("phi4-rank3"))
    assert rep.ok
    assert len(rep.components) == 6  # two gadgets per ring position


def test_crys_sum_breaks_membership():
    # vertex-deletion sum of two members: the fused interaction pattern is
    # no longer a disjoint union of allowed vertices
    r1 = build_r1()
    fused = crys_sum(r1, "p", r1, "a")
    rep = is_member(fused, builtin_model("phi4-matrix"))
    assert not rep.ok
    assert rep.lines()[-1] == "not member"
    assert rep.components == (("l.a", None), ("l.c", "V"), ("r.c", "V"))
    assert "component l.a: no match" in rep.lines()


def test_non_member_open_graph():
    # propagator chain: its blocks are 2-vertex melons, not quartic vertices
    rep = is_member(load_fixture("twopoint.cg"), builtin_model("phi4-rank3"))
    assert not rep.ok
    assert all(name is None for _, name in rep.components)


def reference_is_member(g, model):
    """The membership test as it was: one graph per component, matched by
    isomorphism against each interaction vertex in turn."""
    expected = tuple(range(model.rank + 1))
    if g.colors != expected:
        raise GraphError(
            f"graph colors {g.colors} do not match rank-{model.rank} model "
            f"(expected {expected})"
        )
    stripped = remove_color(amputate(g) if g.is_open else g, 0)
    entries = []
    for comp in connected_components(stripped):
        match = None
        for name, vertex in zip(model.vertex_names, model.upsilon):
            if is_isomorphic(comp, vertex, "exact-colors"):
                match = name
                break
        entries.append((min(comp.vertices), match))
    return MembershipReport(all(m is not None for _, m in entries), tuple(entries))


MODELS = ("phi4-matrix", "phi4-rank3", "matrix-2p:2", "matrix-2p:3", "matrix-2p:4")


def _membership_outcome(member, g, model):
    try:
        return member(g, model)
    except GraphError as exc:
        return str(exc)


def _random_candidate(rng, rank):
    """A random graph on colors 0..rank: up to four whites, about as many
    blacks, one near-perfect matching per color and legs on some of the
    vertices without a color-0 edge."""
    n = rng.randint(1, 4)
    whites = [f"w{i}" for i in range(n)]
    blacks = [f"b{i}" for i in range(max(1, n + rng.choice((0, 0, 0, 1, -1))))]
    edges = []
    for c in range(rank + 1):
        pairs = list(zip(whites, rng.sample(blacks, len(blacks))))
        edges += [Edge(f"e{c}.{w}", c, w, b) for w, b in pairs if rng.random() < 0.85]
    zero = {v for e in edges if e.color == 0 for v in (e.white, e.black)}
    legs = [
        Leg(f"l.{v}", v) for v in whites + blacks if v not in zero and rng.random() < 0.5
    ]
    vertices = dict.fromkeys(whites, "w") | dict.fromkeys(blacks, "b")
    return ColoredGraph(range(rank + 1), vertices, edges, legs)


def test_membership_matches_the_reference_on_fixtures():
    models = [builtin_model(name) for name in MODELS]
    for name in CLOSED_FIXTURES + OPEN_FIXTURES:
        g = load_fixture(name)
        for model in models:
            assert _membership_outcome(is_member, g, model) == _membership_outcome(
                reference_is_member, g, model
            ), (name, model.name)


@pytest.mark.parametrize("source", MODELS)
def test_membership_matches_the_reference_on_wick_contractions(source):
    models = [builtin_model(name) for name in MODELS]
    for k in (1, 2, 3):
        try:
            graphs = enumerate_vacuum(builtin_model(source), k)
        except GraphError:  # above the enumeration cap
            continue
        for g in graphs:
            for model in models:
                if model.rank + 1 == len(g.colors):
                    assert is_member(g, model) == reference_is_member(g, model)


def test_membership_matches_the_reference_on_random_graphs():
    rng = random.Random(2016)
    models = [builtin_model(name) for name in MODELS]
    verdicts = set()
    for _ in range(600):
        rank = rng.choice((2, 3))
        g = _random_candidate(rng, rank)
        for model in models:
            if model.rank == rank:
                report = is_member(g, model)
                assert report == reference_is_member(g, model)
                verdicts.add(report.ok)
    assert verdicts == {True, False}


# ------------------------------------------------------------ enumeration

def test_enumerate_matrix_k1():
    model = builtin_model("phi4-matrix")
    assert len(enumerate_vacuum(model, 1)) == 2
    assert len(enumerate_vacuum(model, 1, dedup=True)) == 2


def test_enumerate_rank3_counts():
    model = builtin_model("phi4-rank3")
    assert len(enumerate_vacuum(model, 1)) == 6
    assert len(enumerate_vacuum(model, 1, dedup=True)) == 6
    assert len(enumerate_vacuum(model, 2)) == 144
    assert len(enumerate_vacuum(model, 2, dedup=True)) == 54


def test_enumerated_graphs_are_valid_members():
    model = builtin_model("phi4-rank3")
    for g in enumerate_vacuum(model, 2, dedup=True)[:10]:
        assert g.is_closed
        assert is_member(g, model).ok


def test_enumeration_cap_is_enforced():
    with pytest.raises(GraphError, match="enumeration cap"):
        enumerate_vacuum(builtin_model("phi4-matrix"), 4)


# ------------------------------------------------------------- counting
#
# count_vacuum counts what enumerate_vacuum builds: Wick contractions by
# sum of w!, classes by Burnside.  Enumeration with certificate dedup is the
# oracle wherever the cap admits it.

VACUUM_COUNTS = {  # (model, k): (Wick contractions, classes up to isomorphism)
    ("phi4-matrix", 1): (2, 2),
    ("phi4-matrix", 2): (24, 8),
    ("phi4-matrix", 3): (720, 34),
    ("matrix-2p:2", 1): (2, 2),
    ("matrix-2p:2", 2): (24, 8),
    ("matrix-2p:2", 3): (720, 34),
    ("phi4-rank3", 1): (6, 6),
    ("phi4-rank3", 2): (144, 54),
    ("phi4-rank3", 3): (7200, 642),
    ("matrix-2p:3", 1): (6, 4),
    ("matrix-2p:3", 2): (720, 58),
}


@pytest.mark.parametrize("name,k", sorted(VACUUM_COUNTS))
def test_count_vacuum_pinned(name, k):
    assert count_vacuum(builtin_model(name), k) == VACUUM_COUNTS[name, k]


def assert_counts_match_enumeration(model, max_raw=None):
    """count_vacuum against enumerate_vacuum for k = 1, 2, ... up to the cap,
    which both must hit with the same message; stops early once a count
    passes `max_raw` Wick contractions."""
    for k in itertools.count(1):
        try:
            counts = count_vacuum(model, k)
        except GraphError as exc:
            assert "enumeration cap" in str(exc)
            with pytest.raises(GraphError) as info:
                enumerate_vacuum(model, k)
            assert str(info.value) == str(exc)
            return
        if max_raw is not None and counts[0] > max_raw:
            return
        raw = enumerate_vacuum(model, k)
        assert counts == (len(raw), len(enumerate_vacuum(model, k, dedup=True)))


@pytest.mark.parametrize(
    "name",
    ["phi4-matrix", "phi4-rank3"]
    + [f"matrix-2p:{p}" for p in range(2, MAX_FAMILY_PARAMETER + 1)],
)
def test_count_vacuum_matches_enumeration_on_builtin_models(name):
    assert_counts_match_enumeration(builtin_model(name))


def test_count_vacuum_merges_isomorphic_vertex_types():
    # a relabelled copy of the quartic vertex: each class is counted once,
    # however many combinations of the two types realize it
    v = builtin_model("phi4-matrix").upsilon[0]
    twin = ModelSpec("twin", 2, (add_prefix(v, "copy."), v), ("A", "B"))
    assert_counts_match_enumeration(twin)
    for k in (1, 2, 3):
        assert count_vacuum(twin, k) == ((k + 1) * VACUUM_COUNTS["phi4-matrix", k][0],
                                         VACUUM_COUNTS["phi4-matrix", k][1])


def test_count_vacuum_on_mixed_cycle_vertices():
    # the 4-gon and the 6-gon: k = 2 mixes 2 + 3 whites, k = 3 hits the cap
    # at (4-gon, 4-gon, 6-gon) after (4-gon)^3 fits
    mixed = ModelSpec(
        "mixed", 2,
        tuple(builtin_model(f"matrix-2p:{p}").upsilon[0] for p in (2, 3)),
        ("V4", "V6"),
    )
    assert_counts_match_enumeration(mixed)
    assert count_vacuum(mixed, 1) == (2 + 6, 2 + 4)
    raw, classes = count_vacuum(mixed, 2)
    assert raw == 24 + 120 + 720
    assert classes == len({canonical_certificate(g) for g in enumerate_vacuum(mixed, 2)})
    with pytest.raises(GraphError, match="^7 white vertices exceed"):
        count_vacuum(mixed, 3)


def _random_vertex(rng, rank):
    """A connected vertex on colors 1..rank with up to three whites: one
    permutation per color, now and then an edge left out."""
    while True:
        n = rng.randint(1, 3)
        edges = [
            Edge(f"e{c}.{i}", c, f"w{i}", f"b{j}")
            for c in range(1, rank + 1)
            for i, j in enumerate(rng.sample(range(n), n))
            if rng.random() < 0.9
        ]
        vertices = {f"w{i}": "w" for i in range(n)} | {f"b{i}": "b" for i in range(n)}
        v = ColoredGraph(range(1, rank + 1), vertices, edges)
        if len(connected_components(v)) == 1:
            return v


def test_count_vacuum_matches_enumeration_on_random_models():
    rng = random.Random(1307)
    for _ in range(40):
        rank = rng.randint(1, 3)
        types = [_random_vertex(rng, rank) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            types.insert(rng.randrange(len(types) + 1), add_prefix(rng.choice(types), "c."))
        names = tuple(f"V{i}" for i in range(len(types)))
        assert_counts_match_enumeration(ModelSpec("random", rank, tuple(types), names), 800)


def test_centralizer_order_counts_commuting_permutations():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        for p in perms:
            commuting = sum(
                all(p[q[i]] == q[p[i]] for i in range(n)) for q in perms
            )
            seen, lengths = set(), []
            for start in range(n):
                length, i = 0, start
                while i not in seen:
                    seen.add(i)
                    i, length = p[i], length + 1
                if length:
                    lengths.append(length)
            assert centralizer_order(lengths) == commuting


# -------------------------------------------------------------- families

def test_dipole_family():
    d = build_dipole(3)
    assert len(d.vertices) == 2 and len(d.edges) == 3
    assert d.colors == (1, 2, 3)
    assert build_dipole(4, base=0).colors == (0, 1, 2, 3)
    with pytest.raises(GraphError):
        build_dipole(0)


def test_r0_r1_profiles():
    r0, r1 = build_r0(), build_r1()
    for g in (r0, r1):
        assert len(g.vertices) == 8 and len(g.edges) == 12
        assert g.colors == (0, 1, 2)
    assert euler_characteristic(r0) == 2
    assert euler_characteristic(r1) == 0
    assert not is_isomorphic(r0, r1).isomorphic


def test_necklace_profile():
    n = build_necklace()
    assert len(n.vertices) == 4 and len(n.edges) == 8
    assert n.colors == (0, 1, 2, 3)
    assert build_necklace(base=1).colors == (1, 2, 3, 4)
    assert gurau_degree(n).degree == 1


def test_twopoint_profile():
    g = build_twopoint()
    assert g.is_open and len(g.legs) == 2
    assert len(g.vertices) == 6


def test_cg_family():
    for g in range(4):
        c = build_cg(g)
        n = 2 * g + 1
        assert len(c.vertices) == 2 * n
        assert len(c.edges) == 3 * n
        assert c.colors == (1, 2, 3)
        assert len(connected_components(c)) == 1
        assert euler_characteristic(c) == 2 - 2 * g


def test_tg_family():
    for g in (0, 1, 2):
        t = build_tg(g)
        n = 2 * g + 1
        assert t.colors == (0, 1, 2, 3)
        assert len(t.vertices) == 8 * n
        assert len(t.legs) == 2 * n
        assert len(t.edges) == 15 * n
        assert len(connected_components(t)) == 1
        assert is_isomorphic(boundary_graph(t), build_cg(g)).isomorphic


def test_o_and_n_blocks():
    o, n = build_o(), build_n()
    for blk in (o, n):
        assert len(blk.vertices) == 24 and len(blk.edges) == 36
        assert {"mu0", "nu0", "alpha0", "beta0"} <= set(blk.edges)
        assert all(blk.edges[e].color == 0 for e in ("mu0", "nu0", "alpha0", "beta0"))
    assert euler_characteristic(o) == 0
    assert euler_characteristic(n) == 2
    assert homology(o).betti == (1, 2, 1)
    assert homology(n).betti == (1, 0, 1)
    # same underlying vertices, different coloring around one central cycle
    assert sorted(o.vertices) == sorted(n.vertices)
    diff = [e for e in o.edges if o.edges[e].color != n.edges[e].color]
    assert len(diff) == 4


# ------------------------------------------------ frozen search results
#
# models.py wires the Tg gadgets, names O's distinguished edges and picks
# N's central bubble from frozen constants.  The searches that found them
# follow, as the package ran them at first use before they were frozen (the
# package's _tg(g, cfg) is reference_tg here); the tests re-run them as
# oracles.

# The gadget configuration (t, s, wa, ba, rule) that _gadget_config finds:
# rule 0, the identity, contracts a color-3 edge (w_i, b_j) of Cg to (i, j).
FROZEN_CFG = (1, 2, ("p", "q", "b"), ("b", "a", "q"), 0)


def _opening_profile(g: ColoredGraph, alpha: str, beta: str) -> tuple[int, int]:
    """Boundary-circle counts after opening alpha, then beta as well."""
    once = open_edge(g, alpha)
    twice = open_edge(once, beta)
    return (
        len(connected_components(boundary_graph(once))),
        len(connected_components(boundary_graph(twice))),
    )


def _chain_conditions(
    base: ColoredGraph, bub: Bubble, mu: str, nu: str, alpha: str, beta: str
) -> bool:
    """Chain-level validation of a distinguished-edge candidate.

    With O = base (edges renamed) and N its central color swap: the 2-block
    chain must have 22 two-bubbles (chi = -2), the O-O-N chain 34
    (chi = -2), and opening alpha twice + beta twice + alpha once along the
    three blocks must create exactly 5 boundary circles.
    """
    o = relabel(base, edge_map={mu: "mu0", nu: "nu0", alpha: "alpha0", beta: "beta0"})
    n = _swap_bubble_colors(o, bub.edges)
    if two_bubble_count(_chain((o, o))) != 22:
        return False
    chain3 = _chain((o, o, n))
    if two_bubble_count(chain3) != 34:
        return False
    for label in ("o1.alpha0", "o1.beta0", "o2.alpha0", "o2.beta0", "o3.alpha0"):
        chain3 = open_edge(chain3, label)
    return len(connected_components(boundary_graph(chain3))) == 5


def _central_bubble(g: ColoredGraph, mu: str, nu: str) -> Bubble | None:
    """First (1,2)-bubble touching an endpoint of mu and one of nu."""
    em, en = g.edges[mu], g.edges[nu]
    ends_mu = {em.white, em.black}
    ends_nu = {en.white, en.black}
    for b in bubbles(g, (1, 2)):
        vs = set(b.vertices)
        if vs & ends_mu and vs & ends_nu:
            return b
    return None


def _search_o_edges(base: ColoredGraph) -> tuple[str, str, str, str]:
    """First (mu, nu, alpha, beta) choice of color-0 edges satisfying:

    * some (1,2)-bubble (the central one) touches endpoints of mu and nu;
    * no (0,1)- or (0,2)-bubble through alpha or beta contains mu or nu,
      so opening alpha/beta never disturbs the mu/nu chain faces;
    * swapping colors on the central bubble raises the 2-bubble count from
      12 to 14 (chi 0 -> 2);
    * on the block and on its swap, opening alpha creates one boundary
      circle and opening beta a second;
    * the chain-level conditions of :func:`_chain_conditions`.
    """
    if two_bubble_count(base) != 12:
        raise GraphError("block graph should have 12 two-bubbles")
    zeros = sorted(e for e, x in base.edges.items() if x.color == 0)
    face_sets = [
        frozenset(b.edges) for b in bubbles(base, (0, 1)) + bubbles(base, (0, 2))
    ]
    centrals: dict[tuple[str, str], Bubble | None] = {}
    twins: dict[tuple, ColoredGraph | None] = {}
    profiles: dict[tuple, tuple[int, int]] = {}

    def central(mu: str, nu: str) -> Bubble | None:
        key = (mu, nu)
        if key not in centrals:
            centrals[key] = _central_bubble(base, mu, nu)
        return centrals[key]

    def twin(bub: Bubble) -> ColoredGraph | None:
        if bub.key not in twins:
            g = _swap_bubble_colors(base, bub.edges)
            twins[bub.key] = g if two_bubble_count(g) == 14 else None
        return twins[bub.key]

    def profile(tag, g: ColoredGraph, alpha: str, beta: str) -> tuple[int, int]:
        key = (tag, alpha, beta)
        if key not in profiles:
            profiles[key] = _opening_profile(g, alpha, beta)
        return profiles[key]

    for mu, nu, alpha, beta in itertools.permutations(zeros, 4):
        bub = central(mu, nu)
        if bub is None:
            continue
        if any(fs & {alpha, beta} and fs & {mu, nu} for fs in face_sets):
            continue
        n = twin(bub)
        if n is None:
            continue
        if profile("o", base, alpha, beta) != (1, 2):
            continue
        if profile(bub.key, n, alpha, beta) != (1, 2):
            continue
        if _chain_conditions(base, bub, mu, nu, alpha, beta):
            return mu, nu, alpha, beta
    raise GraphError("no distinguished-edge choice found in (R0 # R1) # R0'")


# Stub names on the white-side gadget pair with those on the black side:
# o with p (per color-1 edge), d with q (color 2), w with b (color 3).
_STUB_PARTNER = {"o": "p", "d": "q", "w": "b"}

# How a color-3 edge (w_i, b_j) of Cg maps to a gadget pair (a_i', m_j').
_Z3_RULES = (
    lambda i, j, n: (i, j),
    lambda i, j, n: (i, (j + 1) % n),
    lambda i, j, n: ((i + 1) % n, j),
    lambda i, j, n: (i, (j - 1) % n),
    lambda i, j, n: ((i - 1) % n, j),
)


def _iter_gadget_configs():
    """All parity-consistent gadget labelings, in deterministic order.

    A configuration is (t, s, wa, ba, rule): the crossing colors of the
    white- and black-side fragments, the assignment of stub names (o,d,w)
    to the white fragment's non-legged vertices (b,p,q), the assignment of
    (p,q,b) to the black fragment's (a,b,q), and the color-3 contraction
    rule.  Parity: the single white stub on the white side must pair with
    the single black stub on the black side.
    """
    for t, s in itertools.product((1, 2, 3), repeat=2):
        for wa in itertools.permutations(("b", "p", "q")):
            white_stub = ("o", "d", "w")[wa.index("b")]
            for ba in itertools.permutations(("a", "b", "q")):
                black_stub = ("p", "q", "b")[ba.index("q")]
                if _STUB_PARTNER[white_stub] != black_stub:
                    continue
                for rule in range(len(_Z3_RULES)):
                    yield (t, s, wa, ba, rule)


def reference_tg(g: int, cfg) -> ColoredGraph:
    """Build Tg from a gadget configuration: one gadget per Cg vertex."""
    t, s, wa, ba, rule = cfg
    n = 2 * g + 1
    shift = (n - 1) // 2
    vertices: dict[str, str] = {}
    edges: list[Edge] = []
    legs: list[Leg] = []
    a_stub: list[dict[str, str]] = []
    m_stub: list[dict[str, str]] = []
    for i in range(n):
        for prefix, crossing, leg_at, names, assign, stubs in (
            (f"a{i}.", t, "a", ("o", "d", "w"), wa, a_stub),
            (f"m{i}.", s, "p", ("p", "q", "b"), ba, m_stub),
        ):
            piece = add_prefix(_leg_fragment(crossing, leg_at), prefix)
            vertices.update(piece.vertices)
            edges.extend(piece.edges.values())
            legs.extend(piece.legs.values())
            stubs.append({k: prefix + v for k, v in zip(names, assign)})

    def contract(label: str, u: str, v: str) -> None:
        white, black = (u, v) if vertices[u] == "w" else (v, u)
        edges.append(Edge(label, 0, white, black))

    for i in range(n):
        contract(f"z1.{i}", a_stub[i]["o"], m_stub[i]["p"])
        contract(f"z2.{i}", a_stub[(i + 1) % n]["d"], m_stub[i]["q"])
        i2, j2 = _Z3_RULES[rule](i, (i + shift) % n, n)
        contract(f"z3.{i}", a_stub[i2]["w"], m_stub[j2]["b"])
    return ColoredGraph((0, 1, 2, 3), vertices, edges, legs)


def _gadget_config():
    """The first gadget configuration with boundary(T1) = C1, boundary(T2) = C2."""
    survivors = []
    c1 = build_cg(1)
    for cfg in _iter_gadget_configs():
        t1 = reference_tg(1, cfg)
        if len(connected_components(t1)) != 1:
            continue
        if not is_isomorphic(boundary_graph(t1), c1):
            continue
        survivors.append(cfg)
    c2 = build_cg(2)
    for cfg in survivors:
        if is_isomorphic(boundary_graph(reference_tg(2, cfg)), c2):
            return cfg
    raise GraphError("no gadget labeling reproduces the canonical boundaries")


def test_gadget_search_returns_the_frozen_configuration():
    assert _gadget_config() == FROZEN_CFG
    rule = _Z3_RULES[FROZEN_CFG[4]]
    assert all(rule(i, j, 5) == (i, j) for i in range(5) for j in range(5))


def test_build_tg_matches_the_searched_wiring():
    for g in range(5):
        assert serialize(build_tg(g)) == serialize(reference_tg(g, FROZEN_CFG))


def test_o_edge_search_returns_the_frozen_map():
    base = _o_base()
    mu, nu, alpha, beta = _search_o_edges(base)
    found = {mu: "mu0", nu: "nu0", alpha: "alpha0", beta: "beta0"}
    assert found == _O_EDGES
    assert serialize(relabel(base, edge_map=found)) == serialize(build_o())
    assert serialize(build_o()) == fixture_text("o.cg")
    assert _N_BUBBLE == _central_bubble(build_o(), "mu0", "nu0").edges
    assert serialize(build_n()) == fixture_text("n.cg")


def test_qg_and_kg_families():
    for g in (1, 2, 3):
        q = build_qg(g)
        assert len(q.vertices) == 24 * g
        assert len(q.edges) == 36 * g
        assert two_bubble_count(q) == 10 * g + 2
        assert euler_characteristic(q) == 2 - 2 * g
        k = build_kg(g)
        assert len(k.vertices) == 24 * g
        assert euler_characteristic(k) == 2 - 2 * g
    assert not is_isomorphic(build_qg(2), build_kg(2)).isomorphic


def test_qg_requires_positive_genus():
    with pytest.raises(GraphError):
        build_qg(0)


def test_qgbc_family():
    g = build_qgbc(2, 2, 3)
    assert len(g.vertices) == 72  # three chained blocks
    assert len(g.legs) == 10
    b = boundary_graph(g)
    assert len(connected_components(b)) == 5
    small = build_qgbc(0, 1, 1)
    assert len(small.vertices) == 24
    assert len(small.legs) == 4
    assert len(connected_components(boundary_graph(small))) == 2


def test_qgbc_validation():
    with pytest.raises(GraphError, match="max\\(g, C\\) >= 1"):
        build_qgbc(0, 0, 0)
    with pytest.raises(GraphError, match="B <= C"):
        build_qgbc(1, 2, 1)


def test_l_family():
    assert is_isomorphic(build_l([2]), build_tg(2)).isomorphic
    l23 = build_l([2, 3])
    assert len(connected_components(l23)) == 1
    assert is_member(l23, builtin_model("phi4-rank3")).ok
    parts = connected_components(boundary_graph(l23))
    genera = sorted(
        (len(p.vertices) // 2 - 1) // 2 for p in parts
    )  # Cg has 2(2g+1) vertices
    assert genera == [2, 3]


def test_l_requires_genera():
    with pytest.raises(GraphError):
        build_l([])


# The chain builders as they were: one connected_sum per link and one
# open_edge per opening, each copying the whole chain so far.  Every family
# must equal them, insertion order included.

def reference_o_base():
    left = connected_sum(
        add_prefix(build_r0(), "r0."), "r0.alpha0", add_prefix(build_r1(), "r1."), "r1.alpha0"
    )
    return connected_sum(left, "r1.beta0", add_prefix(build_r0(), "r0b."), "r0b.alpha0")


def reference_chain(blocks, left="nu0", right="mu0"):
    s = add_prefix(blocks[0], "o1.")
    for k in range(2, len(blocks) + 1):
        s = connected_sum(
            s, f"o{k - 1}.{left}", add_prefix(blocks[k - 1], f"o{k}."), f"o{k}.{right}"
        )
    return s


def reference_qgbc(g, b, c):
    m = max(g, c)
    s = reference_chain([build_o() if k <= g else build_n() for k in range(1, m + 1)])
    for k in range(1, m + 1):
        if k <= b:
            s = open_edge(open_edge(s, f"o{k}.alpha0"), f"o{k}.beta0")
        elif k <= c:
            s = open_edge(s, f"o{k}.alpha0")
    return s


def reference_first_internal_zero(g, prefix):
    for label in sorted(g.edges):
        e = g.edges[label]
        if e.color == 0 and label.startswith(prefix) and not label.endswith("'"):
            return label
    raise GraphError(f"no internal color-0 edge with prefix {prefix!r}")


def reference_l(genera):
    sep = separator_p()
    s = add_prefix(build_tg(genera[0]), "t1.")
    for i in range(2, len(genera) + 1):
        block = add_prefix(build_tg(genera[i - 1]), f"t{i}.")
        pin = add_prefix(sep.graph, f"p{i}.")
        s = connected_sum(
            s, reference_first_internal_zero(s, f"t{i - 1}."), pin, f"p{i}.{sep.k}"
        )
        s = connected_sum(
            s, f"p{i}.{sep.l}", block, reference_first_internal_zero(block, f"t{i}.")
        )
    return s


def test_o_and_n_equal_the_successive_sums():
    assert graph_state(_o_base()) == graph_state(reference_o_base())
    o = relabel(reference_o_base(), edge_map=_O_EDGES)
    assert graph_state(build_o()) == graph_state(o)
    n = _swap_bubble_colors(o, _central_bubble(o, "mu0", "nu0").edges)
    assert graph_state(build_n()) == graph_state(n)


def test_qg_and_kg_equal_the_successive_sums():
    o = build_o()
    for g in range(1, 9):
        assert graph_state(build_qg(g)) == graph_state(reference_chain((o,) * g))
        kg = reference_chain((o,) * g, "beta0", "alpha0")
        assert graph_state(build_kg(g)) == graph_state(kg)
    # a chain that mixes O and N, as the search for O's edges builds
    mixed = (o, build_n(), o)
    assert graph_state(_chain(mixed)) == graph_state(reference_chain(mixed))


def test_qgbc_equals_the_successive_sums_and_openings():
    built = 0
    for g in range(6):
        for c in range(6):
            for b in range(c + 1):
                if max(g, c) < 1:
                    continue
                assert graph_state(build_qgbc(g, b, c)) == graph_state(
                    reference_qgbc(g, b, c)
                ), (g, b, c)
                built += 1
    assert built == 125


@pytest.mark.parametrize(
    "genera",
    [[0], [2], [5], [0, 0], [1, 0], [2, 3], [0, 1, 2], [4, 1, 3], [3, 0, 0, 1],
     [1, 1, 1, 1, 1], [0, 2, 0, 2, 0, 2], [2, 0, 3, 1, 0, 4]],
)
def test_l_equals_the_successive_sums(genera):
    assert graph_state(build_l(genera)) == graph_state(reference_l(genera))


def test_chain_builders_assemble_linearly(monkeypatch):
    """A timing-free growth oracle: the edges handed to trusted assembly,
    the one routine that stores a graph's parts unchecked, while a chain
    family is built stay within 1.5 times the output's edges: each block is
    prefixed as the splice copies it, and each tg gadget as build_tg writes
    it, with no prefixed copy in between (that copy read 2.0-2.13x, and
    copying the chain at every sum 17-67x)."""
    build_o(), build_n(), separator_p()
    assembled = 0
    trusted = ColoredGraph._trusted

    def counting(colors, parity, edges, legs=None):
        nonlocal assembled
        assembled += len(edges)
        return trusted(colors, parity, edges, legs)

    monkeypatch.setattr(ColoredGraph, "_trusted", staticmethod(counting))
    for family, params in (
        ("tg", {"g": 32}),
        ("qg", {"g": 32}),
        ("kg", {"g": 32}),
        ("qgbc", {"g": 32, "b": 16, "c": 32}),
        ("l", {"genera": [3] * 16}),
        ("l", {"genera": [0] * 64}),
    ):
        assembled = 0
        out = build(family, **params)
        assert assembled <= 1.5 * len(out.edges), (family, assembled / len(out.edges))


# -------------------------------------------------------------- separators

def test_frozen_p_profile():
    p = build_p()
    assert len(p.vertices) == 4
    assert len(p.edges) == 8
    assert p.colors == (0, 1, 2, 3)
    assert p.is_closed
    res = separator_p()
    assert (res.k, res.l) == ("z0", "z1")
    assert p.edges["z0"].color == 0 and p.edges["z1"].color == 0


def test_frozen_m_is_two_copies_of_p():
    m = build_m()
    assert len(m.vertices) == 8
    parts = connected_components(m)
    assert len(parts) == 2
    p = build_p()
    assert all(is_isomorphic(part, p).isomorphic for part in parts)
    res = separator_m()
    assert (res.k, res.l) == ("z0", "z1")


def test_default_probes_shape():
    probes = default_probes()
    assert len(probes) == 3
    sizes = [(len(a.vertices), len(b.vertices)) for a, b in probes]
    assert sizes == [(24, 24), (24, 40), (6, 24)]
    # each call returns its own list over the same per-process pairs
    probes.clear()
    default_probes().append((build_tg(0), build_tg(0)))
    t1 = build_tg(1)
    fresh = [(t1, t1), (t1, build_tg(2)), (cone(build_cg(1)), t1)]
    probes = default_probes()
    assert len(probes) == 3
    for got, want in zip(probes, fresh):
        assert list(map(graph_state, got)) == list(map(graph_state, want))


def _reference_separator_check(p, k, l, probes):
    """separator_check, by connected sums and is_isomorphic."""
    for g_probe, h_probe in probes:
        g_edges = sorted(e for e, x in g_probe.edges.items() if x.color == 0)
        h_edges = sorted(e for e, x in h_probe.edges.items() if x.color == 0)
        if not g_edges or not h_edges:
            continue
        expected = disjoint_union(boundary_graph(g_probe), boundary_graph(h_probe))
        left = connected_sum(add_prefix(g_probe, "g."), "g." + g_edges[0], p, k)
        spliced = connected_sum(left, l, add_prefix(h_probe, "h."), "h." + h_edges[0])
        if not is_isomorphic(boundary_graph(spliced), expected):
            return False
    return True


def _rank3_candidates():
    """(graph, k, l) for each ordered pair of distinct color-0 edges of the
    distinct phi4-rank3 contractions of one and of two vertices."""
    for k in (1, 2):
        for g in enumerate_vacuum(builtin_model("phi4-rank3"), k, dedup=True):
            zeros = sorted(e for e, x in g.edges.items() if x.color == 0)
            for e, f in itertools.permutations(zeros, 2):
                yield g, e, f


@pytest.mark.parametrize("every,passes", [(False, 252), (True, 192)], ids=["first", "all"])
def test_separator_check_pass_counts_on_rank3_contractions(every, passes):
    # one check per candidate, cutting the first edge of each probe side or,
    # through every_edge_choice, each ordered choice of edges; that setups
    # prepared once per search give the same verdicts is
    # test_reused_probe_setups_give_the_verdicts_of_fresh_ones
    probes = default_probes()
    choices = every_edge_choice(probes) if every else probes
    verdicts = []
    for g, e, f in _rank3_candidates():
        verdict = separator_check(g, e, f, choices)
        if not every:
            assert _reference_separator_check(g, e, f, probes) == verdict
        elif verdict:  # passing for every edge choice, it passes for the first
            assert separator_check(g, e, f, probes)
        verdicts.append(verdict)
    assert (len(verdicts), sum(verdicts)) == (660, passes)


def test_reused_probe_setups_give_the_verdicts_of_fresh_ones():
    # setups are cached per probe graphs, by identity: the same per-process
    # default_probes() pairs get the same setups back; equal graphs that are
    # other objects get setups of their own, which must agree
    probes = tuple(map(tuple, default_probes()))
    reused = _probe_setups(probes)
    hits = _probe_setups.cache_info().hits
    assert _probe_setups(tuple(map(tuple, default_probes()))) is reused
    assert _probe_setups.cache_info().hits == hits + 1
    assert _probe_setups(probes[::-1]) is not reused
    copies = tuple(tuple(parse(serialize(x)) for x in pair) for pair in probes)
    fresh = _probe_setups(copies)
    assert fresh is not reused
    verdicts = []
    for g, e, f in _rank3_candidates():
        verdicts.append(_separates(g, e, f, reused))
        assert _separates(g, e, f, fresh) == verdicts[-1]
    assert 0 < sum(verdicts) < len(verdicts)
    maxsize = _probe_setups.cache_info().maxsize
    for _ in range(2 * maxsize):
        _probe_setups((tuple(parse(serialize(x)) for x in probes[0]),))
    assert _probe_setups.cache_info().currsize == maxsize


def test_find_separators_stops_building_at_its_answer(monkeypatch):
    # vacuum graphs are built one at a time: M is the first k = 2 class, so
    # the search builds all 6 contractions of k = 1 and 1 of the 144 of k = 2,
    # and certifies each once, for its class, with no isomorphism test
    built = []
    real = models_module._wick_contractions

    def counting(model, k):
        for g in real(model, k):
            built.append((k, g))
            yield g

    certified = []
    real_certs = graphs_module._component_certs

    def counting_certs(g, colors=None):
        certified.append(g)
        return real_certs(g, colors)

    monkeypatch.setattr(models_module, "_wick_contractions", counting)
    monkeypatch.setattr(graphs_module, "_component_certs", counting_certs)
    first, second = find_separators(builtin_model("phi4-rank3"), 2)
    assert [k for k, _ in built] == [1] * 6 + [2]
    assert [sum(x is g for x in certified) for _, g in built] == [1] * 7
    for got, want in ((first, separator_p()), (second, separator_m())):
        assert serialize(got.graph) == serialize(want.graph)
        assert (got.k, got.l) == (want.k, want.l)


def test_frozen_separators_pass_their_own_check():
    probes = default_probes()
    for res in (separator_p(), separator_m()):
        assert separator_check(res.graph, res.k, res.l, probes)


def test_find_separators_bound_too_small():
    with pytest.raises(GraphError, match="raise the bound"):
        find_separators(builtin_model("phi4-rank3"), 1)


def test_find_separators_requires_rank3():
    with pytest.raises(GraphError):
        find_separators(builtin_model("phi4-matrix"), 2)


# ------------------------------------------------------------- dispatcher

def test_build_dispatcher():
    assert is_isomorphic(build("dipole", d=3), build_dipole(3)).isomorphic
    assert is_isomorphic(build("qg", g=1), build_qg(1)).isomorphic
    assert is_isomorphic(build("melon"), build_melon()).isomorphic


def test_build_caps_family_parameters():
    over = MAX_FAMILY_PARAMETER + 1
    # tests/test_cli.py checks each CLI flag one step above the cap
    for params in ({"g": over, "b": 0, "c": 0}, {"g": 1, "b": over, "c": over}):
        with pytest.raises(GraphError, match="family-parameter cap"):
            build("qgbc", **params)
    # the cap itself is admitted, and generators of genera still work
    assert len(build("tg", g=MAX_FAMILY_PARAMETER).vertices) == 8 * 129
    assert len(build("l", genera=(0 for _ in range(MAX_FAMILY_PARAMETER)))) == 764


def test_build_dispatcher_errors():
    with pytest.raises(GraphError, match="unknown family 'ufo'"):
        build("ufo")
    with pytest.raises(GraphError, match="bad parameters for 'dipole'"):
        build("dipole", zz=1)
