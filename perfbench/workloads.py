"""The three workloads: seeded inputs, timed items and their oracles.

A workload is built once per run from the seed (input generation, untimed)
and then yields rounds of items.  Each item is a pair ``(run, check)``:
``run()`` is the call into the package that the benchmark times, and
``check(result)`` is the oracle, run after the timer stops.  Every round
runs the same fixed list of items, so every round does comparable work.
Inputs that must not repeat (the ``invariants`` files and the ``census``
isomorphism pairs) are relabelled afresh, from the seeded generator, for
every round, so a cache keyed on the input cannot serve a later round;
the relabelling happens as the round reaches the item, outside the timer.
``end_round()`` runs the oracles that need a whole round (the census
class counts) and returns how many items they fail.

Why each workload exists:

* ``invariants`` -- the read path: ``tgraph report`` on closed graphs,
  where dense Smith normal form dominates.  Sizes and color counts vary
  what homology costs (bubble counts, torsion, matrix dimensions).
* ``census`` -- the isomorphism path with no homology: certificates of
  every permutation tuple of two small censuses (heavily repeated
  classes), relabelled and perturbed isomorphism pairs (never repeated),
  and in-process ``tgraph enumerate --dedup`` runs.
* ``surgery`` -- the write path: building graphs with the named families
  and surgery moves, boundary tracing, ribbon genus, serialization, and a
  few separator checks and searches.
"""

from __future__ import annotations

import contextlib
import io
import os
from math import comb

import inputs
import oracles


def _edges(g) -> list[tuple[int, str, str]]:
    return [(e.color, e.white, e.black) for e in g.edges.values()]


def _parity(g) -> dict[str, str]:
    return dict(g.vertices)


def _as_tuple(g):
    """The permutation tuple of a closed package graph, colors renumbered."""
    whites = sorted(v for v, p in g.vertices.items() if p == "w")
    blacks = {v: i for i, v in enumerate(sorted(v for v, p in g.vertices.items() if p == "b"))}
    colors = {c: k for k, c in enumerate(sorted(g.colors))}
    white = {v: i for i, v in enumerate(whites)}
    sig = [[0] * len(whites) for _ in colors]
    for c, w, b in _edges(g):
        sig[colors[c]][white[w]] = blacks[b]
    return tuple(tuple(s) for s in sig)


def _iso_ok(res, a, b) -> bool:
    """A positive verdict whose witness maps a onto b edge by edge."""
    return bool(res) and oracles.witness_ok(
        _edges(a), _edges(b), _parity(a), _parity(b), res.witness, res.color_map
    )


def _cli(tg, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tg.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """Base: subclasses fill ``self.items`` with (run, check) pairs."""

    def __init__(self, tg, seed: int, workdir: str) -> None:
        self.tg = tg
        self.rng = inputs.rng_for(self.name, seed)
        self.workdir = workdir
        self.items: list = []
        self.generate()

    def round(self):
        """The items of one round, in the same order every time."""
        return iter(self.items)

    def end_round(self) -> int:
        return 0


# -- invariants -----------------------------------------------------------------

# (family, colors, size, copies): size is whites for tuple families, the
# number of summands for rp3 and the genus for qg/kg.  The list is fixed so
# every seed does comparable work; the seed changes the graphs themselves.
# The tiers are ordered by their cost on the seed commit, and the 50th and
# 90th percentiles each fall inside a block of items of similar cost, so
# neither jumps between seeds.
INVARIANT_MIX = (
    # 16 to 32 vertices, under 15 ms: 36 items
    ("melonic", 3, 8, 6), ("melonic", 4, 8, 8), ("random", 3, 16, 6),
    ("rp3", 4, 2, 4), ("rp3", 4, 3, 4), ("qg", 3, 1, 4), ("kg", 3, 1, 4),
    # 16 to 48 vertices, 15 to 25 ms, holding the 50th percentile: 24 items
    ("melonic", 4, 16, 6), ("melonic", 5, 8, 6), ("rp3", 4, 5, 4),
    ("random", 4, 16, 4), ("qg", 3, 2, 2), ("kg", 3, 2, 2),
    # 16 to 64 vertices, 25 to 70 ms: 25 items
    ("random", 5, 16, 3), ("random", 6, 8, 3), ("random", 3, 32, 3),
    ("melonic", 3, 32, 3), ("rp3", 4, 8, 2), ("rp3", 4, 10, 1),
    ("random", 4, 32, 3),
    ("melonic", 4, 24, 3), ("random", 6, 16, 2), ("melonic", 5, 16, 2),
    # 64 to 96 vertices, 80 to 100 ms, holding the 90th percentile: 10 items
    ("melonic", 4, 32, 5), ("random", 5, 32, 3), ("qg", 3, 4, 1),
    ("kg", 3, 4, 1),
    # 32 to 192 vertices, 200 to 600 ms: 5 items
    ("melonic", 4, 48, 1), ("melonic", 5, 32, 1), ("melonic", 6, 16, 1),
    ("rp3", 4, 16, 1), ("qg", 3, 8, 1),
)


class Invariants(Workload):
    name = "invariants"

    def generate(self) -> None:
        rng = self.rng
        self.files = []
        for family, colors, size, copies in INVARIANT_MIX:
            for copy in range(copies):
                if family == "melonic":
                    sig = inputs.melonic(colors, size, rng)
                elif family == "random":
                    sig = inputs.random_tuple(colors, size, rng)
                elif family == "rp3":
                    sig = inputs.rp3_sum(size, rng)
                else:
                    sig = _as_tuple(self.tg.build(family, g=size))
                path = os.path.join(self.workdir, f"{family}-{colors}-{size}-{copy}.cg")
                counts = oracles.bubble_counts(inputs.edge_list(sig))
                self.files.append((path, family, size, sig, counts))
        rng.shuffle(self.files)

    def round(self):
        """Each file is rewritten, relabelled afresh, just before its item."""
        for path, family, size, sig, counts in self.files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.to_text(inputs.conjugate(sig, self.rng)))
            yield report_item(self.tg, path, family, size, counts)


def report_item(tg, path, family, size, counts):
    """``tgraph report`` on one file, checked against its bubble counts."""
    colors = max(len(s) for s in counts)
    expect_groups = None
    if family == "melonic":
        expect_groups = oracles.sphere_homology(colors)
    elif family == "rp3":
        expect_groups = [(1, ()), (0, (2,) * size), (0, ()), (1, ())]
    elif family in ("qg", "kg"):
        expect_groups = [(1, ()), (2 * size, ()), (1, ())]

    def run():
        return _cli(tg, ["report", path, "--format", "kv"])

    def check(out) -> bool:
        code, text = out
        kv = oracles.parse_kv(text)
        if code != 0 or kv.get("validation") != "ok":
            return False
        groups = oracles.parse_homology(kv["homology"])
        chi = oracles.euler_from_bubbles(counts)
        ok = (
            int(kv["vertices"]) == counts[()]
            and int(kv["chi"]) == chi
            and sum((-1) ** q * f for q, (f, _) in enumerate(groups)) == chi
            and groups[0] == (oracles.components(counts), ())
            and int(kv["degree"]) == oracles.face_degree(counts)
        )
        if family == "melonic":
            ok = ok and int(kv["degree"]) == 0
        if expect_groups is not None:
            ok = ok and groups == expect_groups
        return ok

    return run, check


# -- census ---------------------------------------------------------------------

CENSUSES = ((3, 5), (4, 4))  # (colors, whites): 14400 and 13824 tuples
# (colors, whites, copies) of the isomorphism pairs, per pair kind.
ISO_MIX = ((3, 8, 6), (3, 16, 6), (3, 32, 4), (4, 8, 6), (4, 16, 4), (4, 24, 2))
# (model, k, vertex types, whites per vertex) of the enumeration runs.
ENUMERATIONS = (("phi4-rank3", 3, 3, 2), ("phi4-matrix", 3, 1, 2), ("matrix-2p:3", 2, 1, 3))


def enumerate_item(tg, model, k, types, whites):
    """In-process ``tgraph enumerate --dedup``; the raw count has a formula."""
    argv = ["enumerate", "--model", model, "-k", str(k), "--dedup", "--format", "kv"]
    raw = oracles.enumerate_raw_count(types, whites, k)

    def run():
        return _cli(tg, argv)

    def check(out) -> bool:
        code, text = out
        kv = oracles.parse_kv(text)
        return code == 0 and int(kv["count"]) == raw and 1 <= int(kv["distinct"]) <= raw

    return run, check


def _face_profile(sig) -> list[int]:
    counts = oracles.bubble_counts(inputs.edge_list(sig))
    return sorted(n for s, n in counts.items() if len(s) == 2)


class Census(Workload):
    name = "census"

    def generate(self) -> None:
        rng = self.rng
        self.tuples = [
            (key, sig) for key in CENSUSES for sig in inputs.census_tuples(*key)
        ]
        self.pairs = []
        for colors, whites, copies in ISO_MIX:
            for kind in ("relabel", "recolor", "perturb"):
                for _ in range(copies):
                    self.pairs.append(self._pair(kind, colors, whites, rng))
        slots = (
            [("census", i) for i in range(len(self.tuples))]
            + [("iso", i) for i in range(len(self.pairs))]
            + [("enumerate", i) for i in range(len(ENUMERATIONS))]
        )
        rng.shuffle(slots)
        self.slots = slots

    def _graph(self, sig):
        """The graph of `sig` under a fresh relabelling of its vertices."""
        return self.tg.ColoredGraph(*inputs.constructor_args(inputs.conjugate(sig, self.rng)))

    def _pair(self, kind, colors, whites, rng):
        """Two tuples, the modes whose verdict is known, and that verdict."""
        a_sig = inputs.random_tuple(colors, whites, rng)
        b_sig = inputs.conjugate(a_sig, rng)
        both = ("exact-colors", "up-to-color-permutation")
        if kind == "relabel":
            return a_sig, b_sig, both, True
        if kind == "recolor":
            order = list(range(colors))
            rng.shuffle(order)
            b_sig = tuple(b_sig[c] for c in order)
            return a_sig, b_sig, both[1:], True
        # Perturbed: a different multiset of face counts over color pairs
        # rules out an isomorphism in either mode.
        c_sig = inputs.transpose_one(b_sig, rng)
        while _face_profile(c_sig) == _face_profile(a_sig):
            c_sig = inputs.transpose_one(b_sig, rng)
        return a_sig, c_sig, both, False

    def pair_graphs(self, i):
        """Pair i's two graphs, each under a fresh relabelling."""
        a_sig, b_sig = self.pairs[i][:2]
        return self._graph(a_sig), self._graph(b_sig)

    def round(self):
        self.classes = {key: set() for key in CENSUSES}
        self.census_items = {key: 0 for key in CENSUSES}
        for kind, i in self.slots:
            if kind == "census":
                yield self._census_item(*self.tuples[i])
            elif kind == "iso":
                yield self._iso_item(*self.pair_graphs(i), *self.pairs[i][2:])
            else:
                yield enumerate_item(self.tg, *ENUMERATIONS[i])

    def _census_item(self, key, sig):
        tg = self.tg
        args = inputs.constructor_args(sig)
        self.census_items[key] += 1
        seen = self.classes[key]

        def run():
            return tg.canonical_certificate(tg.ColoredGraph(*args))

        def check(cert) -> bool:
            seen.add(cert)
            return True

        return run, check

    def _iso_item(self, a, b, modes, truth):
        tg = self.tg

        def run():
            out = [tg.is_isomorphic(a, b, mode) for mode in modes]
            if "exact-colors" in modes:
                out.append(tg.canonical_certificate(a) == tg.canonical_certificate(b))
            return out

        def check(out) -> bool:
            verdicts = out[: len(modes)]
            if any(bool(res) != truth for res in verdicts):
                return False
            if len(out) > len(modes) and out[-1] != truth:
                return False
            return not truth or all(_iso_ok(res, a, b) for res in verdicts)

        return run, check

    def end_round(self) -> int:
        """Census items of a census whose class count misses Burnside's."""
        failed = 0
        for key, seen in self.classes.items():
            if len(seen) != oracles.burnside_classes(*key):
                failed += self.census_items[key]
        return failed


# -- surgery --------------------------------------------------------------------

# (pipeline, copies) per round.
SURGERY_MIX = (
    ("tg", 24), ("l", 12), ("qgbc", 16), ("kg", 12),
    ("chain3", 30), ("chain4", 30), ("separator_check", 4), ("find_separators", 1),
)


def _connected_tuple(colors, whites, rng):
    while True:
        sig = inputs.random_tuple(colors, whites, rng)
        counts = oracles.bubble_counts(inputs.edge_list(sig))
        if oracles.components(counts) == 1:
            return inputs.conjugate(sig, rng)


class Surgery(Workload):
    name = "surgery"

    def generate(self) -> None:
        makers = {
            "tg": self._tg_item,
            "l": self._l_item,
            "qgbc": self._qgbc_item,
            "kg": self._kg_item,
            "chain3": lambda i: self._chain_item(3, i),
            "chain4": lambda i: self._chain_item(4, i),
            "separator_check": self._separator_item,
            "find_separators": self._find_separators_item,
        }
        for kind, copies in SURGERY_MIX:
            for i in range(copies):
                self.items.append(makers[kind](i))
        self.rng.shuffle(self.items)

    def _tg_item(self, i):
        tg = self.tg
        g = i % 4

        def run():
            t = tg.build("tg", g=g)
            b = tg.boundary_graph(t)
            genera = [
                tg.boundary_components(tg.ribbon_from_colored(c)).genus
                for c in tg.connected_components(b)
            ]
            cg = tg.build("cg", g=g)
            return b, genera, cg, tg.is_isomorphic(b, cg), tg.serialize(t)

        def check(out) -> bool:
            b, genera, cg, iso, _ = out
            return (
                genera == [g]
                and oracles.genus(oracles.bubble_counts(_edges(b))) == g
                and _iso_ok(iso, b, cg)
            )

        return run, check

    def _l_item(self, i):
        tg = self.tg
        rng = self.rng
        genera = [(i + j) % 3 for j in range(2 + i % 2)]
        rng.shuffle(genera)

        def run():
            t = tg.build("l", genera=genera)
            b = tg.boundary_graph(t)
            found = [
                tg.boundary_components(tg.ribbon_from_colored(c)).genus
                for c in tg.connected_components(b)
            ]
            return b, found, tg.serialize(t)

        def check(out) -> bool:
            b, found, _ = out
            counts = oracles.bubble_counts(_edges(b))
            return (
                sorted(found) == sorted(genera)
                and oracles.components(counts) == len(genera)
                and oracles.genus(counts) == sum(genera)
            )

        return run, check

    def _qgbc_item(self, i):
        tg = self.tg
        rng = self.rng
        c = rng.randrange(4)
        b = rng.randrange(c + 1)
        g = rng.randrange(0 if c else 1, 4)

        def run():
            s = tg.build("qgbc", g=g, b=b, c=c)
            bd = tg.boundary_graph(s)
            return bd, len(tg.connected_components(bd)), tg.serialize(s)

        def check(out) -> bool:
            bd, circles, _ = out
            own = oracles.bubble_counts(_edges(bd))[(1, 2)] if bd.edges else 0
            return circles == b + c and own == b + c

        return run, check

    def _kg_item(self, i):
        tg = self.tg
        g = 1 + i % 3

        def run():
            k = tg.build("kg", g=g)
            found = tg.boundary_components(tg.ribbon_from_colored(k)).genus
            return k, len(tg.boundary_graph(k)), found, tg.serialize(k)

        def check(out) -> bool:
            k, boundary_size, found, _ = out
            own = oracles.genus(oracles.bubble_counts(_edges(k)))
            return boundary_size == 0 and found == g and own == g

        return run, check

    def _chain_item(self, colors, i):
        """A random chain of edge sums and vertex sums of connected graphs.

        Three colors (1..3): the genus adds, then the cone's boundary must
        give the chain back, vertex v' for vertex v.  Four colors (0..3):
        face counts drop by D - 1 per edge sum and by D(D-1)/2 per vertex
        sum; opening a color-0 edge and closing the two legs again must give
        the chain back on the same vertices.
        """
        tg = self.tg
        rng = self.rng
        base = 1 if colors == 3 else 0
        # Sizes and move kinds are fixed by the slot, so every seed does
        # comparable work; the seed picks the permutations and the edges.
        sigs = [_connected_tuple(colors, 3 + (i + k) % 6, rng) for k in range(2 + i % 3)]
        pieces = [inputs.constructor_args(s, base, f"p{k}.") for k, s in enumerate(sigs)]
        counts = [oracles.bubble_counts(inputs.edge_list(s, base)) for s in sigs]
        # (color or None, share): the summand's edge or black vertex is fixed
        # here; the share picks the edge or white vertex of the chain so far.
        moves = []
        expect_faces = sum(oracles.faces(c) for c in counts)
        expect_vertices = sum(c[()] for c in counts)
        for k in range(1, len(sigs)):
            j = rng.randrange(len(sigs[k][0]))
            if (i + k) % 2:
                c = rng.randrange(base, base + colors)
                moves.append((c, rng.random(), f"p{k}.e{c}.{j}"))
                expect_faces -= colors - 1
            else:
                moves.append((None, rng.random(), f"p{k}.b{j}"))
                expect_faces -= comb(colors, 2)
                expect_vertices -= 2
        expect_genus = sum(oracles.genus(c) for c in counts) if colors == 3 else None
        share = rng.random()

        def run():
            g = tg.ColoredGraph(*pieces[0])
            for k, (c, x, label) in enumerate(moves, start=1):
                other = tg.ColoredGraph(*pieces[k])
                if c is None:
                    whites = sorted(v for v, p in g.vertices.items() if p == "w")
                    g = tg.crys_sum(g, whites[int(x * len(whites))], other, label)
                else:
                    same = sorted(e for e, y in g.edges.items() if y.color == c)
                    g = tg.connected_sum(g, same[int(x * len(same))], other, label)
            if colors == 3:
                back = tg.boundary_graph(tg.cone(g))
                genus = tg.boundary_components(tg.ribbon_from_colored(g)).genus
                return g, back, genus, tg.serialize(g)
            zeros = sorted(e for e, y in g.edges.items() if y.color == 0)
            e = zeros[int(share * len(zeros))]
            opened = tg.open_edge(g, e)
            back = tg.close_legs(opened, f"{e}.w", f"{e}.b")
            bd = tg.boundary_graph(opened)
            return g, back, bd, tg.serialize(opened)

        def check(out) -> bool:
            g, back, extra, _ = out
            got = oracles.bubble_counts(_edges(g))
            mark = "'" if colors == 3 else ""
            ok = (
                len(g) == expect_vertices
                and oracles.components(got) == 1
                and oracles.faces(got) == expect_faces
                and oracles.witness_ok(
                    _edges(back), _edges(g), _parity(back), _parity(g),
                    {v + mark: v for v in g.vertices},
                )
            )
            if colors == 3:
                return ok and extra == expect_genus and oracles.genus(got) == expect_genus
            # Two legs, one white and one black: the boundary is a 3-dipole.
            return ok and len(extra) == 2 and len(extra.edges) == 3

        return run, check

    def _separator_item(self, i):
        tg = self.tg
        which = tg.separator_p if i % 2 == 0 else tg.separator_m

        def run():
            sep = which()
            return tg.separator_check(sep.graph, sep.k, sep.l, tg.default_probes())

        return run, lambda passed: passed is True

    def _find_separators_item(self, i):
        tg = self.tg

        p, m = tg.separator_p().graph, tg.separator_m().graph

        def run():
            first, second = tg.find_separators(tg.builtin_model("phi4-rank3"), 2)
            return (
                (first.graph, tg.is_isomorphic(first.graph, p), p),
                (second.graph, tg.is_isomorphic(second.graph, m), m),
            )

        def check(out) -> bool:
            return all(_iso_ok(iso, found, want) for found, iso, want in out)

        return run, check


CLASSES = {"invariants": Invariants, "census": Census, "surgery": Surgery}
