"""Seeded input generators for the benchmark.

Everything here is plain Python on permutation tuples and never imports
``tensorgraphs``: a closed graph with D colors and n white vertices is a
tuple ``sig`` of D permutations of ``range(n)``, where ``sig[c][i]`` is the
black vertex joined to white vertex ``i`` by an edge of color ``c + 1``.
The package only ever sees the file text (or the constructor arguments)
produced from such a tuple.
"""

from __future__ import annotations

import itertools
import random

# The 8-vertex crystallization of RP^3: white i joins black sig[c][i] on
# color c + 1.  The four permutations form the Klein four-group.
RP3 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def rng_for(workload: str, seed: int) -> random.Random:
    """The generator of one workload's inputs; same arguments, same stream."""
    return random.Random(f"{workload}:{seed}")


def edge_list(sig, base: int = 1) -> list[tuple[int, str, str]]:
    """(color, white label, black label) for every edge of the tuple graph."""
    return [
        (c + base, f"w{i}", f"b{s[i]}") for c, s in enumerate(sig) for i in range(len(s))
    ]


def constructor_args(sig, base: int = 1, prefix: str = ""):
    """Arguments for ``ColoredGraph(colors, vertices, edges)``.

    Colors run from `base`; every label starts with `prefix`.
    """
    n = len(sig[0])
    vertices = {f"{prefix}w{i}": "w" for i in range(n)}
    vertices.update((f"{prefix}b{i}", "b") for i in range(n))
    edges = [
        (f"{prefix}e{c + base}.{i}", c + base, f"{prefix}w{i}", f"{prefix}b{s[i]}")
        for c, s in enumerate(sig)
        for i in range(n)
    ]
    return tuple(range(base, base + len(sig))), vertices, edges


def to_text(sig) -> str:
    """The closed graph of a permutation tuple in the ``.cg`` file format."""
    n = len(sig[0])
    lines = [f"colors {len(sig)} closed"]
    lines += [f"v w{i} w" for i in range(n)]
    lines += [f"v b{i} b" for i in range(n)]
    lines += [
        f"e e{c + 1}.{i} {c + 1} w{i} b{s[i]}" for c, s in enumerate(sig) for i in range(n)
    ]
    return "\n".join(lines) + "\n"


def conjugate(sig, rng: random.Random):
    """Relabel whites and blacks by independent random bijections."""
    n = len(sig[0])
    pw = list(range(n))
    pb = list(range(n))
    rng.shuffle(pw)
    rng.shuffle(pb)
    out = []
    for s in sig:
        t = [0] * n
        for i in range(n):
            t[pw[i]] = pb[s[i]]
        out.append(tuple(t))
    return tuple(out)


def melonic(colors: int, whites: int, rng: random.Random):
    """A melonic graph grown by random insertions from the elementary melon.

    Each step picks an edge (w, b) of some color c, re-routes it through a
    new black b' and a new white w' (w -c- b', w' -c- b) and joins w' to b'
    by every other color: a (D-1)-dipole insertion, which keeps degree 0.
    """
    sig = [[0] for _ in range(colors)]
    for n in range(1, whites):
        c = rng.randrange(colors)
        w = rng.randrange(n)
        for k in range(colors):
            sig[k].append(n)
        sig[c][n] = sig[c][w]
        sig[c][w] = n
    return tuple(tuple(s) for s in sig)


def random_tuple(colors: int, whites: int, rng: random.Random):
    """Uniform permutations on every color but the first (the identity)."""
    sig = [tuple(range(whites))]
    for _ in range(colors - 1):
        s = list(range(whites))
        rng.shuffle(s)
        sig.append(tuple(s))
    return tuple(sig)


def vertex_sum(a, p: int, b, q: int):
    """Connected sum of two tuple graphs by deleting white p of a, black q of b.

    For each color, the black vertex of a that lost its partner p is joined
    to the white vertex of b that lost its partner q.  On crystallizations
    this is the connected sum of the manifolds.
    """
    na, nb = len(a[0]), len(b[0])
    out = []
    for sa, sb in zip(a, b):
        t = [sa[i] for i in range(na) if i != p]
        for j in range(nb):
            k = sb[j]
            if k == q:
                t.append(sa[p])
            else:
                t.append(na + (k if k < q else k - 1))
        out.append(tuple(t))
    return tuple(out)


def rp3_sum(k: int, rng: random.Random):
    """A k-fold connected sum of RP^3 crystallizations (H_1 = (Z/2)^k)."""
    g = conjugate(RP3, rng)
    for _ in range(k - 1):
        g = vertex_sum(g, rng.randrange(len(g[0])), conjugate(RP3, rng), rng.randrange(4))
    return g


def census_tuples(colors: int, n: int):
    """Every tuple in S_n^colors with the first permutation the identity."""
    ident = tuple(range(n))
    for rest in itertools.product(itertools.permutations(range(n)), repeat=colors - 1):
        yield (ident,) + rest


def transpose_one(sig, rng: random.Random):
    """Swap the black targets of two whites on one color other than the first."""
    c = rng.randrange(1, len(sig))
    i, j = rng.sample(range(len(sig[0])), 2)
    s = list(sig[c])
    s[i], s[j] = s[j], s[i]
    return sig[:c] + (tuple(s),) + sig[c + 1 :]
