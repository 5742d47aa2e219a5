"""Exact oracles the benchmark checks the package's answers against.

None of them calls ``tensorgraphs``: bubble counts come from a union-find
over an edge list, class counts from Burnside's lemma, and witnesses are
checked edge by edge against the graphs' own edge data.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _z(shape: tuple[int, ...]) -> int:
    """Size of the centralizer of a permutation of the given cycle type."""
    out = 1
    for k, m in Counter(shape).items():
        out *= k**m * factorial(m)
    return out


def burnside_classes(colors: int, n: int) -> int:
    """Isomorphism classes of closed graphs with `colors` colors, n whites.

    Such a graph is a tuple of `colors` permutations in S_n up to the
    S_n x S_n action; Burnside gives sum over partitions of z^(colors - 2)
    (Ben Geloun & Ramgoolam, arXiv:1307.6490, with D + 1 = colors).
    """
    return sum(_z(lam) ** (colors - 2) for lam in _partitions(n))


def _components(vertices, edges) -> int:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = len(parent)
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def bubble_counts(edges) -> dict[tuple[int, ...], int]:
    """Components per color subset of a closed regular graph.

    `edges` holds (color, white, black) triples.  The empty subset gives
    the vertex count; the full color set gives the connected components.
    """
    colors = sorted({c for c, _, _ in edges})
    vertices = {v for _, w, b in edges for v in (w, b)}
    out = {}
    for p in range(len(colors) + 1):
        for subset in itertools.combinations(colors, p):
            keep = set(subset)
            out[subset] = _components(vertices, ((w, b) for c, w, b in edges if c in keep))
    return out


def components(counts) -> int:
    """Connected components: the bubbles of the full color set."""
    return counts[max(counts, key=len)]


def faces(counts) -> int:
    """Total 2-bubbles (faces) over all color pairs."""
    return sum(n for s, n in counts.items() if len(s) == 2)


def genus(counts) -> int:
    """Total genus of a closed 3-colored graph: chi = V - E + F per surface."""
    chi = counts[()] - sum(n for s, n in counts.items() if len(s) == 1) + faces(counts)
    return (2 * components(counts) - chi) // 2


def euler_from_bubbles(counts) -> int:
    """chi = sum over p < D of (-1)^p * #p-bubbles (D = number of colors)."""
    top = max(len(s) for s in counts)
    return sum((-1) ** len(s) * n for s, n in counts.items() if len(s) < top)


def face_degree(counts) -> int:
    """The degree from face counts: (d-2)!/2 ((d-1 choose 2) p + (d-1) k - F)."""
    d = max(len(s) for s in counts)
    p = counts[()] // 2
    k = components(counts)
    value = Fraction(factorial(d - 2), 2) * (comb(d - 1, 2) * p + (d - 1) * k - faces(counts))
    if value.denominator != 1:
        raise ValueError(f"non-integral face-count degree {value}")
    return int(value)


def parse_kv(text: str) -> dict[str, str]:
    """``key=value`` lines of ``tgraph ... --format kv`` output."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def parse_homology(value: str) -> list[tuple[int, tuple[int, ...]]]:
    """``H_0=Z;H_1=Z^2,+,Z/2;...`` -> [(free rank, torsion), ...]."""
    groups = []
    for q, item in enumerate(value.split(";")):
        head, _, group = item.partition("=")
        if head != f"H_{q}":
            raise ValueError(f"unexpected homology entry {item!r}")
        free, torsion = 0, []
        for part in group.split(",+,"):
            if part == "0":
                continue
            if part == "Z":
                free = 1
            elif part.startswith("Z^"):
                free = int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                raise ValueError(f"unexpected group {group!r}")
        groups.append((free, tuple(torsion)))
    return groups


def sphere_homology(colors: int) -> list[tuple[int, tuple[int, ...]]]:
    """(Z, 0, ..., 0, Z) in degrees 0..colors-1."""
    return [(1, ())] + [(0, ())] * (colors - 2) + [(1, ())]


def witness_ok(a_edges, b_edges, a_parity, b_parity, witness, color_map=None) -> bool:
    """Is `witness` a parity- and color-respecting bijection taking a onto b?

    Edges are (color, white, black) triples, parities map vertex -> 'w'/'b'.
    """
    if witness is None or set(witness) != set(a_parity):
        return False
    if sorted(witness.values()) != sorted(b_parity):
        return False
    if any(a_parity[v] != b_parity[witness[v]] for v in a_parity):
        return False
    cmap = color_map or {}
    image = Counter((cmap.get(c, c), witness[w], witness[b]) for c, w, b in a_edges)
    return image == Counter(b_edges)


def enumerate_raw_count(types: int, whites_per_type: int, k: int) -> int:
    """Wick contractions of k vertices: multisets of types times whites!."""
    return comb(types + k - 1, k) * factorial(whites_per_type * k)
