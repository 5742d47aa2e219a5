"""The result records: their constructor, repr, equality, hashing and
immutability, and what importing the package loads.

Ten records are named tuples; ``ChainComplex`` and ``ModelSpec`` keep
private slots and are small immutable classes.  The reprs below are those
the records printed as frozen dataclasses, which they replaced.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorgraphs
from tensorgraphs.graphs import Bubble, IsoResult, bubbles, is_isomorphic, parse
from tensorgraphs.homology import (
    ChainComplex,
    HomologyGroup,
    HomologyResult,
    SmithForm,
    chain_complex,
    homology,
    smith_normal_form,
)
from tensorgraphs.jackets import DegreeReport, Jacket, enumerate_jackets, gurau_degree
from tensorgraphs.models import (
    MembershipReport,
    ModelSpec,
    SeparatorResult,
    build_dipole,
    build_necklace,
    build_qg,
    build_r1,
    builtin_model,
    is_member,
    separator_m,
    separator_p,
)
from tensorgraphs.ribbon import BoundaryReport, boundary_components, ribbon_from_colored

from conftest import fixture_text

DIPOLE = build_dipole(3)
D2 = build_dipole(2)
NECKLACE = build_necklace()

# record type, constructor fields in order, a fixed instance, its repr, an
# unequal instance of the same type
RECORDS = [
    (
        Bubble,
        ("colors", "vertices", "edges"),
        lambda: bubbles(DIPOLE, (1, 2))[0],
        "Bubble(colors=(1, 2), vertices=('b', 'w'), edges=('e1', 'e2'))",
        lambda: bubbles(DIPOLE, (1, 3))[0],
    ),
    (
        IsoResult,
        ("isomorphic", "witness", "color_map"),
        lambda: is_isomorphic(DIPOLE, build_dipole(3, base=0), "up-to-color-permutation"),
        "IsoResult(isomorphic=True, witness={'w': 'w', 'b': 'b'}, color_map={1: 0, 2: 1, 3: 2})",
        lambda: IsoResult(False),
    ),
    (
        ChainComplex,
        ("colors", "basis", "_columns"),
        lambda: chain_complex(D2),
        "ChainComplex(colors=(1, 2), basis=((Bubble(colors=(), vertices=('b',), edges=()), "
        "Bubble(colors=(), vertices=('w',), edges=())), (Bubble(colors=(1,), vertices=('b', "
        "'w'), edges=('e1',)), Bubble(colors=(2,), vertices=('b', 'w'), edges=('e2',)))), "
        "_columns=((((1, 1), (0, -1)), ((1, 1), (0, -1))),))",
        lambda: chain_complex(DIPOLE),
    ),
    (
        SmithForm,
        ("diagonal", "rank", "U", "V", "shape"),
        lambda: smith_normal_form([[2, 4], [6, 8]]),
        "SmithForm(diagonal=(2, 4), rank=2, U=((1, 0), (3, -1)), V=((1, -2), (0, 1)), "
        "shape=(2, 2))",
        lambda: smith_normal_form([[1]]),
    ),
    (
        HomologyGroup,
        ("free_rank", "torsion"),
        lambda: HomologyGroup(1, (2,)),
        "HomologyGroup(free_rank=1, torsion=(2,))",
        lambda: HomologyGroup(1),
    ),
    (
        HomologyResult,
        ("groups", "euler"),
        lambda: homology(DIPOLE),
        "HomologyResult(groups=(HomologyGroup(free_rank=1, torsion=()), "
        "HomologyGroup(free_rank=0, torsion=()), HomologyGroup(free_rank=1, torsion=())), "
        "euler=2)",
        lambda: homology(build_r1()),
    ),
    (
        Jacket,
        ("cycle", "face_count", "genus", "graph"),
        lambda: enumerate_jackets(NECKLACE)[0],
        "Jacket(cycle=(0, 1, 2, 3), face_count=6, genus=0)",
        lambda: enumerate_jackets(NECKLACE)[1],
    ),
    (
        DegreeReport,
        ("jackets", "degree", "faces", "face_count_degree", "amplitude_exponent"),
        lambda: gurau_degree(DIPOLE),
        "DegreeReport(jackets=(Jacket(cycle=(1, 2, 3), face_count=3, genus=0),), degree=0, "
        "faces=3, face_count_degree=Fraction(0, 1), amplitude_exponent=Fraction(2, 1))",
        lambda: gurau_degree(NECKLACE),
    ),
    (
        ModelSpec,
        ("name", "rank", "upsilon", "vertex_names"),
        lambda: builtin_model("phi4-matrix"),
        "ModelSpec(name='phi4-matrix', rank=2, upsilon=(ColoredGraph(colors=(1, 2), |V|=4, "
        "|E|=4, legs=0),), vertex_names=('V',))",
        lambda: builtin_model("phi4-rank3"),
    ),
    (
        MembershipReport,
        ("ok", "components"),
        lambda: is_member(build_qg(1), builtin_model("phi4-matrix")),
        "MembershipReport(ok=True, components=(('o1.r0.a', 'V'), ('o1.r0.c', 'V'), "
        "('o1.r0b.a', 'V'), ('o1.r0b.c', 'V'), ('o1.r1.a', 'V'), ('o1.r1.c', 'V')))",
        lambda: MembershipReport(False, ()),
    ),
    (
        SeparatorResult,
        ("graph", "k", "l"),
        separator_p,
        "SeparatorResult(graph=ColoredGraph(colors=(0, 1, 2, 3), |V|=4, |E|=8, legs=0), "
        "k='z0', l='z1')",
        separator_m,
    ),
    (
        BoundaryReport,
        ("bc", "euler", "genus", "n_components", "per_component"),
        lambda: boundary_components(ribbon_from_colored(DIPOLE)),
        "BoundaryReport(bc=3, euler=2, genus=0, n_components=1, per_component=((3, 2, 0),))",
        lambda: boundary_components(ribbon_from_colored(build_r1())),
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
PRIVATE = {ChainComplex: ("_columns",), ModelSpec: ("_codes", "_symmetries")}


def _values(record) -> dict:
    return {name: getattr(record, name) for name in type(record)._fields}


def _hash_or_none(record):
    try:
        return hash(record)
    except TypeError:
        return None


@pytest.mark.parametrize("cls, fields, make, shown, _other", RECORDS, ids=IDS)
def test_record_repr_and_fields(cls, fields, make, shown, _other):
    record = make()
    assert type(record) is cls and cls._fields == fields
    assert repr(record) == shown


@pytest.mark.parametrize("cls, fields, make, _shown, _other", RECORDS, ids=IDS)
def test_record_constructs_positionally_and_by_keyword(cls, fields, make, _shown, _other):
    record = make()
    values = _values(record)
    for built in (cls(*values.values()), cls(**values), copy.copy(record)):
        assert type(built) is cls and built == record and _values(built) == values
        assert _hash_or_none(built) == _hash_or_none(record)


def test_record_defaults():
    assert IsoResult(False) == IsoResult(False, None, None)
    assert HomologyGroup(3) == HomologyGroup(3, ())


@pytest.mark.parametrize("cls, fields, make, _shown, _other", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(cls, fields, make, _shown, _other):
    record = make()
    for name in fields + PRIVATE.get(cls, ()) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields + PRIVATE.get(cls, ()):
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == _values(make())


@pytest.mark.parametrize("cls, fields, make, _shown, make_other", RECORDS, ids=IDS)
def test_record_inequality_negates_equality(cls, fields, make, _shown, make_other):
    record, other = make(), make_other()
    twin = cls(*_values(record).values())
    assert record == twin and record != other
    for x, y in ((record, twin), (twin, record), (record, other), (other, record)):
        assert (x != y) == (not x == y)


def test_jackets_of_two_parses_are_equal_and_not_unequal():
    text = fixture_text("necklace.cg")
    a, b = enumerate_jackets(parse(text)), enumerate_jackets(parse(text))
    assert a[0].graph is not b[0].graph
    for x, y in zip(a, b):
        assert x == y and not x != y and hash(x) == hash(y)
    assert a[0] != b[1] and not a[0] == b[1]


def test_hashing_is_where_it_was():
    # a witness is a dict, so a positive isomorphism verdict is unhashable
    assert _hash_or_none(is_isomorphic(DIPOLE, build_dipole(3))) is None
    hashable = [make() for cls, _, make, _, _ in RECORDS if cls is not IsoResult]
    assert all(_hash_or_none(record) is not None for record in hashable + [IsoResult(False)])


def test_named_tuple_records_are_plain_tuples_of_their_fields():
    assert HomologyGroup(1, (2,)) == (1, (2,))
    assert sorted([HomologyGroup(2), HomologyGroup(1, (3,)), HomologyGroup(1)]) == [
        (1, ()),
        (1, (3,)),
        (2, ()),
    ]
    assert tuple(boundary_components(ribbon_from_colored(DIPOLE))) == (3, 2, 0, 1, ((3, 2, 0),))
    # the slotted records are not tuples
    assert not isinstance(chain_complex(D2), tuple)
    assert not isinstance(builtin_model("phi4-matrix"), tuple)


def test_import_loads_no_dataclasses():
    src = str(Path(tensorgraphs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tensorgraphs, tensorgraphs.cli\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
