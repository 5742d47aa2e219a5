"""Tests of the benchmark's own generators, oracles and tracer.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import tensorgraphs as tg  # noqa: E402
import tensorgraphs.cli  # noqa: E402,F401


def _closed_fixtures():
    out = []
    for path in sorted((ROOT / "fixtures").glob("*.cg")):
        g = tg.parse(path.read_text(encoding="utf-8"))
        if g.is_closed and len(g):
            out.append((path.name, g))
    return out


def _edges(g):
    return [(e.color, e.white, e.black) for e in g.edges.values()]


# -- Burnside -----------------------------------------------------------------


@pytest.mark.parametrize(
    "colors,n,classes",
    [(3, 2, 4), (3, 3, 11), (3, 4, 43), (4, 2, 8), (4, 3, 49), (3, 5, 161), (4, 4, 681)],
)
def test_burnside_class_counts(colors, n, classes):
    assert oracles.burnside_classes(colors, n) == classes


def test_burnside_matches_certificates_on_a_small_census():
    certs = {
        tg.canonical_certificate(tg.ColoredGraph(*inputs.constructor_args(sig)))
        for sig in inputs.census_tuples(3, 4)
    }
    assert len(certs) == oracles.burnside_classes(3, 4)


# -- union-find bubble counts ----------------------------------------------------


@pytest.mark.parametrize("name,g", _closed_fixtures(), ids=[n for n, _ in _closed_fixtures()])
def test_bubble_counts_match_package(name, g):
    counts = oracles.bubble_counts(_edges(g))
    for p in range(len(g.colors) + 1):
        for subset in itertools.combinations(g.colors, p):
            assert counts[subset] == len(tg.bubbles(g, subset)), subset
    assert oracles.euler_from_bubbles(counts) == tg.homology(g).euler
    if len(g.colors) >= 3:
        assert oracles.face_degree(counts) == tg.gurau_degree(g).degree


def test_closed_fixtures_exist():
    assert len(_closed_fixtures()) >= 5


# -- generators ---------------------------------------------------------------------


def test_melonic_graphs_have_degree_zero_and_sphere_homology():
    rng = inputs.rng_for("test", 0)
    for colors in (3, 4, 5):
        sig = inputs.melonic(colors, 6, rng)
        g = tg.parse(inputs.to_text(sig))
        assert tg.gurau_degree(g).degree == 0
        groups = [(h.free_rank, h.torsion) for h in tg.homology(g).groups]
        assert groups == oracles.sphere_homology(colors)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rp3_sums_have_two_torsion(k):
    g = tg.parse(inputs.to_text(inputs.rp3_sum(k, inputs.rng_for("test", k))))
    assert len(g) == 6 * k + 2
    assert tg.homology(g).groups[1].torsion == (2,) * k


def _invariants_rounds(d, seed, rounds=2):
    """The file texts the package reads in each of the first rounds."""
    wl = workloads.Invariants(tg, seed, str(d))
    out = []
    for _ in range(rounds):
        for _item in wl.round():  # each file is written once per round
            pass
        out.append({p.name: p.read_bytes() for p in d.iterdir()})
    return out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a, b, c = (_invariants_rounds(d, seed) for d, seed in zip(dirs, (7, 7, 8)))
    assert len(a[0]) == 100
    assert a == b
    assert a[0].keys() == c[0].keys() and a[0] != c[0]

    def census_inputs(seed):
        c = workloads.Census(tg, seed, str(tmp_path))
        pairs = [tg.serialize(g) for i in range(len(c.pairs)) for g in c.pair_graphs(i)]
        return c.slots, pairs

    assert census_inputs(3) == census_inputs(3)
    assert census_inputs(3) != census_inputs(4)

    def surgery_outputs(seed):
        outs = [run() for run, _ in workloads.Surgery(tg, seed, str(tmp_path)).items]
        return [out[-1] for out in outs if isinstance(out, tuple) and isinstance(out[-1], str)]

    assert surgery_outputs(5) == surgery_outputs(5)
    assert surgery_outputs(5) != surgery_outputs(6)


def test_rounds_relabel_the_inputs_that_must_not_repeat(tmp_path):
    first, second = _invariants_rounds(tmp_path, 9)
    assert first.keys() == second.keys()
    assert sum(first[f] != second[f] for f in first) >= 90
    c = workloads.Census(tg, 9, str(tmp_path))
    for i in range(len(c.pairs)):
        once, again = c.pair_graphs(i), c.pair_graphs(i)
        assert [tg.serialize(g) for g in once] != [tg.serialize(g) for g in again]
        assert bool(tg.is_isomorphic(once[0], again[0])) and bool(tg.is_isomorphic(once[1], again[1]))


# -- oracles fail on broken inputs ------------------------------------------------------


def test_invariants_oracle_rejects_a_broken_report(tmp_path):
    wl = workloads.Invariants(tg, 1, str(tmp_path))
    run, check = next(wl.round())
    code, text = run()
    assert check((code, text))
    for key in ("chi", "degree", "vertices"):
        broken = "\n".join(
            f"{key}={int(line.split('=')[1]) + 1}" if line.startswith(key + "=") else line
            for line in text.splitlines()
        )
        assert not check((code, broken)), key
    broken = text.replace("H_0=Z;", "H_0=Z^2;")
    assert not check((code, broken))


def test_melonic_oracle_rejects_a_non_melonic_graph(tmp_path):
    path = tmp_path / "rp3.cg"
    sig = inputs.rp3_sum(2, inputs.rng_for("test", 1))
    path.write_text(inputs.to_text(sig), encoding="utf-8")
    counts = oracles.bubble_counts(inputs.edge_list(sig))
    run, check = workloads.report_item(tg, str(path), "melonic", 8, counts)
    assert not check(run())
    run, check = workloads.report_item(tg, str(path), "rp3", 2, counts)
    assert check(run())
    run, check = workloads.report_item(tg, str(path), "rp3", 3, counts)
    assert not check(run())


def test_census_oracle_rejects_a_missing_class(tmp_path):
    wl = workloads.Census(tg, 1, str(tmp_path))
    wl.classes = {key: set() for key in workloads.CENSUSES}
    wl.census_items = {key: 10 for key in workloads.CENSUSES}
    for key in workloads.CENSUSES:
        wl.classes[key] = set(range(oracles.burnside_classes(*key)))
    assert wl.end_round() == 0
    wl.classes[workloads.CENSUSES[0]].pop()
    assert wl.end_round() == 10


def test_witness_oracle_rejects_a_swapped_vertex():
    sig = inputs.random_tuple(3, 6, inputs.rng_for("t", 2))
    a = tg.ColoredGraph(*inputs.constructor_args(sig))
    b = tg.relabel(a, vertex_map={v: v + "'" for v in a.vertices})
    res = tg.is_isomorphic(a, b)
    parity = (dict(a.vertices), dict(b.vertices))
    assert oracles.witness_ok(_edges(a), _edges(b), *parity, res.witness)
    bad = dict(res.witness)
    bad["w0"], bad["w1"] = bad["w1"], bad["w0"]
    assert not oracles.witness_ok(_edges(a), _edges(b), *parity, bad)


def test_enumerate_oracle_rejects_a_wrong_count():
    run, check = workloads.enumerate_item(tg, "phi4-matrix", 3, 1, 2)
    code, text = run()
    assert check((code, text))
    assert not check((code, text.replace("count=720", "count=721")))
    run, check = workloads.enumerate_item(tg, "phi4-matrix", 3, 2, 2)
    assert not check(run())


def _melon(colors, base, prefix):
    """The elementary melon: two vertices joined by every color."""
    return tg.ColoredGraph(*inputs.constructor_args(((0,),) * colors, base, prefix))


def _with_extra_melon(g, colors, base):
    """`g` with one more (D-1)-dipole: its edge sum with the elementary melon."""
    edge = sorted(e for e, y in g.edges.items() if y.color == base)[0]
    return tg.connected_sum(g, edge, _melon(colors, base, "m."), f"m.e{base}.0")


@pytest.mark.parametrize("colors,base", [(3, 1), (4, 0)])
def test_surgery_chain_oracle_rejects_a_wrong_graph(tmp_path, colors, base):
    wl = workloads.Surgery(tg, 2, str(tmp_path))
    run, check = wl._chain_item(colors, 1)
    g, back, extra, text = run()
    assert check((g, back, extra, text))
    bigger = _with_extra_melon(g, colors, base)
    assert len(bigger) == len(g) + 2
    assert not check((bigger, back, extra, text))
    if colors == 3:
        assert not check((g, back, extra + 1, text))
    else:
        # The boundary of the opened edge is a 3-colored dipole on colors 1..3.
        assert not check((g, back, _with_extra_melon(extra, 3, 1), text))


def test_surgery_family_oracles_reject_wrong_answers(tmp_path):
    wl = workloads.Surgery(tg, 2, str(tmp_path))
    run, check = wl._qgbc_item(0)
    bd, circles, text = run()
    assert check((bd, circles, text))
    assert not check((bd, circles + 1, text))
    other = tg.boundary_graph(tg.build("qgbc", g=1, b=0, c=circles + 1))
    assert not check((other, circles, text))

    run, check = wl._kg_item(1)
    k, size, genus, text = run()
    assert check((k, size, genus, text))
    assert not check((k, size, genus + 1, text))
    assert not check((tg.build("kg", g=genus + 1), size, genus, text))

    run, check = wl._l_item(1)
    b, found, text = run()
    assert check((b, found, text))
    assert not check((b, [found[0] + 1] + found[1:], text))

    run, check = wl._tg_item(2)
    b, genera, cg, iso, text = run()
    assert check((b, genera, cg, iso, text))
    assert not check((b, [genera[0] + 1], cg, iso, text))

    run, check = wl._separator_item(0)
    assert check(run())
    assert not check(False)


# -- calibration -------------------------------------------------------------------


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.time_kernel() > 0


def test_calibration_divides_by_the_slowdown_around_each_item():
    speed = calibrate.Speed()
    ref = calibrate.REFERENCE_S
    speed.ticks = [ref] * 7 + [2 * ref] * 7
    assert speed.slowdown(3) == 1.0
    assert speed.slowdown(11) == 2.0
    stats = bench_run.Pass()
    stats.speed = speed
    stats.samples = [[(0.010, 3), (0.020, 11)], [(0.030, 11), (0.015, 3)]]
    assert stats.times() == [[0.010, 0.010], [0.015, 0.015]]
    assert stats.item_latencies() == [0.010, 0.015]
    assert stats.item_latencies(calibrated=False) == [0.015, 0.0225]
    assert stats.busy() == pytest.approx(0.050)


# -- tracer and entry point ------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    orig_homology = tg.homology
    orig_bubbles = tg.graphs.bubbles
    tr = tracer.Tracer()
    tr.install(tg)
    try:
        assert tg.cli.homology is not orig_homology
        assert tg.homology is tg.cli.homology
        assert sys.modules["tensorgraphs.homology"].bubbles is not orig_bubbles
        tr.active = True
        g = tg.build("qg", g=1)
        tg.homology(g)
        tr.active = False
    finally:
        tr.uninstall()
    assert tg.cli.homology is orig_homology
    assert sys.modules["tensorgraphs.homology"].bubbles is orig_bubbles
    m = tr.metrics()
    assert m["homology.homology.calls"] == 1
    assert m["homology.smith_normal_form.calls"] == 2
    assert m["graphs.bubbles.calls"] > 0
    assert all(m[f"{mod}.{fn}.self_s"] >= 0 for mod, fns in tracer.LAYERS.items() for fn in fns)
    assert m["homology.smith_normal_form.entries"] > m["homology.smith_normal_form.nonzeros"] > 0
    assert set(m) | {"trace.overhead_ratio", "fail_ratio"} == set(tracer.metric_units())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.CLASSES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_traced_run_prints_every_per_layer_metric():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench_run.main(
            ["--workload", "surgery", "--seed", "3", "--seconds", "0", "--trace", "1"]
        )
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 100
    assert set(result["metrics"]) == set(tracer.metric_units())
