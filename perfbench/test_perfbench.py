"""Tests of the benchmark itself: generator, checks, recorder, metric names.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import chains  # noqa: E402
import run  # noqa: E402
from generate import (  # noqa: E402
    MCKAY_ORDER,
    WORKLOADS,
    documents,
    isolated_weights,
    relabel,
)
from spans import Recorder, self_times, totals_by_name  # noqa: E402
from toricell.inputs import parse_document  # noqa: E402
from toricell.variety import AbelianGroupData  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def only(workload, seed, label):
    entries, chosen = documents(workload, seed, ROOT)
    picked = [e for e in entries if e[0] == label]
    return {"workload": workload, "seed": seed, "inputs": chosen,
            "entries": picked, "trace": False}


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_documents(workload):
    assert documents(workload, 7, ROOT) == documents(workload, 7, ROOT)


def test_seeds_vary_the_drawn_inputs():
    groups = {json.dumps(documents("mckay_exactness", s, ROOT)[1])
              for s in range(10)}
    perms = {json.dumps(documents("threefold_consistency", s, ROOT)[1])
             for s in range(10)}
    assert len(groups) > 1 and len(perms) > 1


def test_drawn_groups_are_isolated_subgroups_of_sl3():
    choices = isolated_weights(MCKAY_ORDER)
    assert (1, 2, 4) in choices and (1, 1, 5) in choices
    for w in choices:
        group = AbelianGroupData.cyclic(MCKAY_ORDER, w)
        assert group.in_sl() and group.is_small()
    # three odd weights never sum to a multiple of an even order
    assert isolated_weights(8) == [] and isolated_weights(12) == []
    for seed in range(5):
        entries, chosen = documents("mckay_exactness", seed, ROOT)
        assert tuple(chosen["group"]["weights"]) in choices
        assert [e[2]["bound"] for e in entries] == [5, 3]


def test_relabel_moves_members_and_vertex_indices():
    doc = documents("threefold_consistency", 0, ROOT)[0][1][1]
    base = relabel(doc, [0, 1, 2, 3])
    moved = relabel(base, [0, 2, 3, 1])
    assert moved["collection"][2] == base["collection"][1]
    assert moved["options"]["lifts"][3] == base["options"]["lifts"][2]
    perm = [0, 2, 3, 1]
    assert moved["options"]["arrow_order"] == [
        [perm[t], perm[h], lab] for t, h, lab in base["options"]["arrow_order"]]
    with pytest.raises(ValueError):
        relabel(base, [1, 0, 2, 3])


def test_relabelled_documents_build_their_quivers():
    for seed in range(3):
        for _label, raw, _ in documents("threefold_consistency", seed, ROOT)[0]:
            assert parse_document(raw).quiver().arrows


# -- reference checks --------------------------------------------------------


def chain_outcome(job, references=None):
    run_ = chains.Run(job["workload"], job["entries"], Recorder(False))
    if references is not None:
        run_.expected = references
    run_.execute([parse_document(raw) for _l, raw, _s in job["entries"]])
    return run_.outcome()


def test_checks_pass_on_the_library():
    attempted, failed, mismatches = chain_outcome(
        only("threefold_consistency", 3, "conifold"))
    assert attempted == 11 and failed == 0, mismatches


def test_a_wrong_reference_value_fails_its_check():
    job = only("threefold_consistency", 3, "conifold")
    wrong = chains.references(job["workload"], job["entries"])
    wrong["conifold.tiling"] = (False, 0, 0)
    wrong["conifold.counts"] = (2, 4, 4, 3)
    attempted, failed, mismatches = chain_outcome(job, wrong)
    assert failed == 2 and failed / attempted > 0
    assert {m[0] for m in mismatches} == {"conifold.tiling", "conifold.counts"}


def test_checks_a_raising_chain_never_reached_fail(monkeypatch):
    def broken(run_, label, doc, settings):
        run_.check(f"{label}.arrows", 4)
        raise RuntimeError("deliberate")

    monkeypatch.setitem(chains.CHAINS, "threefold_consistency", broken)
    attempted, failed, mismatches = chain_outcome(
        only("threefold_consistency", 3, "conifold"))
    assert failed == attempted - 1
    assert all(m[2] == "not reached" for m in mismatches)


def test_mckay_references_follow_the_drawn_group():
    entries, _ = documents("mckay_exactness", 4, ROOT)
    ref = chains.references("mckay_exactness", entries)
    r = MCKAY_ORDER
    label = entries[1][0]
    assert ref[f"{label}.counts"] == (r, 3 * r, 3 * r, r)
    assert ref[f"{label}.pieces"] == r * r * 4 ** 3
    assert ref["z6_123.pieces"] == 7776


# -- span recorder -----------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [(0, "outer", None, 0.0, 10.0), (1, "a", 0, 1.0, 3.0),
             (2, "b", 0, 4.0, 8.0), (3, "c", 2, 5.0, 6.0)]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    total, longest = totals_by_name(spans + [(4, "a", None, 11.0, 16.0)])
    assert total["a"] == 7.0 and longest["a"] == 5.0


def test_recorder_nests_and_a_disabled_one_records_nothing():
    rec = Recorder(True)
    with rec.span("outer"):
        with rec.span("inner"):
            rec.count("k", 2)
    (inner, outer) = rec.spans
    assert inner[1] == "inner" and inner[2] == outer[0]
    assert outer[2] is None and outer[3] <= inner[3] <= inner[4] <= outer[4]
    assert rec.counts == {"k": 2}
    off = Recorder(False)
    with off.span("x"):
        off.count("k")
    assert off.spans == [] and off.counts == {}


# -- metric names and the command's contract ---------------------------------


def registry(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_metrics_are_the_registered_ones():
    job = only("mckay_exactness", 1, "z7_" + "".join(
        map(str, documents("mckay_exactness", 1, ROOT)[1]["group"]["weights"])))
    assert job["workload"] in run.SHORT_QUIVERS and len(job["entries"]) == 1
    reports, metrics = run.end_to_end(job, 0, run.now() + 120,
                                      registry("end_to_end"))
    assert set(metrics) == {"setup_s", "wall_s", "quiver_s", "verdict_s",
                            "peak_rss_mb"} == set(registry("end_to_end"))
    assert all(m["value"] > 0 for m in metrics.values())
    assert len(reports) == 1 and reports[0]["failed"] == 0
    assert reports[0]["attempted"] == 7


def test_per_layer_metrics_are_the_registered_ones(tmp_path):
    job = only("threefold_consistency", 1, "threefold_four_sheaves")
    path = tmp_path / "trace.json"
    reports, metrics = run.per_layer(job, run.now() + 120,
                                     registry("per_layer"), str(path))
    assert set(metrics) == set(registry("per_layer"))
    assert reports[0]["failed"] == 0
    assert metrics["superpotential.consistency_s"]["value"] > 0
    assert metrics["quiver.arrows"]["value"] == 10
    trace = json.loads(path.read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"workload", "cones.fiber", "resolution.graded_piece",
            "intlinalg.rank"} <= names


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fourfold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
