"""Records are immutable named tuples.

Every report and value record of toricell is a `typing.NamedTuple`: its
fields are read-only, its repr is `Name(field=value, ...)`, and records
with equal fields compare equal (and hash equal when every field is
hashable).  The two classes that build state after construction,
`Superpotential` and `InputDocument`, are plain classes.  Neither
`import toricell` nor the CLI module loads `dataclasses` or `inspect`,
whose imports cost a fresh process tens of milliseconds, nor
`fractions`.
"""

import copy
import os
import subprocess
import sys

import pytest

from toricell.complexes import general_complex, sign_infeasibility
from toricell.inputs import InputDocument, parse_document
from toricell.intlinalg import smith_normal_form
from toricell.matchings import perfect_matchings, weight_zero_check
from toricell.quiver import Arrow
from toricell.resolution import (
    build_resolution,
    graded_piece,
    verify_exactness,
    verify_minimality,
)
from toricell.superpotential import consistency, relations, superpotential
from toricell.tiling import dimer_reconstruct, projection_maps, verify_tiling
from toricell.variety import AbelianGroupData

from conftest import load

# field names per record, in constructor order
FIELDS = {
    "Arrow": "idx tail head label",
    "WeilClass": "representative canonical",
    "AbelianGroupData": "generators n",
    "SmithForm": "U V S rank",
    "FRelation": "p_plus p_minus",
    "ConsistencyReport": "consistent bound quick_reject_arrows witnesses "
                         "n_relations uncovered_arrows",
    "PerfectMatching": "functional values extremal_ray",
    "WeightZeroReport": "matches missing off_slice semigroup_basis",
    "Cell": "id dim head tail divisor payload",
    "IncidenceSolution": "signs feasible certificate",
    "SignParityReport": "arrow n_terms edges two_colorable odd_cycle",
    "MinimalityReport": "minimal unit_incidences",
    "GradedPiece": "s t dvec bases matrices dim_A",
    "ExactnessReport": "exact bound pieces_checked failures",
    "ProjectionData": "m_basis B f fprime den",
    "Face": "term points area",
    "Tiling": "Q W proj lifts vertices edges faces",
    "TilingReport": "valid nonconvex_faces crossings euler total_area "
                    "duplicate_vertices unbalanced_arrows",
}

# the value records, whose fields are all hashable
HASHABLE = {"Cell", "Arrow", "WeilClass", "AbelianGroupData",
            "PerfectMatching", "FRelation"}


@pytest.fixture(scope="module")
def records():
    """One record of each kind, from the four-sheaves chain."""
    Q = load("threefold_four_sheaves.json").quiver()
    W = superpotential(Q)
    rels = relations(Q, W)
    C = general_complex(Q, W, rels)
    res = build_resolution(C)
    proj = projection_maps(Q.X)
    tiling = dimer_reconstruct(Q, W, proj=proj)
    found = [
        Q.arrows[0], Q.collection.classes[1],
        AbelianGroupData.cyclic(6, (1, 2, 3)),
        smith_normal_form([[2, 4], [6, 8]]),
        rels[0], consistency(Q, W, bound=1),
        perfect_matchings(Q)[0], weight_zero_check(Q),
        C.cells[-1], C.solve_incidence(),
        sign_infeasibility(Q, W, rels, 0),
        verify_minimality(res), graded_piece(res, 0, 0, Q.ones),
        verify_exactness(res, 1),
        proj, tiling.faces[0], tiling, verify_tiling(tiling),
    ]
    assert sorted(type(r).__name__ for r in found) == sorted(FIELDS)
    return found


def test_records_are_read_only(records):
    for r in records:
        for field in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, field, None)
        with pytest.raises(AttributeError):
            r.extra = None


def test_record_fields_and_repr(records):
    for r in records:
        name = type(r).__name__
        assert r._fields == tuple(FIELDS[name].split()), name
        assert repr(r) == name + "(" + ", ".join(
            f"{f}={getattr(r, f)!r}" for f in r._fields) + ")"
    assert repr(Arrow(idx=0, tail=1, head=2, label=(1, 0))) == \
        "Arrow(idx=0, tail=1, head=2, label=(1, 0))"


def test_records_with_equal_fields_are_equal(records):
    for r in records:
        assert type(r)(*r) == r
        assert type(r)(**r._asdict()) == r
        if type(r).__name__ in HASHABLE:
            twin = copy.deepcopy(r)
            assert twin == r and hash(twin) == hash(r)
            assert twin in {r}
            changed = r._replace(**{r._fields[0]: None})
            assert changed != r


def test_stateful_classes_keep_their_state():
    Q = load("threefold_four_sheaves.json").quiver()
    W = superpotential(Q)
    for term in W.terms:
        tail = Q.arrows[term[0]].tail
        assert W.derivatives[(tail, term)] == {()}
        assert term in W.derivatives[(tail, ())]
    assert InputDocument("toric").options == {}
    doc = parse_document({"kind": "cyclic_quotient", "order": 6,
                          "weights": [1, 2, 3], "options": {"bound": 3}})
    assert doc.options == {"bound": 3}


def test_import_loads_no_dataclasses_or_inspect():
    """Nor fractions, nor decimal, which fractions imports: the library is
    integer-only, directly and through every module it imports.  Checked
    in a fresh interpreter, since pytest loads all four itself, and
    without site, whose hooks are not toricell's to answer for."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, toricell, toricell.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
