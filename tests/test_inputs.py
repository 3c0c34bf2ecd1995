import json
import os
import re

import pytest

from toricell.cli import main
from toricell.errors import InputError
from toricell.inputs import load_document, parse_document, quiver_document

from conftest import INPUTS, fixture_documents, input_path, load


def test_all_fixture_documents_load():
    for name, raw in fixture_documents():
        doc = parse_document(raw)
        assert doc.kind == raw["kind"]
        if name == "fourfold.json":
            # building this quiver takes minutes; covered by its own tests
            continue
        Q = doc.quiver()
        assert Q.n_vertices >= 1


def test_unknown_kind_rejected():
    with pytest.raises(InputError, match="unknown kind 'nonsense'"):
        parse_document({"kind": "nonsense"})
    with pytest.raises(InputError, match="must be a JSON object"):
        parse_document([1, 2, 3])


def test_unknown_option_rejected():
    raw = {"kind": "toric",
           "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "collection": [[0, 0, 0]],
           "options": {"bogus": 1}}
    with pytest.raises(InputError, match="unknown option 'bogus'"):
        parse_document(raw)


def test_cyclic_quotient_document():
    doc = load_document(input_path("mckay_z6_123.json"))
    assert doc.group.order() == 6
    assert doc.quiver().n_vertices == 6


def test_dimer_quiver_roundtrip(quiver_four_sheaves):
    raw = quiver_document(quiver_four_sheaves)
    doc = parse_document(raw)
    Q = doc.quiver()
    assert Q.n_vertices == quiver_four_sheaves.n_vertices
    assert [(a.tail, a.head, a.label) for a in Q.arrows] == \
        [(a.tail, a.head, a.label) for a in quiver_four_sheaves.arrows]


@pytest.mark.parametrize("strip", [(), ("rays", "collection")],
                         ids=["full", "bare"])
@pytest.mark.parametrize("name", sorted(os.listdir(INPUTS)))
def test_dimer_quiver_is_certified(name, strip, capsys, tmp_path):
    """The document `quiver` writes for each fixture, with or without its
    rays and collection, rebuilds its quiver of sections: the class group,
    the arrows in their order and the translations, |G| of them for a
    quotient; one with both writes itself again.  One whose collection is
    all of a finite Cl prints its source's `complex` and `resolution
    --verify-exactness --bound 2` output byte for byte, as both take the
    hypercube complex.  Without its last arrow it exits 2 with a
    message."""
    Q = load(name).quiver()
    doc = quiver_document(Q)
    for field in strip:
        doc.pop(field, None)
    P = parse_document(doc).quiver()
    assert P.X.cl.moduli == Q.X.cl.moduli and P.arrows == Q.arrows
    assert P.translations == Q.translations
    if not strip:
        assert quiver_document(P) == doc
    if "mckay" in name:
        assert len(P.translations) == P.n_vertices > 1
    if P.is_mckay:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for cmd, *args in (["complex"],
                           ["resolution", "--verify-exactness", "--bound", "2"]):
            outputs = [(main([cmd, source, *args]), capsys.readouterr())
                       for source in (input_path(name), str(path))]
            assert outputs[0][0] == 0 and outputs[0] == outputs[1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, arrows=doc["arrows"][:-1])))
    assert main(["quiver", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "error: dimer_quiver arrows are not a quiver of sections: ")
    assert err.count("\n") == 1


def test_dimer_refusal_names_the_first_differing_arrow():
    """A dimer_quiver document whose arrows differ from those rebuilt
    names the least arrow in one list and not the other; one whose rays
    cannot be recovered says why."""
    doc = quiver_document(load("threefold_four_sheaves.json").quiver())
    lost = dict(doc, arrows=[a for a in doc["arrows"] if a[:2] != [1, 2]])
    with pytest.raises(InputError, match=re.escape(
            "dimer_quiver arrows are not a quiver of sections: arrow_order "
            "is not a permutation of the computed arrows: 1 -> 2 (x2) is "
            "computed, not listed")):
        parse_document(lost).quiver()
    conifold = quiver_document(load("conifold.json").quiver())
    del conifold["rays"], conifold["collection"]
    conifold["arrows"].pop()
    with pytest.raises(InputError, match=r"not a quiver of sections: "
                       r"ray \(0, 0\) is not primitive"):
        parse_document(conifold).quiver()


def test_malformed_arrow_rejected():
    raw = {"kind": "dimer_quiver", "vertices": 2,
           "arrows": [[0, 1, "x"]]}
    with pytest.raises(InputError, match="labels must be nonnegative"):
        parse_document(raw)


TRIVIAL_A3 = {"kind": "toric", "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
              "collection": [[0, 0, 0]]}

# booleans where integers belong, and groups above MAX_GROUP_ORDER
MALFORMED_DOCUMENTS = [
    dict(TRIVIAL_A3, options={"bound": True}),
    dict(TRIVIAL_A3, rays=[[True, 0, 0], [0, 1, 0], [0, 0, 1]]),
    dict(TRIVIAL_A3, collection=[[False, 0, 0]]),
    dict(TRIVIAL_A3, options={"lifts": [[True, 0, 0]]}),
    dict(TRIVIAL_A3, options={"arrow_order": [[0, 0, [True, 0, 0]]]}),
    {"kind": "dimer_quiver", "vertices": True, "arrows": []},
    {"kind": "dimer_quiver", "vertices": 2, "arrows": [[True, 1, [1]]]},
    {"kind": "cyclic_quotient", "order": 65, "weights": [1, 1, 63]},
    {"kind": "abelian_quotient", "generators": [
        {"order": 8, "weights": [1, 7, 0]}, {"order": 9, "weights": [0, 1, 8]}]},
]


@pytest.mark.parametrize("raw", MALFORMED_DOCUMENTS)
def test_malformed_document_rejected(raw):
    with pytest.raises(InputError):
        parse_document(raw)


MALFORMED_GENERATORS = [
    {"order": 0, "weights": [1, 2, 3]},
    {"order": -3, "weights": [1, 2]},
    {"order": 6, "weights": ["a", 2, 3]},
    {"order": 6, "weights": [1.5, 2, 3]},
    {"order": True, "weights": [1, 1]},      # a boolean is not an order
    {"order": 2, "weights": [True, True]},
    {"order": 2.0, "weights": [1, 1]},
    {"order": 2, "weights": "11"},
    {"order": 2, "weights": []},
]


@pytest.mark.parametrize("gen", MALFORMED_GENERATORS)
def test_malformed_quotient_group_rejected(gen):
    with pytest.raises(InputError, match="positive integer order"):
        parse_document({"kind": "abelian_quotient", "generators": [gen]})
    with pytest.raises(InputError,
                       match="positive integer order|has the wrong type"):
        parse_document(dict(gen, kind="cyclic_quotient"))


def test_quotient_group_accepts_integers():
    doc = parse_document({"kind": "abelian_quotient",
                          "generators": [{"order": 2, "weights": [1, 1]}]})
    assert doc.group.generators == ((2, (1, 1)),)
    doc = parse_document({"kind": "cyclic_quotient", "order": 6,
                          "weights": [1, 2, 3]})
    assert doc.group.generators == ((6, (1, 2, 3)),)
