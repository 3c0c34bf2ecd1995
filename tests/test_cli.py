import fcntl
import json
import os
import subprocess
import sys
import time

import pytest

from toricell import intlinalg, resolution, tiling
from toricell.cli import main
from toricell.errors import InternalError
from toricell.intlinalg import adjugate

from conftest import INPUTS, input_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_quiver_output(capsys):
    code, doc = run(capsys, "quiver", input_path("threefold_four_sheaves.json"))
    assert code == 0
    assert doc["kind"] == "dimer_quiver"
    assert len(doc["arrows"]) == 10
    assert doc["labels"][8] == "x1x2"


def test_quiver_dot_file(capsys, tmp_path):
    dot = tmp_path / "q.dot"
    code, _ = run(capsys, "quiver", input_path("threefold_four_sheaves.json"),
                  "--dot", str(dot))
    assert code == 0
    assert dot.read_text().count("->") == 10


def test_superpotential_output(capsys):
    code, doc = run(capsys, "superpotential", input_path("threefold_four_sheaves.json"))
    assert code == 0
    assert doc["n_terms"] == 6
    assert doc["n_relations"] == 10


def test_consistency_exit_codes(capsys):
    code, doc = run(capsys, "consistency", input_path("threefold_four_sheaves.json"))
    assert code == 0 and doc["consistent"]
    code, doc = run(capsys, "consistency", input_path("threefold_three_sheaves.json"))
    assert code == 1 and not doc["consistent"]
    assert "a5" in doc["quick_reject_arrows"]


def test_matchings_output(capsys):
    code, doc = run(capsys, "matchings", input_path("threefold_four_sheaves.json"))
    assert code == 0
    assert doc["rank"] == 6
    assert len(doc["matchings"]) == 8
    supports = {m["extremal_ray"]: m["support"] for m in doc["matchings"]
                if m["extremal_ray"] is not None}
    assert supports[1] == ["a1", "a6", "a9"]
    assert doc["weight_zero_matches"]


def test_complex_output(capsys):
    code, doc = run(capsys, "complex", input_path("threefold_four_sheaves.json"))
    assert code == 0
    assert doc["counts"] == [4, 10, 10, 4]
    assert doc["incidence_feasible"]


def test_complex_mckay(capsys):
    code, doc = run(capsys, "complex", input_path("mckay_z6_123.json"))
    assert code == 0
    assert doc["counts"] == [6, 18, 18, 6]


def test_resolution_with_exactness(capsys):
    code, doc = run(capsys, "resolution", input_path("mckay_z2_11.json"),
                    "--verify-exactness", "--bound", "2")
    assert code == 0
    assert doc["minimal"] and doc["exact"]
    assert doc["pieces_checked"] == 4 * 9


def test_negative_bound_rejected(capsys):
    code = main(["resolution", input_path("mckay_z2_11.json"),
                 "--verify-exactness", "--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bound must be nonnegative" in captured.err
    code = main(["consistency", input_path("mckay_z2_11.json"),
                 "--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


def test_exactness_piece_limit_exit_code(capsys):
    """A bound whose graded pieces pass resolution.MAX_PIECES is refused
    at once with exit code 2."""
    code = main(["resolution", input_path("mckay_z2_11.json"),
                 "--verify-exactness", "--bound", "100000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "graded pieces" in captured.err


def test_exactness_triple_limit_exit_code(capsys, monkeypatch):
    """A bound whose pieces pass resolution.MAX_PIECES but whose one-sided
    basis elements pass resolution.MAX_TRIPLES is refused at once with
    exit code 2.  No fixture reaches the limit at a bound that MAX_PIECES
    admits, so it is lowered below the 994,050 elements of mckay_z2_11 at
    bound 352."""
    monkeypatch.setattr(resolution, "MAX_TRIPLES", 994_049)
    t0 = time.perf_counter()
    code = main(["resolution", input_path("mckay_z2_11.json"),
                 "--verify-exactness", "--bound", "352"])
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "994050 basis elements" in captured.err


def test_consistency_class_limit_exit_code(capsys):
    """A bound whose path classes could pass superpotential.MAX_CLASSES is
    refused at once with exit code 2."""
    t0 = time.perf_counter()
    code = main(["consistency", input_path("mckay_z2_11.json"),
                 "--bound", "700"])
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "path classes" in captured.err


def test_matchings_scan_limit_exit_code(capsys, tmp_path):
    """The perfect matchings of Z/22(1,2,19), an admitted quotient whose
    double description ran for minutes, pass cones._SCAN_LIMIT and are
    refused with exit code 2 before much of that work."""
    doc = tmp_path / "z22.json"
    doc.write_text(json.dumps({"kind": "cyclic_quotient", "order": 22,
                               "weights": [1, 2, 19]}))
    t0 = time.perf_counter()
    code = main(["matchings", str(doc)])
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "_SCAN_LIMIT" in captured.err


def test_reconstruct_valid(capsys, tmp_path):
    svg = tmp_path / "t.svg"
    code, doc = run(capsys, "reconstruct", input_path("threefold_four_sheaves.json"),
                    "--svg", str(svg))
    assert code == 0
    assert doc["valid"]
    assert doc["total_area"] == [1, 1]
    assert doc["vertices"][1] == [[5, 9], [1, 9]]
    assert svg.read_text().startswith("<svg")


def test_reconstruct_crossing_exit_code(capsys):
    code, doc = run(capsys, "reconstruct", input_path("threefold_five_sheaves.json"))
    assert code == 1
    assert not doc["valid"]
    assert doc["crossings"]


def test_signcheck(capsys):
    code, doc = run(capsys, "signcheck", input_path("threefold_four_sheaves.json"),
                    "--arrow", "1")
    assert code == 0
    assert doc["admits_signs"]


def test_invalid_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nonsense"}))
    assert main(["quiver", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["quiver", str(missing)]) == 2
    # text that is not UTF-8, lists nested past the recursion limit and an
    # integer past the digit limit of int(str): each raised a traceback
    bad.write_bytes(b"\xff\xfe")
    assert main(["quiver", str(bad)]) == 2
    bad.write_text("[" * 100_000)
    assert main(["quiver", str(bad)]) == 2
    bad.write_text('{"kind": "toric", "rays": [[' + "1" * 5000 + "]]}")
    assert main(["quiver", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("is not valid JSON") == 3


def test_internal_error_exit_code(capsys, monkeypatch):
    """A broken invariant of the library exits 3, apart from invalid
    input (2) and a failing property (1)."""
    assert not issubclass(InternalError, ValueError)
    monkeypatch.setattr(tiling, "left_inverse",
                        lambda B: ([[0] * len(B) for _ in range(3)], 1))
    assert main(["reconstruct",
                 input_path("threefold_four_sheaves.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: projection is not a left inverse of B\n")


def test_closed_pipe_exits_quietly():
    """A reader that closes stdout after 10 bytes, as `| head -c 10` does,
    is no bug in toricell: it stops with 141, the shell's code for
    SIGPIPE, and prints nothing more.  The pipe holds one 4 KiB page, so
    the 24 kB report must meet the closed end."""
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a pipe of fixed size (Linux)")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    r, w = os.pipe()
    fcntl.fcntl(r, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricell.cli", "consistency",
         input_path("threefold_three_sheaves.json"), "--bound", "3"],
        stdout=w, stderr=subprocess.PIPE, env=env)
    os.close(w)
    head = b""
    while len(head) < 10 and (chunk := os.read(r, 10 - len(head))):
        head += chunk
    os.close(r)
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head == b'{\n  "bound'
    assert err == b""


@pytest.mark.parametrize("bug, message", [
    # every caller of the adjugate proves its matrix nonsingular, so a
    # singular one is a bug, not invalid input
    (lambda B: adjugate([[1, 2], [2, 4]]), "matrix is singular"),
    (lambda B: 1 // 0, "ZeroDivisionError: integer division or modulo by zero"),
], ids=["singular", "zero_division"])
def test_bug_exit_code(capsys, monkeypatch, bug, message):
    """Any exception other than InputError or ConstructionError is a bug:
    exit 3 with one line on stderr and no traceback."""
    monkeypatch.setattr(tiling, "left_inverse", bug)
    assert main(["reconstruct",
                 input_path("threefold_four_sheaves.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {message}\n"


@pytest.mark.parametrize("module, command, fixture", [
    (intlinalg, "quiver", "conifold.json"),       # CokernelForm
    (tiling, "reconstruct", "conifold.json"),     # _complete_to_basis
], ids=["cokernel", "basis_completion"])
def test_non_unimodular_smith_transform_exit_code(capsys, monkeypatch, module,
                                                  command, fixture):
    """A Smith transform U whose determinant is not +-1 has no integer
    inverse; it is a bug and exits 3 instead of truncating U^{-1}."""
    smith = intlinalg.smith_normal_form

    def doubled_first_row(A):
        sf = smith(A)
        sf.U[0] = [2 * x for x in sf.U[0]]
        return sf

    monkeypatch.setattr(module, "smith_normal_form", doubled_first_row)
    assert main([command, input_path(fixture)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: matrix is not unimodular\n"


@pytest.mark.parametrize("order, weight", [(0, 1), (6, "a"), (6, 1.5)])
def test_malformed_quotient_exit_code(capsys, tmp_path, order, weight):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "abelian_quotient",
        "generators": [{"order": order, "weights": [weight, 2, 3]}]}))
    assert main(["quiver", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive integer order and integer weights" in captured.err


with open(input_path("threefold_four_sheaves.json")) as fh:
    FOUR = json.load(fh)
# the four-sheaves quiver as a dimer_quiver without rays
DIMER = {"kind": "dimer_quiver", "vertices": 4,
         "arrows": FOUR["options"]["arrow_order"]}
# the same without its last arrow: not a quiver of sections
BROKEN = dict(DIMER, arrows=DIMER["arrows"][:-1])


# a quotient whose arrow order lists one of its nine arrows
BAD_ORDER = {"kind": "cyclic_quotient", "order": 3, "weights": [1, 1, 1],
             "options": {"arrow_order": [[0, 1, [1, 0, 0]]]}}


def four_sheaves(**options):
    """The four-sheaves document with the given options replaced."""
    return dict(FOUR, options=dict(FOUR["options"], **options))


@pytest.mark.parametrize("doc, message", [
    ({"kind": "cyclic_quotient", "order": 2, "weights": [1, 1],
      "options": {"bound": True}}, "bound must be an integer"),
    ({"kind": "cyclic_quotient", "order": 2, "weights": []},
     "integer weights, at least one"),
    ({"kind": "cyclic_quotient", "order": 20000003,
      "weights": [1, 1, 20000001]}, "exceeds MAX_GROUP_ORDER = 64"),
    (dict(DIMER, rays=FOUR["rays"],
          arrows=[[t, h, label + [0]] for t, h, label in DIMER["arrows"]]),
     "arrow labels must have length 4"),
    # in SL(3) and small, but two elements act alike: exited 3 before
    ({"kind": "cyclic_quotient", "order": 4, "weights": [2, 2, 0]},
     "group does not act faithfully"),
    ({"kind": "cyclic_quotient", "order": 6, "weights": [2, 2, 2]},
     "group does not act faithfully"),
    ({"kind": "cyclic_quotient", "order": 2, "weights": [0, 0, 0]},
     "group does not act faithfully"),
    ({"kind": "abelian_quotient",
      "generators": [{"order": 2, "weights": [1, 1, 0]}] * 2},
     "group does not act faithfully"),
])
def test_rejected_document_exit_code(capsys, tmp_path, doc, message):
    check_rejected(capsys, tmp_path, doc, message, "consistency")


@pytest.mark.parametrize("command, doc, message", [
    ("reconstruct", four_sheaves(m_basis=[[1, 0]] * 3),
     "m_basis must have length 3"),
    ("reconstruct", four_sheaves(m_basis=[[1, 0, 0], [0, 0, 1]]),
     "m_basis must have 3 rows"),
    ("reconstruct", four_sheaves(m_basis=[[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "M-basis is not unimodular"),
    ("reconstruct", four_sheaves(m_basis=[[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
     "last basis vector must be the Gorenstein covector"),
    ("reconstruct", four_sheaves(lifts=[[0, 0, 0, 0]] * 3),
     "lifts must have 4 rows"),
    ("reconstruct", four_sheaves(lifts=[[0, 0, 0]] * 4),
     "lifts must have length 4"),
    ("reconstruct", four_sheaves(lifts=[[0, 0, 0, 0], [0, 1, 0, 0],
                                        [1, 1, 0, 0], [0, 0, 0, -1]]),
     "lifts are not compatible with a"),
    ("complex", BROKEN, "arrows are not a quiver of sections"),
    ("resolution", BROKEN, "arrows are not a quiver of sections"),
    ("reconstruct", BROKEN, "arrows are not a quiver of sections"),
    # complex and resolution built the quotient's complex without its
    # arrow order and exited 0
    *[(command, BAD_ORDER, "arrow_order is not a permutation")
      for command in ("quiver", "consistency", "matchings", "complex",
                      "resolution", "reconstruct")],
])
def test_rejected_request_exit_code(capsys, tmp_path, command, doc, message):
    """Options and subcommands the document does not fit exit 2 as well;
    each of these exited 1 or raised a traceback, or exited 1 under one
    subcommand and 2 under another."""
    check_rejected(capsys, tmp_path, doc, message, command)


@pytest.mark.parametrize("argv", [
    ["complex"], ["resolution", "--verify-exactness", "--bound", "2"],
    ["matchings"]], ids=["complex", "resolution", "matchings"])
def test_bare_dimer_document_prints_the_toric_output(capsys, tmp_path, argv):
    """The four sheaves' arrows alone are certified as their quiver of
    sections, with recovered rays and spanning-tree lifts, and print what
    the toric document prints."""
    bare = tmp_path / "dimer.json"
    bare.write_text(json.dumps(DIMER))
    outputs = []
    for path in (input_path("threefold_four_sheaves.json"), str(bare)):
        code = main([argv[0], path, *argv[1:]])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def check_rejected(capsys, tmp_path, doc, message, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main([command, str(bad)]) == 2
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_quiver_roundtrip(capsys, tmp_path):
    """The quiver output is itself a valid input reproducing the same
    superpotential and relations."""
    code, doc = run(capsys, "quiver", input_path("threefold_four_sheaves.json"))
    assert code == 0
    doc.pop("labels")
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(doc))
    _, a = run(capsys, "superpotential", input_path("threefold_four_sheaves.json"))
    _, b = run(capsys, "superpotential", str(echo))
    assert a == b


def test_deterministic_output(capsys):
    _, a = run(capsys, "superpotential", input_path("threefold_four_sheaves.json"))
    _, b = run(capsys, "superpotential", input_path("threefold_four_sheaves.json"))
    assert a == b


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_FIXTURES = sorted(name[:-len(".json")] for name in os.listdir(INPUTS)
                         if name.endswith(".json") and name != "fourfold.json")


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("fixture", GOLDEN_FIXTURES + ["fourfold"])
def test_consistency_golden(capsys, fixture, bound):
    """The consistency JSON is byte-identical to the committed golden."""
    code = main(["consistency", input_path(fixture + ".json"),
                 "--bound", str(bound)])
    out = capsys.readouterr().out
    path = os.path.join(GOLDEN, "consistency", f"{fixture}_bound{bound}.json")
    with open(path, "rb") as fh:
        want = fh.read()
    assert out.encode() == want
    assert code == (0 if json.loads(want)["consistent"] else 1)


GOLDEN_RUNS = {
    "quiver": [],
    "superpotential": [],
    "matchings": [],
    "complex": [],
    "resolution": ["--verify-exactness"],
    "reconstruct": [],
    "signcheck": ["--arrow", "1"],
}


@pytest.mark.parametrize("fixture", GOLDEN_FIXTURES)
@pytest.mark.parametrize("command", sorted(GOLDEN_RUNS))
def test_subcommand_golden(capsys, command, fixture):
    """Stdout and exit code of each subcommand equal the committed golden;
    a run that fails has its (possibly empty) stdout compared too."""
    code = main([command, input_path(fixture + ".json")]
                + GOLDEN_RUNS[command])
    out = capsys.readouterr().out
    folder = os.path.join(GOLDEN, command)
    with open(os.path.join(folder, fixture + ".stdout"), "rb") as fh:
        want = fh.read()
    with open(os.path.join(folder, "exit_codes.json")) as fh:
        want_code = json.load(fh)[fixture]
    assert (code, out.encode()) == (want_code, want)


@pytest.mark.parametrize("fixture", GOLDEN_FIXTURES)
def test_reconstruct_svg_golden(capsys, tmp_path, fixture):
    """The `reconstruct --svg` file is byte-identical to the committed
    golden; a fixture without a golden SVG (no threefold) writes none."""
    svg = tmp_path / "t.svg"
    main(["reconstruct", input_path(fixture + ".json"), "--svg", str(svg)])
    capsys.readouterr()
    path = os.path.join(GOLDEN, "reconstruct", fixture + ".svg")
    if not os.path.exists(path):
        assert not svg.exists()
        return
    with open(path, "rb") as fh:
        assert svg.read_bytes() == fh.read()
