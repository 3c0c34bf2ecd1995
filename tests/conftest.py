import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from toricell.complexes import mckay_complex  # noqa: E402
from toricell.inputs import load_document  # noqa: E402
from toricell.quiver import mckay_quiver  # noqa: E402
from toricell.variety import toric_variety  # noqa: E402

INPUTS = os.path.join(os.path.dirname(__file__), "..", "inputs")


def input_path(name):
    return os.path.join(INPUTS, name)


def load(name):
    return load_document(input_path(name))


@pytest.fixture(autouse=True)
def fresh_quotient_memos():
    """Empty the per-group quiver and complex memos and the per-ray-list
    variety memo before each test, so that no test reads the builds of
    another."""
    mckay_quiver.cache_clear()
    mckay_complex.cache_clear()
    toric_variety.cache_clear()


@pytest.fixture(scope="session")
def quiver_four_sheaves():
    return load("threefold_four_sheaves.json").quiver()


@pytest.fixture(scope="session")
def quiver_three_sheaves():
    return load("threefold_three_sheaves.json").quiver()


@pytest.fixture(scope="session")
def quiver_five_sheaves():
    return load("threefold_five_sheaves.json").quiver()


@pytest.fixture(scope="session")
def quiver_conifold():
    return load("conifold.json").quiver()


@pytest.fixture(scope="session")
def quiver_trivial_a3():
    return load("trivial_a3.json").quiver()


@pytest.fixture(scope="session")
def fourfold_pipeline():
    """The big example: quiver, superpotential and relations, built once.

    Returns (quiver, superpotential, relations, seconds spent building).
    """
    from toricell.superpotential import relations, superpotential

    t0 = time.time()
    Q = load("fourfold.json").quiver()
    W = superpotential(Q)
    rels = relations(Q, W)
    return Q, W, rels, time.time() - t0


@pytest.fixture(scope="session")
def mckay_z6_group():
    return load("mckay_z6_123.json").group


@pytest.fixture(scope="session")
def mckay_z6_complex(mckay_z6_group):
    from toricell.complexes import mckay_complex

    return mckay_complex(mckay_z6_group)


def fixture_documents():
    out = []
    for name in sorted(os.listdir(INPUTS)):
        if name.endswith(".json"):
            with open(os.path.join(INPUTS, name)) as fh:
                out.append((name, json.load(fh)))
    return out
