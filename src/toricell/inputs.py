"""Input documents: JSON descriptions of the geometry to analyze.

Four kinds are accepted.  "toric" gives ray generators and a collection
of divisor vectors; "cyclic_quotient" and "abelian_quotient" give group
data for an abelian quotient of affine space; "dimer_quiver" gives an
explicit quiver (as written by the quiver subcommand, so output files
round-trip as inputs), which must be a quiver of sections.
"""

from __future__ import annotations

import json

from .errors import InputError
from .intlinalg import kernel_basis, lattice_basis, mat_vec, transpose
from .quiver import QuiverOfSections, build_quiver, mckay_quiver
from .variety import (
    AbelianGroupData,
    Collection,
    mckay_toric_data,
    toric_variety,
)


KINDS = ("toric", "cyclic_quotient", "abelian_quotient", "dimer_quiver")

# Largest quotient group order accepted.  The McKay quiver has one vertex
# per group element.  Its build is one staircase walk for S0 and one
# pruned walk per vertex, which stops at the unit vectors:
# Z/50(1,1,48) takes 6 ms, Z/64(1,1,62) 10 ms, Z/100(1,1,98) 23 ms and
# Z/64(1,1,1,61) 0.13 s on a 2-vCPU guest.  Exactness sweeps every pair of
# vertices, so a higher cap needs those layers measured too.
MAX_GROUP_ORDER = 64


def _integer(x):
    """A JSON integer: an int that is not a boolean."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require(doc, key, types):
    if key not in doc:
        raise InputError(f"missing field '{key}'")
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, types):
        raise InputError(f"field '{key}' has the wrong type")
    return val


def _int_matrix(rows, what, width=None):
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or not all(
                _integer(x) for x in row):
            raise InputError(f"{what} must be lists of integers")
        if width is not None and len(row) != width:
            raise InputError(f"{what} must have length {width}")
        out.append(tuple(row))
    if not out:
        raise InputError(f"{what} is empty")
    if width is None and len({len(r) for r in out}) != 1:
        raise InputError(f"{what} have mixed lengths")
    return out


def _group_generator(order, weights, what):
    """(order, weights) of one cyclic factor of a quotient group: a positive
    integer order and a non-empty list of integer weights."""
    if not (_integer(order) and order >= 1 and isinstance(weights, list)
            and weights and all(_integer(w) for w in weights)):
        raise InputError(f"{what} needs a positive integer order and "
                         "integer weights, at least one")
    return order, tuple(weights)


def _quotient_group(doc, kind):
    if kind == "cyclic_quotient":
        return AbelianGroupData.cyclic(*_group_generator(
            _require(doc, "order", int), _require(doc, "weights", list),
            "cyclic_quotient"))
    raw = _require(doc, "generators", list)
    gens = []
    for g in raw:
        if not isinstance(g, dict):
            raise InputError(
                "generators must be objects with order and weights")
        gens.append(_group_generator(g.get("order"), g.get("weights"),
                                     "each abelian_quotient generator"))
    if not gens:
        raise InputError("abelian_quotient needs at least one generator")
    n = len(gens[0][1])
    if any(len(w) != n for _, w in gens):
        raise InputError("generator weights have mixed lengths")
    return AbelianGroupData(generators=tuple(gens), n=n)


def _arrow_list(raw, what):
    out = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 3
                or not _integer(item[0]) or not _integer(item[1])):
            raise InputError(f"{what} entries must be [tail, head, label]")
        t, h, lab = item
        if not isinstance(lab, (list, tuple)) or not all(
                _integer(x) and x >= 0 for x in lab):
            raise InputError(f"{what} labels must be nonnegative integer vectors")
        out.append((t, h, tuple(lab)))
    return out


class InputDocument:
    """A parsed document; `parse_document` sets its parsed options."""

    def __init__(self, kind, group=None, rays=None, collection_reps=None,
                 vertices=None, arrows=None):
        self.kind = kind
        self.group = group
        self.rays = rays
        self.collection_reps = collection_reps
        self.vertices = vertices
        self.arrows = arrows
        self.options = {}

    def quiver(self):
        if self.kind == "dimer_quiver":
            return self._certified()
        order = self.options.get("arrow_order")
        if self.kind in ("cyclic_quotient", "abelian_quotient"):
            if order is None:
                return mckay_quiver(self.group)
            return build_quiver(*mckay_toric_data(self.group), arrow_order=order)
        X = toric_variety(self.rays)
        return build_quiver(X, Collection(X, self.collection_reps),
                            arrow_order=order)

    def _certified(self):
        """The quiver of sections of the document's arrows, in their order,
        built on its rays and collection, else on recovered rays and the
        spanning-tree lifts; refused unless the arrows come out the same
        (so a connected quiver and the collection have as many vertices).

        Recovery: each cycle of a quiver of sections carries a divisor of
        class 0, a point of B(M) (`variety`).  The integer cycles are the
        kernel of the vertex-arrow incidence matrix, and if their divisors
        span B(M), the columns of a basis of it are the rays in a basis of
        N; if not, the rebuild refuses the document."""
        Q = QuiverOfSections(self.vertices, self.arrows)
        try:
            lifts, rays = Q.preferred_lifts(), self.rays
            if rays is None:
                incidence = [[(a.head == v) - (a.tail == v) for a in Q.arrows]
                             for v in range(Q.n_vertices)]
                labels = transpose([a.label for a in Q.arrows])
                rays = list(zip(*lattice_basis(
                    [mat_vec(labels, k) for k in kernel_basis(incidence)], Q.d)))
            X = toric_variety(rays)
            reps = self.collection_reps or lifts
            return build_quiver(X, Collection(X, reps), arrow_order=self.arrows)
        except InputError as exc:
            raise InputError(
                f"dimer_quiver arrows are not a quiver of sections: {exc}") from None


def parse_document(doc):
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    kind = _require(doc, "kind", str)
    if kind not in KINDS:
        raise InputError(f"unknown kind '{kind}'; expected one of {KINDS}")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InputError("options must be an object")
    known = {"arrow_order", "lifts", "m_basis", "bound"}
    for key in options:
        if key not in known:
            raise InputError(f"unknown option '{key}'")
    if "bound" in options and not _integer(options["bound"]):
        raise InputError("bound must be an integer")

    if kind in ("cyclic_quotient", "abelian_quotient"):
        group = _quotient_group(doc, kind)
        if group.order() > MAX_GROUP_ORDER:
            raise InputError(f"group order {group.order()} exceeds "
                             f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
        parsed = InputDocument(kind=kind, group=group)
        n = d = group.n
        vertices = group.order()
    elif kind == "toric":
        rays = _int_matrix(_require(doc, "rays", list), "rays")
        reps = _int_matrix(_require(doc, "collection", list), "collection",
                           width=len(rays))
        parsed = InputDocument(kind=kind, rays=rays, collection_reps=reps)
        n, d, vertices = len(rays[0]), len(rays), len(reps)
    else:  # dimer_quiver
        vertices = _require(doc, "vertices", int)
        arrows = _arrow_list(_require(doc, "arrows", list), "arrows")
        rays = reps = n = d = None
        if "rays" in doc:
            rays = _int_matrix(doc["rays"], "rays")
            n, d = len(rays[0]), len(rays)
            if any(len(label) != d for _, _, label in arrows):
                raise InputError(f"arrow labels must have length {d}, "
                                 "one entry per ray")
            if "collection" in doc:
                reps = _int_matrix(doc["collection"], "collection", width=d)
        parsed = InputDocument(kind=kind, vertices=vertices, arrows=arrows,
                               rays=rays, collection_reps=reps)
    parsed.options = _options(options, n, d, vertices)
    return parsed


def _options(options, n, d, vertices):
    """The options with their lists parsed.  For a document with rays in
    dimension n, d of them, the m_basis must be n x n and the lifts one
    row of length d per vertex."""
    options = dict(options)
    if "arrow_order" in options:
        options["arrow_order"] = _arrow_list(options["arrow_order"],
                                             "arrow_order")
    if "lifts" in options:
        options["lifts"] = lifts = _int_matrix(options["lifts"], "lifts", d)
        if d is not None and len(lifts) != vertices:
            raise InputError(f"lifts must have {vertices} rows, one per vertex")
    if "m_basis" in options:
        options["m_basis"] = basis = _int_matrix(options["m_basis"], "m_basis", n)
        if n is not None and len(basis) != n:
            raise InputError(f"m_basis must have {n} rows")
    return options


def load_document(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # a ValueError also for text that is not UTF-8 or an integer with
        # too many digits, a RecursionError for lists nested too deep
        raise InputError(f"{path} is not valid JSON: {exc}")
    return parse_document(doc)


def quiver_document(Q):
    """A dimer_quiver document reproducing Q, suitable for round-trips."""
    return {
        "kind": "dimer_quiver",
        "vertices": Q.n_vertices,
        "arrows": [[a.tail, a.head, list(a.label)] for a in Q.arrows],
        "rays": [list(r) for r in Q.X.rays],
        "collection": [list(c.representative) for c in Q.collection.classes],
    }
