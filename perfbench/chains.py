"""The library chain each workload drives, with its reference checks.

Every call into the library sits inside a span named after the module
that owns the called function; the recorder is a no-op in untraced runs.
Traced runs add passes of their own, in spans named ``bench.*``, that
split work the chain's calls do internally: ``paths_from`` per vertex, and
``graded_piece`` apart from ``intlinalg.rank``.  They also compute the
hom fibers cold, one per distinct class, before the quiver build reads
them warm; that is the same work as the untraced quiver, reordered.

Reference values are relabelling-invariant, so one table per workload
serves every seed.  A value that differs from its reference, or that was
never reached because the chain raised, is a failed check.
"""

from __future__ import annotations

import itertools
import sys
import time
import traceback

from toricell.complexes import general_complex, mckay_complex, sign_infeasibility
from toricell.intlinalg import rank
from toricell.matchings import perfect_matchings, weight_zero_check
from toricell.quiver import build_quiver
from toricell.resolution import (
    build_resolution,
    graded_piece,
    mckay_sign_crosscheck,
    verify_exactness,
    verify_square_zero,
)
from toricell.superpotential import consistency, relations, superpotential
from toricell.tiling import dimer_reconstruct, projection_maps, verify_tiling
from toricell.variety import Collection, GorensteinToricVariety, mckay_toric_data

FOURFOLD_ARROW_A23 = 22
THREEFOLD_BOUND = 3
DIMER_CONSISTENT = ("threefold_four_sheaves", "conifold")


def references(workload, entries):
    """Expected value of every check of a workload, keyed 'label.check'."""
    ref = {}
    if workload == "fourfold":
        ref.update({
            "fourfold.arrows": 26, "fourfold.terms": 36,
            "fourfold.relations": 36, "fourfold.consistent": True,
            "fourfold.counts": (8, 26, 36, 26, 8),
            "fourfold.tau_involution": True, "fourfold.signs_feasible": True,
            "fourfold.a23_odd_cycle": 7, "fourfold.square_zero": True,
            "fourfold.exact": True, "fourfold.pieces": 8 * 8 * 2 ** 6,
        })
    elif workload == "mckay_exactness":
        for label, doc, settings in entries:
            r, b = doc["order"], settings["bound"]
            ref.update({
                f"{label}.consistent": True,
                f"{label}.counts": (r, 3 * r, 3 * r, r),
                f"{label}.tau_involution": True, f"{label}.crosscheck": True,
                f"{label}.square_zero": True, f"{label}.exact": True,
                f"{label}.pieces": r * r * (b + 1) ** 3,
            })
    elif workload == "threefold_consistency":
        # (arrows, terms, relations, consistent, witnesses, matchings)
        table = {
            "threefold_three_sheaves": (10, 3, 1, False, 131, 7),
            "threefold_four_sheaves": (10, 6, 10, True, 0, 8),
            "threefold_five_sheaves": (12, 8, 10, True, 0, 11),
            "conifold": (4, 2, 4, True, 0, 4),
        }
        # (valid, Euler number, crossings) of the reconstructed tiling
        tilings = {"threefold_four_sheaves": (True, 0, 0),
                   "threefold_five_sheaves": (False, 1, 7),
                   "conifold": (True, 0, 0)}
        counts = {"threefold_four_sheaves": (4, 10, 10, 4),
                  "conifold": (2, 4, 4, 2)}
        for label, _doc, _settings in entries:
            arrows, terms, rels, ok, witnesses, matchings = table[label]
            ref.update({
                f"{label}.arrows": arrows, f"{label}.terms": terms,
                f"{label}.relations": rels, f"{label}.consistent": ok,
                f"{label}.witnesses": witnesses,
                f"{label}.matchings": matchings,
                f"{label}.weight_zero": True,
            })
            if label in counts:
                ref.update({f"{label}.counts": counts[label],
                            f"{label}.signs_feasible": True,
                            f"{label}.exact": True})
            if label in tilings:
                ref[f"{label}.tiling"] = tilings[label]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ref


class Run:
    """One worker's chain state: checks, the quiver timer and the recorder."""

    def __init__(self, workload, entries, rec):
        self.workload = workload
        self.entries = entries
        self.rec = rec
        self.expected = references(workload, entries)
        self.observed = {}
        self.quiver_s = 0.0

    def check(self, name, value):
        if name not in self.expected:
            raise KeyError(f"check {name} has no reference value")
        self.observed[name] = value

    def outcome(self):
        """(attempted, failed, mismatches); an unreached check has failed."""
        mismatches = []
        for name, want in self.expected.items():
            if name not in self.observed:
                mismatches.append((name, want, "not reached"))
            elif self.observed[name] != want:
                mismatches.append((name, want, self.observed[name]))
        return len(self.expected), len(mismatches), mismatches

    def execute(self, docs):
        """Run the workload's chain on each parsed document in turn.

        A document whose chain raises has its traceback printed to stderr
        and the next one runs; its remaining checks count as failed.
        """
        chain = CHAINS[self.workload]
        for (label, _raw, settings), doc in zip(self.entries, docs):
            try:
                chain(self, label, doc, settings)
            except Exception:
                print(f"{label}: {traceback.format_exc()}", file=sys.stderr)

    # -- quivers of sections -------------------------------------------------

    def quiver(self, doc):
        t0 = time.perf_counter()
        Q = self._traced_quiver(doc) if self.rec.enabled else doc.quiver()
        self.quiver_s += time.perf_counter() - t0
        return Q

    def _traced_quiver(self, doc):
        """The steps of InputDocument.quiver, with the hom fibers computed
        cold per distinct class before build_quiver reads them warm."""
        rec = self.rec
        with rec.span("variety.init"):
            if doc.kind == "toric":
                X = GorensteinToricVariety(doc.rays)
                coll = Collection(X, doc.collection_reps)
            else:
                X, coll = mckay_toric_data(doc.group)
        with rec.span("cones.s0_hilbert"):
            ctx = X.fiber_context
        rec.count("cones.s0_hilbert_size", len(ctx.s0_hilbert))
        classes = set()
        for i, j in itertools.permutations(range(len(coll)), 2):
            rec.count("cones.fiber_requests")
            c = coll.difference(i, j)
            if c in classes:
                continue
            classes.add(c)
            with rec.span("cones.fiber"):
                gens = X.hom_sections(c)
            rec.count("cones.fiber_classes")
            rec.count("cones.fiber_generators", len(gens))
        with rec.span("quiver.build"):
            Q = build_quiver(X, coll, arrow_order=doc.options.get("arrow_order"))
        rec.count("quiver.arrows", len(Q.arrows))
        return Q

    def paths_pass(self, Q, bound):
        """Traced only: paths_from per vertex at the consistency budget, and
        the parallel-path buckets (>= 2 paths) the consistency check sees."""
        rec = self.rec
        if not rec.enabled:
            return
        budget = tuple(bound * x for x in Q.ones)
        with rec.span("bench.paths_pass"):
            for i in range(Q.n_vertices):
                with rec.span("quiver.paths_from"):
                    found = Q.paths_from(i, budget)
                rec.count("quiver.paths", len(found))
                buckets = {}
                for head, p in found:
                    if p:
                        key = (head, Q.path_div(p))
                        buckets[key] = buckets.get(key, 0) + 1
                for size in buckets.values():
                    if size >= 2:
                        rec.count("superpotential.buckets")
                        rec.maximum("superpotential.largest_bucket", size)

    def complex_counts(self, C):
        rec = self.rec
        if not rec.enabled:
            return
        with rec.span("bench.count"):
            rec.count("complexes.cells", len(C.cells))
            rec.count("complexes.incidences", len(C.incidences))
            rec.count("complexes.flags", len(C.composite_groups()))

    def exactness(self, label, res, bound, check_products=False):
        rec = self.rec
        with rec.span("resolution.exactness"):
            rep = verify_exactness(res, bound, check_products=check_products)
        self.check(f"{label}.exact", rep.exact)
        rec.count("resolution.pieces", rep.pieces_checked)
        return rep

    def pieces_pass(self, res, bound):
        """Traced only: every graded piece verify_exactness checks, built
        with graded_piece, then each of its matrices ranked, timed apart."""
        rec = self.rec
        if not rec.enabled:
            return
        Q = res.Q
        dvecs = list(itertools.product(range(bound + 1), repeat=Q.d))
        with rec.span("bench.pieces_pass"):
            for s, t in itertools.product(range(Q.n_vertices), repeat=2):
                for dvec in dvecs:
                    with rec.span("resolution.graded_piece"):
                        piece = graded_piece(res, s, t, dvec)
                    size = sum(piece.dims())
                    if size:
                        rec.count("resolution.nonzero_pieces")
                    rec.maximum("resolution.max_piece_dim", size)
                    for m in piece.matrices:
                        if m and m[0]:
                            with rec.span("intlinalg.rank"):
                                rank(m)
                            rec.count("intlinalg.rank_calls")
                            rec.count("intlinalg.rank_entries",
                                      len(m) * len(m[0]))


def _w_and_relations(run, label, Q):
    rec = run.rec
    with rec.span("superpotential.terms"):
        W = superpotential(Q)
    with rec.span("superpotential.relations"):
        rels = relations(Q, W)
    rec.count("superpotential.terms", len(W))
    rec.count("superpotential.relations", len(rels))
    run.check(f"{label}.arrows", len(Q.arrows))
    run.check(f"{label}.terms", len(W))
    run.check(f"{label}.relations", len(rels))
    return W, rels


def _consistency(run, label, Q, W, bound):
    run.paths_pass(Q, bound)
    with run.rec.span("superpotential.consistency"):
        rep = consistency(Q, W, bound=bound)
    run.check(f"{label}.consistent", rep.consistent)
    return rep


def _tau(run, label, C):
    with run.rec.span("complexes.tau"):
        t = C.tau()
    run.check(f"{label}.tau_involution",
              all(t[t[c.id]] == c.id for c in C.cells))


def fourfold_chain(run, label, doc, settings):
    """Criterion 8: W, relations, consistency at bound 1, the complex, its
    signs, the odd cycle on a23, the resolution and exactness at bound 1."""
    rec = run.rec
    Q = run.quiver(doc)
    W, rels = _w_and_relations(run, label, Q)
    _consistency(run, label, Q, W, 1)
    with rec.span("complexes.build"):
        C = general_complex(Q, W, rels=rels)
    run.check(f"{label}.counts", C.counts())
    run.complex_counts(C)
    _tau(run, label, C)
    with rec.span("complexes.solve_incidence"):
        sol = C.solve_incidence()
    run.check(f"{label}.signs_feasible", sol.feasible)
    with rec.span("complexes.sign_infeasibility"):
        parity = sign_infeasibility(Q, W, rels, FOURFOLD_ARROW_A23)
    run.check(f"{label}.a23_odd_cycle",
              None if parity.two_colorable else len(parity.odd_cycle))
    with rec.span("resolution.build"):
        res = build_resolution(C, signs=sol.signs)
    with rec.span("resolution.square_zero"):
        run.check(f"{label}.square_zero", verify_square_zero(res))
    rep = run.exactness(label, res, 1, check_products=True)
    run.check(f"{label}.pieces", rep.pieces_checked)
    run.pieces_pass(res, 1)


def mckay_chain(run, label, doc, settings):
    """Consistency at bound 2, the hypercube complex, the closed-form sign
    cross-check, square-zero and exactness at the document's bound."""
    rec = run.rec
    Q = run.quiver(doc)
    with rec.span("superpotential.terms"):
        W = superpotential(Q)
    rec.count("superpotential.terms", len(W))
    _consistency(run, label, Q, W, 2)
    with rec.span("complexes.build"):
        C = mckay_complex(doc.group)
    run.check(f"{label}.counts", C.counts())
    run.complex_counts(C)
    _tau(run, label, C)
    with rec.span("resolution.crosscheck"):
        mckay_sign_crosscheck(doc.group)
    run.check(f"{label}.crosscheck", True)
    with rec.span("resolution.build"):
        res = build_resolution(C, signs=C.explicit_signs)
    with rec.span("resolution.square_zero"):
        run.check(f"{label}.square_zero", verify_square_zero(res))
    rep = run.exactness(label, res, settings["bound"])
    run.check(f"{label}.pieces", rep.pieces_checked)
    run.pieces_pass(res, settings["bound"])


def threefold_chain(run, label, doc, settings):
    """Consistency at bound 3 and the matchings for every fixture; the
    complex, GF(2) signs and exactness at bound 2 for the dimer-consistent
    ones; the tiling for every consistent one."""
    rec = run.rec
    Q = run.quiver(doc)
    W, rels = _w_and_relations(run, label, Q)
    rep = _consistency(run, label, Q, W, THREEFOLD_BOUND)
    run.check(f"{label}.witnesses", len(rep.witnesses))
    with rec.span("matchings"):
        found = perfect_matchings(Q)
        zero = weight_zero_check(Q)
    rec.count("matchings.count", len(found))
    run.check(f"{label}.matchings", len(found))
    run.check(f"{label}.weight_zero", zero.matches)
    if label in DIMER_CONSISTENT:
        with rec.span("complexes.build"):
            C = general_complex(Q, W, rels=rels)
        run.check(f"{label}.counts", C.counts())
        run.complex_counts(C)
        with rec.span("complexes.solve_incidence"):
            sol = C.solve_incidence()
        run.check(f"{label}.signs_feasible", sol.feasible)
        with rec.span("resolution.build"):
            res = build_resolution(C, signs=sol.signs)
        run.exactness(label, res, 2, check_products=True)
        run.pieces_pass(res, 2)
    if rep.consistent:
        with rec.span("tiling.reconstruct"):
            proj = projection_maps(Q.X, m_basis=doc.options.get("m_basis"))
            tiling = dimer_reconstruct(Q, W, proj=proj,
                                       lifts=doc.options.get("lifts"))
        rec.count("tiling.edges", len(tiling.edges))
        with rec.span("tiling.verify"):
            verdict = verify_tiling(tiling)
        run.check(f"{label}.tiling",
                  (verdict.valid, verdict.euler, len(verdict.crossings)))


CHAINS = {"fourfold": fourfold_chain, "mckay_exactness": mckay_chain,
          "threefold_consistency": threefold_chain}
