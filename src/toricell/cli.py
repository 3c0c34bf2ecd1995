"""Command line front end.

Subcommands build the quiver of sections of an input document and run
the requested verification.  Exit code 0 means every requested property
holds; 1 means a property fails (the report says which) or the requested
construction does not exist (`errors.ConstructionError`); 2 means the
input document, an option or a requested bound is invalid or too large
(`errors.InputError`); and 3 means an internal error: toricell broke one
of its own invariants (`errors.InternalError`), or any other exception
escaped, a bug either way.  Errors print one line to stderr, never a
traceback.  A closed stdout (`| head`) exits silently with 141 (SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from .complexes import general_complex, hypercube_complex, sign_infeasibility
from .errors import ConstructionError, InputError, InternalError
from .inputs import load_document, quiver_document
from .matchings import PiMap, perfect_matchings, weight_zero_check
from .quiver import monomial
from .resolution import build_resolution, verify_exactness, verify_minimality
from .superpotential import consistency, relations
from .superpotential import superpotential as build_superpotential
from .tiling import dimer_reconstruct, projection_maps, verify_tiling


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    sys.stdout.flush()  # a closed pipe raises here, inside main


def _quiver(doc, args):
    Q = doc.quiver()
    payload = quiver_document(Q)
    payload["labels"] = [monomial(a.label) for a in Q.arrows]
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(Q.to_dot())
    _emit(payload)
    return 0


def _superpotential(doc, args):
    Q = doc.quiver()
    W = build_superpotential(Q)
    rels = relations(Q, W)
    _emit({
        "terms": [Q.pretty_path(t) for t in W.terms],
        "term_arrows": [list(t) for t in W.terms],
        "n_terms": len(W),
        "relations": [r.pretty(Q) for r in rels],
        "n_relations": len(rels),
    })
    return 0


def _bound(doc, args, default):
    """The divisor bound: --bound, else the document's, else default."""
    bound = args.bound if args.bound is not None \
        else doc.options.get("bound", default)
    if bound < 0:
        raise InputError(f"bound must be nonnegative, got {bound}")
    return bound


def _consistency(doc, args):
    bound = _bound(doc, args, 2)
    Q = doc.quiver()
    W = build_superpotential(Q)
    rep = consistency(Q, W, bound=bound)
    _emit({
        "consistent": rep.consistent,
        "bound": rep.bound,
        "n_relations": rep.n_relations,
        "quick_reject_arrows": [f"a{i + 1}" for i in rep.quick_reject_arrows],
        "uncovered_arrows": [f"a{i + 1}" for i in rep.uncovered_arrows],
        "witnesses": [
            {"tail": i, "head": j, "divisor": list(div),
             "paths": [Q.pretty_path(pa), Q.pretty_path(pb)]}
            for i, j, div, pa, pb in rep.witnesses],
    })
    return 0 if rep.consistent else 1


def _matchings(doc, args):
    Q = doc.quiver()
    pi = PiMap(Q)
    ms = perfect_matchings(Q, pi=pi)
    wz = weight_zero_check(Q)
    _emit({
        "rank": pi.rank,
        "matchings": [
            {"values": list(m.values),
             "support": sorted(f"a{i + 1}" for i in m.support),
             "extremal_ray": None if m.extremal_ray is None
             else m.extremal_ray + 1}
            for m in ms],
        "weight_zero_matches": wz.matches,
    })
    return 0 if wz.matches else 1


def _build_complex(doc):
    """The hypercube complex of a McKay collection, else the
    superpotential one."""
    Q = doc.quiver()
    if Q.is_mckay:
        return hypercube_complex(Q)
    return general_complex(Q, build_superpotential(Q))


def _complex(doc, args):
    C = _build_complex(doc)
    # tau raises unless it is an involution, and solve_incidence unless the
    # face poset check passes, so a printed report has both true
    C.tau()
    sol = C.solve_incidence()
    violations = len(C.tau_antisymmetry_violations())
    _emit({
        "counts": list(C.counts()),
        "tau_involution": True,
        "tau_antisymmetry_violations": violations,
        "face_poset_ok": True,
        "incidence_feasible": sol.feasible,
    })
    return 0 if sol.feasible and not violations else 1


def _resolution(doc, args):
    bound = _bound(doc, args, 1) if args.verify_exactness else None
    C = _build_complex(doc)
    # build_resolution raises unless d.d = 0
    res = build_resolution(C, signs=C.explicit_signs)
    minimal = verify_minimality(res)
    payload = {
        "counts": list(C.counts()),
        "square_zero": True,
        "minimal": minimal.minimal,
    }
    code = 0 if minimal.minimal else 1
    if args.verify_exactness:
        rep = verify_exactness(res, bound)
        payload["exact"] = rep.exact
        payload["exactness_bound"] = list(rep.bound)
        payload["pieces_checked"] = rep.pieces_checked
        if not rep.exact:
            payload["failures"] = [
                {"s": s, "t": t, "divisor": list(d), "detail": str(detail)}
                for s, t, d, detail in rep.failures[:50]]
            code = 1
    _emit(payload)
    return code


def _svg(tiling, path):
    scale = 240
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{scale}" height="{scale}" '
             f'viewBox="0 0 {scale} {scale}">',
             f'<rect width="{scale}" height="{scale}" fill="white" '
             'stroke="black"/>']

    den = tiling.proj.den

    def pt(p):
        x = p[0] / den % 1.0
        y = p[1] / den % 1.0
        return x * scale, (1 - y) * scale

    for _idx, start, vec in tiling.edges:
        for tx in (-1, 0, 1):
            for ty in (-1, 0, 1):
                x1 = (start[0] / den + tx) * scale
                y1 = (1 - start[1] / den - ty) * scale
                x2 = x1 + vec[0] / den * scale
                y2 = y1 - vec[1] / den * scale
                lines.append(
                    f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                    f'y2="{y2:.2f}" stroke="black" stroke-width="1"/>')
    for v, p in enumerate(tiling.vertices):
        x, y = pt(p)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="red"/>')
        lines.append(f'<text x="{x + 5:.2f}" y="{y - 5:.2f}" '
                     f'font-size="10">{v}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reconstruct(doc, args):
    Q = doc.quiver()
    W = build_superpotential(Q)
    proj = projection_maps(Q.X, m_basis=doc.options.get("m_basis"))
    tiling = dimer_reconstruct(Q, W, proj=proj,
                               lifts=doc.options.get("lifts"))
    rep = verify_tiling(tiling)
    if args.svg:
        _svg(tiling, args.svg)

    def rat(x, den=proj.den):
        return [x // gcd(x, den), den // gcd(x, den)]

    _emit({
        "fprime": [[rat(x) for x in row] for row in proj.fprime],
        "vertices": [[rat(x) for x in p] for p in tiling.vertices],
        "faces": [Q.pretty_path(f.term) for f in tiling.faces],
        "valid": rep.valid,
        "euler": rep.euler,
        "total_area": rat(rep.total_area, 2 * proj.den ** 2),
        "crossings": [[f"a{i + 1}", f"a{j + 1}", list(t)]
                      for i, j, t in rep.crossings],
    })
    return 0 if rep.valid else 1


def _signcheck(doc, args):
    Q = doc.quiver()
    W = build_superpotential(Q)
    rels = relations(Q, W)
    idx = args.arrow - 1
    if not 0 <= idx < len(Q.arrows):
        raise InputError(f"no arrow a{args.arrow}")
    rep = sign_infeasibility(Q, W, rels, idx)
    _emit({
        "arrow": f"a{args.arrow}",
        "terms_through_arrow": rep.n_terms,
        "admits_signs": rep.two_colorable,
        "odd_cycle_length": None if rep.odd_cycle is None
        else len(rep.odd_cycle),
    })
    return 0 if rep.two_colorable else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="toricell",
        description="quivers of sections, superpotentials, cell complexes "
                    "and cellular resolutions from toric data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("input", help="input document (JSON)")
        p.set_defaults(func=func)
        return p

    p = add("quiver", _quiver, help="build the quiver of sections")
    p.add_argument("--dot", metavar="FILE", help="write a DOT rendering")
    add("superpotential", _superpotential,
        help="anticanonical cycles and derivative relations")
    p = add("consistency", _consistency, help="consistency verdict")
    p.add_argument("--bound", type=int, help="divisor bound (default 2)")
    add("matchings", _matchings, help="perfect matchings and the "
        "weight-zero slice check")
    add("complex", _complex, help="toric cell complex and incidences; the "
        "hypercube complex for a McKay collection")
    p = add("resolution", _resolution, help="cellular bimodule resolution "
            "over the same complex")
    p.add_argument("--verify-exactness", action="store_true")
    p.add_argument("--bound", type=int, help="divisor bound for exactness")
    p = add("reconstruct", _reconstruct, help="torus tiling of a threefold")
    p.add_argument("--svg", metavar="FILE", help="write an SVG rendering")
    p = add("signcheck", _signcheck,
            help="two-colorability of the terms through one arrow")
    p.add_argument("--arrow", type=int, required=True,
                   help="arrow id (1-based)")

    args = parser.parse_args(argv)
    try:
        return args.func(load_document(args.input), args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout on devnull, so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # any other exception is a bug as well
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
