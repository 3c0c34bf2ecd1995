"""The one-sided pieces at one vertex pair, found over `Q.reachable`:
the oracle for `resolution._one_sided_failures`, which names the pieces
at a tail by class keys and never builds one from paths.

It scans the box once per (s, head) pair, so it is for small cases and
tests only.
"""

import itertools


def one_sided_bases(complex_, pk, s, t):
    """The pieces of P (x)_A A_0 at (s, t) with divisor <= pk.bound, as
    {packed d: [basis of P_0, ..., basis of P_n]}: the (eta, dL) with
    t(eta) = t and a path of class dL from h(eta) to s (`Q.reachable`),
    by dimension in cell order.  The piece at divisor 0 is listed when
    s = t, even if empty, as A_0 is not zero there."""
    Q, n, H, top = complex_.Q, complex_.n, pk.H, pk.B | pk.H
    box = list(itertools.product(*(range(b + 1) for b in pk.bound)))
    pieces = {0: [[] for _ in range(n + 1)]} if s == t else {}
    carried = {}  # head -> the packed dL <= bound of its paths to s
    for c in complex_.cells:
        if c.tail != t:
            continue
        if (dLs := carried.get(c.head)) is None:
            dLs = carried[c.head] = [pk.pack(dL) for dL in box
                                     if s in Q.reachable(c.head, dL)]
        div, tag = pk.pack(c.divisor), c.id << pk.shift
        for dL in dLs:
            if (top - (d := dL + div)) & H == H:  # d <= bound
                if (basis := pieces.get(d)) is None:
                    basis = pieces[d] = [[] for _ in range(n + 1)]
                basis[c.dim].append(tag | dL)
    return pieces
