#!/usr/bin/env python3
"""Sweep the vanishing criteria over generated <g, H> groups mod p^2.

Builds twists of assorted orders against p-subgroups of the reduction
kernel, runs the Sylow-normalizer and mod-p criteria on each, and tabulates
certifications against directly computed H^1_loc.  A sound run has no row
where a criterion certified but the direct computation is nonzero.  The
library cross-checks every verdict as well (the fixed-point-free one
against the mod-p^2 group), and raises InternalError on an unsound
certificate; the sweep keeps its own count.

Usage: python scripts/criteria_sweep.py [--p 5] [--cap 20000]
"""

import argparse
import time

from h1loc.cohomology import h1_loc
from h1loc.counterexample import family_matrix, twist_matrix
from h1loc.criteria import (fixed_point_free_criterion,
                            sylow_normalizer_criterion)
from h1loc.errors import CapExceededError
from h1loc.groups import MatGroup, element_order
from h1loc.ringmat import Mat, ModuleSpec


def corpus(p, cap):
    q = p * p
    spec = ModuleSpec(p, 2, 2)

    def M(rows):
        return Mat.from_rows(rows, q)

    twists = [
        ("id", Mat.identity(2, q)),
        ("order3", twist_matrix(p)),
        ("neg", M([[-1, 0], [0, -1]])),
        ("diag23^p", M([[2, 0], [0, 3]]).pow(p)),
        ("diag21^p", M([[2, 0], [0, 1]]).pow(p)),
        ("scalar2^p", M([[2, 0], [0, 2]]).pow(p)),
        ("unipotent", M([[1, 1], [0, 1]])),
        ("diag23", M([[2, 0], [0, 3]])),
    ]
    subgroups = [
        ("trivial", []),
        ("h(1,0)", [family_matrix(p, 1, 0)]),
        ("H2", [family_matrix(p, 1, 0), family_matrix(p, 0, 1)]),
        ("pE12", [M([[1, p], [0, 1]])]),
        ("pE12+pE21", [M([[1, p], [0, 1]]), M([[1, 0], [p, 1]])]),
        ("p-scalar", [M([[1 + p, 0], [0, 1 + p]])]),
        ("p-sl2", [M([[1, p], [0, 1]]), M([[1, 0], [p, 1]]),
                   M([[1 + p, 0], [0, 1 - p]])]),
    ]
    for tl, g in twists:
        for hl, hg in subgroups:
            try:
                yield f"g={tl:10s} H={hl:10s}", g, \
                    MatGroup.close([g] + hg, spec, cap=cap)
            except CapExceededError:
                continue


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--cap", type=int, default=20000)
    args = ap.parse_args()

    total = certified = unsound = 0
    t0 = time.monotonic()
    for label, g, G in corpus(args.p, args.cap):
        total += 1
        direct = h1_loc(G).structure.invariant_factors
        verdicts = []
        rep = sylow_normalizer_criterion(G)
        verdicts.append(("sylow", rep.certified))
        rep2 = fixed_point_free_criterion(G.reduce_mod(1), G)
        verdicts.append(("mod-p", rep2.certified))
        certs = [name for name, c in verdicts if c]
        certified += len(certs)
        bad = bool(certs) and bool(direct)
        unsound += bad
        marker = "!!" if bad else "  "
        shape = " x ".join(f"C{f}" for f in direct) or "trivial"
        print(f"{marker} {label} |G|={G.order:6d} ord(g)={element_order(g):3d} "
              f"H1_loc={shape:<12} certified_by={certs or '-'}")
    print(f"\n{total} groups, {certified} certifications, "
          f"{unsound} unsound (must be 0) in {time.monotonic() - t0:.1f}s")


if __name__ == "__main__":
    main()
