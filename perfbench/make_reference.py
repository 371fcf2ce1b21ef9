#!/usr/bin/env python3
"""Write reference.json: H^1_loc invariant factors of every twist-corpus
group before conjugation, keyed by corpus label.

    python3 perfbench/make_reference.py

The twist-criteria checks compare each conjugated group's reported
H^1_loc with this table (conjugation does not change it).  Every entry
small enough for the brute-force oracle (h1loc.oracles, no Howell path) is
checked against it first; the script stops on a disagreement.  Regenerate
only when the corpus recipe changes; the table pins the answers so that a
later change to the program cannot move them unnoticed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from h1loc.cohomology import h1_loc  # noqa: E402
from h1loc.groups import MatGroup  # noqa: E402
from h1loc.ringmat import Mat, ModuleSpec  # noqa: E402


def main():
    table = {}
    for label, p, gens in corpus.twist_corpus():
        q = p * p
        G = MatGroup.close([Mat.from_rows(g, q) for g in gens],
                           ModuleSpec(p, 2, 2))
        if G.order != len(corpus.closure(gens, q)):
            raise SystemExit(f"{label}: closure order mismatch")
        factors = list(h1_loc(G).structure.invariant_factors)
        oracle = checks.oracle_h1loc_order(
            p, gens, checks.REFERENCE_ORACLE_ASSIGNMENTS)
        if oracle is not None and oracle != checks.factors_order(factors):
            raise SystemExit(f"{label}: H1_loc {factors} but brute force "
                             f"|H1_loc| = {oracle}")
        table[label] = factors
        print(label, G.order, factors, "oracle", oracle, file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
