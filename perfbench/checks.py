"""Answer checks, made apart from the program under test.

Each checker takes one operation's parsed JSON output and returns a list of
problems; an empty list means the answer passed.  The expected values come
from plain-integer closures (corpus.py), the frozen reference table of
unconjugated H^1_loc factors (reference.json), the brute-force cocycle
enumeration in h1loc.oracles, and a closed-form enumeration of the
nonvanishing family.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

import corpus

# Brute-force oracle budget.  cocycle_counts enumerates q^(rank * k)
# generator assignments against all |G|^2 pairs: each run checks the p = 5
# members with one non-identity generator (625 assignments, a fraction of a
# second each); make_reference.py checks the frozen table against the
# oracle on every member of order <= 25 with at most two generators.
ORACLE_MAX_ORDER = 25
RUN_ORACLE_ASSIGNMENTS = 25 ** 2
REFERENCE_ORACLE_ASSIGNMENTS = 25 ** 4


def factors_order(factors):
    out = 1
    for f in factors:
        out *= f
    return out


def _is_power_of(x, p):
    while x > 1 and x % p == 0:
        x //= p
    return x == 1


# -- twist-criteria -----------------------------------------------------------

def check_group_order(out, expected_order):
    if out.get("group_order") != expected_order:
        return [f"group_order {out.get('group_order')} != closure "
                f"{expected_order}"]
    return []


def check_certified_trivial(out):
    return [f"{r['criterion']}: certified with direct H1_loc "
            f"{r['direct_h1_loc']}"
            for r in out["reports"]
            if r["conclusion"] == "certified" and r["direct_h1_loc"] != []]


def check_reference_factors(out, reference):
    return [f"{r['criterion']}: direct H1_loc {r['direct_h1_loc']} != "
            f"unconjugated {reference}"
            for r in out["reports"] if r["direct_h1_loc"] != reference]


def check_coprime_trivial(out, p):
    if out.get("group_order", 0) % p:
        return [f"order prime to {p} but direct H1_loc "
                f"{r['direct_h1_loc']}"
                for r in out["reports"] if r["direct_h1_loc"] != []]
    return []


def check_oracle(out, oracle_h1loc_order):
    problems = []
    for r in out["reports"]:
        order = factors_order(r["direct_h1_loc"] or [])
        if order != oracle_h1loc_order:
            problems.append(f"{r['criterion']}: |H1_loc| {order} != brute "
                            f"force {oracle_h1loc_order}")
    return problems


def oracle_h1loc_order(p, gens, max_assignments):
    """|H^1_loc| by brute-force enumeration, or None when too costly.

    cocycle_counts reads a generator's value only through the closure tree
    edges that generator labels, so a generator labelling no edge (the
    identity, say) would be counted q^rank times over.  Identity generators
    are dropped, and groups where another generator labels no edge are
    left to the other checks."""
    q = p * p
    gens = [g for g in gens if g != corpus.identity(2)]
    if q ** (2 * len(gens)) > max_assignments or \
            len(corpus.closure(gens, q)) > ORACLE_MAX_ORDER:
        return None
    from h1loc import oracles
    from h1loc.groups import MatGroup
    from h1loc.ringmat import Mat, ModuleSpec
    G = MatGroup.close([Mat.from_rows(g, q) for g in gens],
                       ModuleSpec(p, 2, 2))
    if set(G.tree_gen[1:]) != set(range(len(gens))):
        return None
    return oracles.cocycle_counts(G)[3]


def check_criteria(out, expect):
    """expect: p, order, reference factors, oracle |H^1_loc| or None."""
    problems = []
    if out.get("command") != "criteria" or not out.get("reports"):
        return ["not a criteria report"]
    problems += check_group_order(out, expect["order"])
    problems += check_certified_trivial(out)
    problems += check_reference_factors(out, expect["reference"])
    problems += check_coprime_trivial(out, expect["p"])
    if expect["oracle"] is not None:
        problems += check_oracle(out, expect["oracle"])
    return problems


def check_h1loc_trivial(out, expect):
    """h1loc on a group of order prime to p: H^1_loc must be trivial."""
    problems = check_group_order(out, expect["order"])
    loc = out.get("h1_loc", {})
    if loc.get("invariant_factors") != [] or loc.get("trivial") is not True:
        problems.append(f"order prime to p but H1_loc {loc}")
    return problems


# -- family-verify ------------------------------------------------------------

def family_cocycle(p, a, b):
    q = p * p
    return ((p * (a - 2 * b)) % q, (p * (a - b)) % q)


def check_witnesses(out, p):
    """w solves (h - 1) w = Z_h at h(1,1), h(2,1) and reduces to (1,1),
    (-1,0) mod p."""
    q = p * p
    problems = []
    for (a, b), key, target in (((1, 1), "witness_h11", (1, 1)),
                                ((2, 1), "witness_h21", (p - 1, 0))):
        w = out.get(key)
        if not w or len(w) != 2:
            problems.append(f"{key} missing")
            continue
        h = corpus.family(p, a, b)
        lhs = tuple((h[i][0] * w[0] + h[i][1] * w[1] - w[i]) % q
                    for i in range(2))
        if lhs != family_cocycle(p, a, b):
            problems.append(f"{key} = {w} does not solve (h - 1) w = Z_h")
        if tuple(x % p for x in w) != target:
            problems.append(f"{key} = {w} is not {target} mod p")
    return problems


@lru_cache(maxsize=None)
def family_nonvanishing(p):
    """Problems with the closed-form family cocycle on G = {g^j h(a,b)}:
    the cocycle identity on every pair, Z_s in Im(s - 1) for every s, and no
    v in M = (Z/p^2)^2 with Z_s = (s - 1) v for all s."""
    q = p * p
    g = corpus.reduce(((1, -3), (1, -2)), q)
    elems, values = [], []
    for j in range(3):
        gj = corpus.mat_pow(g, j, q)
        for a in range(p):
            for b in range(p):
                elems.append(corpus.mat_mul(gj, corpus.family(p, a, b), q))
                z = family_cocycle(p, a, b)
                values.append(tuple((gj[i][0] * z[0] + gj[i][1] * z[1]) % q
                                    for i in range(2)))
    S = np.array(elems, dtype=np.int64)                 # N x 2 x 2
    Z = np.array(values, dtype=np.int64)                # N x 2
    codes = S.reshape(len(S), 4) @ (q ** np.arange(4))
    order = np.argsort(codes)
    if len(np.unique(codes)) != 3 * p * p:
        return ["closed-form elements are not 3 p^2 distinct matrices"]
    problems = []
    # cocycle identity Z_{st} = Z_s + s Z_t, one row s at a time
    for i in range(len(S)):
        prod = np.einsum("ij,njk->nik", S[i], S) % q
        pc = prod.reshape(len(S), 4) @ (q ** np.arange(4))
        pos = np.searchsorted(codes[order], pc)
        if (pos >= len(S)).any() or (codes[order][np.minimum(
                pos, len(S) - 1)] != pc).any():
            problems.append("closed-form element set is not closed")
            break
        lhs = Z[order[pos]]
        rhs = (Z[i] + Z @ S[i].T) % q
        if (lhs != rhs).any():
            problems.append("closed form violates the cocycle identity")
            break
    # enumerate M once; local conditions and the coboundary search
    V = np.indices((q, q)).reshape(2, -1)               # 2 x q^2
    coboundary = np.ones(V.shape[1], dtype=bool)
    for s, z in zip(S, Z):
        img = ((s - np.eye(2, dtype=np.int64)) @ V) % q  # 2 x q^2
        hits = (img[0] == z[0]) & (img[1] == z[1])
        if not hits.any():
            problems.append(f"Z_s not in Im(s - 1) at s = {s.tolist()}")
            break
        coboundary &= hits
    if coboundary.any():
        problems.append("Z is a coboundary")
    return problems


def check_counterexample(out, p):
    if out.get("command") != "counterexample" or out.get("p") != p:
        return ["not a counterexample report"]
    problems = []
    problems += check_group_order(out, 3 * p * p)
    if out.get("all_passed") is not True:
        problems.append("all_passed is not true")
    loc = out.get("h1_loc") or []
    if not loc:
        problems.append("h1_loc is empty")
    problems += [f"h1_loc factor {f} is not a power of {p}"
                 for f in loc if f <= 1 or not _is_power_of(f, p)]
    problems += check_witnesses(out, p)
    problems += family_nonvanishing(p)
    return problems


# -- gsp4-enumerate ----------------------------------------------------------

def check_gsp4(out, p):
    if out.get("command") != "gsp4" or out.get("p") != p:
        return ["not a gsp4 report"]
    order = corpus.gsp4_order(p)
    problems = []
    if out.get("order_formula") != order:
        problems.append(f"order_formula {out.get('order_formula')} != {order}")
    if out.get("order_enumerated") != order:
        problems.append(f"order_enumerated {out.get('order_enumerated')} "
                        f"!= {order}")
    if out.get("pairing_failures") != 0:
        problems.append(f"pairing_failures {out.get('pairing_failures')} "
                        f"!= 0")
    return problems
