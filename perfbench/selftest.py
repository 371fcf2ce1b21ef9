#!/usr/bin/env python3
"""Checker self-test: every checker accepts the program's real answer and
rejects a deliberately wrong one.

    python3 perfbench/selftest.py

Runs a handful of real operations (the gsp4 enumeration takes about half a
minute), then feeds each checker a corrupted copy of an answer.  Exits 1
if a checker accepts a wrong answer or rejects a right one.
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main():
    cli = run.import_program()
    failures = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=run.ROOT) as tmp:
        ops = {op.label: op
               for op in workloads.twist_criteria(0, Path(tmp)).ops}
        ops.update({op.label: op for op in
                    workloads.family_verify(0, Path(tmp)).ops[:1]})
        ops.update({op.label: op for op in
                    workloads.gsp4_enumerate(0, Path(tmp)).ops})
        real = {}
        for label in ("p5 g=order3 H=H2", "p5 g=diag23 H=h(1,0)",
                      "p5 g=neg H=trivial", "p5 g=unipotent H=trivial",
                      "counterexample p=5", "gsp4 p=3 enumerate"):
            stdout, error = run.execute(cli, ops[label].argv)
            if error is not None:
                raise SystemExit(f"{label}: {error}")
            real[label] = json.loads(stdout)

    def reports_set(out, key, value, only_certified=False):
        for r in out["reports"]:
            if r["conclusion"] == "certified" or not only_certified:
                r[key] = value

    def drop_factor(out):
        for r in out["reports"]:
            r["direct_h1_loc"] = r["direct_h1_loc"][:-1]

    def bump(key, delta):
        def corrupt(out):
            out[key] = out[key] + delta
        return corrupt

    def bad_witness(out):
        out["witness_h11"] = [out["witness_h11"][0] + 1,
                              out["witness_h11"][1]]

    # (case, op label, corruption, problem the checker must report)
    cases = [
        ("closure order off by one", "p5 g=diag23 H=h(1,0)",
         bump("group_order", 1), "group_order"),
        ("closure order off by one", "gsp4 p=3 enumerate",
         bump("order_enumerated", -1), "order_enumerated"),
        ("dropped H1_loc factor", "p5 g=order3 H=H2", drop_factor,
         "unconjugated"),
        ("certified with nonzero direct H1_loc", "p5 g=diag23 H=h(1,0)",
         lambda out: reports_set(out, "direct_h1_loc", [5], True),
         "certified with direct H1_loc"),
        ("order prime to p with nonzero H1_loc", "p5 g=neg H=trivial",
         lambda out: reports_set(out, "direct_h1_loc", [5]), "prime to 5"),
        ("H1_loc order against brute force", "p5 g=unipotent H=trivial",
         lambda out: reports_set(out, "direct_h1_loc", [5]), "brute force"),
        ("one pairing failure", "gsp4 p=3 enumerate",
         bump("pairing_failures", 1), "pairing_failures"),
        ("witness not solving (h-1)w = Z_h", "counterexample p=5",
         bad_witness, "does not solve"),
        ("dropped family H1_loc", "counterexample p=5",
         lambda out: out.update(h1_loc=[]), "h1_loc is empty"),
        ("family verification not passed", "counterexample p=5",
         lambda out: out.update(all_passed=False), "all_passed"),
    ]
    for case, label, corrupt, expect in cases:
        right = ops[label].check(real[label])
        wrong_out = copy.deepcopy(real[label])
        corrupt(wrong_out)
        wrong = ops[label].check(wrong_out)
        ok = not right and any(expect in p for p in wrong)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {case} [{label}]: "
              f"right answer -> {right or 'accepted'}; "
              f"wrong answer -> {wrong or 'accepted'}")

    # The int64 fault's wrapped closure: 4 elements instead of 2.
    wrapped = {"group_order": 4,
               "h1_loc": {"invariant_factors": [], "trivial": True}}
    fault = ops[f"p{checks.corpus.BIG_P} <-I> h1loc"]
    wrong = fault.check(wrapped)
    failures += not wrong
    print(f"{'ok  ' if wrong else 'FAIL'} wrapped <-I> closure: {wrong}")

    # The closed-form family check must fail where the family does not
    # apply: p = 7 = 1 mod 3.
    wrong = checks.family_nonvanishing(7)
    failures += not wrong
    print(f"{'ok  ' if wrong else 'FAIL'} closed-form family at p = 7: "
          f"{wrong}")
    print(f"{failures} checker(s) failed the self-test")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
