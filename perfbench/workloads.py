"""The three workloads: operation lists for `h1loc.cli.run`, with checks.

Names are fixed; other documents cite them.

- twist-criteria: `criteria <file> --json` over the 112-group twist corpus,
  each group conjugated by a seeded random invertible matrix mod p^2, plus
  the known int64 fault (`h1loc` on <-I> mod 3037000507), counted failed.
- family-verify: `counterexample --p P --json` for p in {5, 11, 17}.
- gsp4-enumerate: `gsp4 --p 3 --enumerate --json`.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import corpus

HERE = Path(__file__).resolve().parent
STRIDE = 15                # coprime to the corpus size, 112


@dataclass
class Op:
    label: str
    argv: list
    check: Callable            # parsed JSON output -> list of problems
    known_fault: bool = False  # expected to fail until the fault is fixed


@dataclass
class Workload:
    ops: list
    warmup: list               # argv of the warm-up op run during set-up


def twist_criteria(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    reference = json.loads((HERE / "reference.json").read_text())
    ops = []
    for i, (label, p, gens) in enumerate(corpus.twist_corpus()):
        q = p * p
        cg = corpus.conjugate(gens, corpus.random_conjugator(rng, p), q)
        path = workdir / f"twist{i:03d}.grp"
        path.write_text(corpus.group_file(p, 2, cg))
        # computed on first use, after the timed rounds
        expect = functools.cache(lambda p=p, cg=cg, label=label: {
            "p": p, "order": len(corpus.closure(cg, p * p)),
            "reference": reference[label],
            "oracle": checks.oracle_h1loc_order(
                p, cg, checks.RUN_ORACLE_ASSIGNMENTS)})
        ops.append(Op(label, ["criteria", str(path), "--json"],
                      lambda out, e=expect: checks.check_criteria(out, e())))
    # Corpus order puts the groups of each size together, and the two
    # 14406-element groups last.  On a shared 2-vCPU host, interpreter speed
    # swings by about 1.5x over seconds, so the ops near the median all ran
    # in the same few seconds, and op_p50_s followed the speed of those
    # seconds.  A stride of 15 through the corpus spreads every size over
    # the whole round.
    ops = [ops[j] for j in sorted(range(len(ops)),
                                  key=lambda j: STRIDE * j % len(ops))]
    big = corpus.BIG_P
    neg = ((big - 1, 0), (0, big - 1))
    path = workdir / "neg_big_p.grp"
    path.write_text(corpus.group_file(big, 1, [neg]))
    expect = functools.cache(
        lambda: {"order": len(corpus.closure([neg], big))})
    ops.append(Op(f"p{big} <-I> h1loc", ["h1loc", str(path), "--json"],
                  lambda out: checks.check_h1loc_trivial(out, expect()),
                  known_fault=True))
    return Workload(ops, warmup=ops[0].argv)


def family_verify(seed: int, workdir: Path) -> Workload:
    ops = [Op(f"counterexample p={p}",
              ["counterexample", "--p", str(p), "--json"],
              lambda out, p=p: checks.check_counterexample(out, p))
           for p in (5, 11, 17)]
    return Workload(ops, warmup=ops[0].argv)


def gsp4_enumerate(seed: int, workdir: Path) -> Workload:
    ops = [Op("gsp4 p=3 enumerate", ["gsp4", "--p", "3", "--enumerate",
                                     "--json"],
              lambda out: checks.check_gsp4(out, 3))]
    return Workload(ops, warmup=["gsp4", "--p", "3", "--json"])


WORKLOADS = {
    "twist-criteria": twist_criteria,
    "family-verify": family_verify,
    "gsp4-enumerate": gsp4_enumerate,
}
