"""Command-line front end.

Commands: h1, h1loc, criteria, counterexample, gsp4, decompose.

Group files are line oriented: a header `p=<int> n=<int> rank=<int>`
(optionally followed by the word `symplectic`), then one `gen:` line per
generator followed by `rank` lines of `rank` space-separated integers.
Lines starting with `#` are comments.

Exit codes: 0 success/certified, 1 mathematically interesting negative
(nonvanishing group, criterion not applicable), 2 input error, 3 cap
exceeded, 4 internal error (a failed certificate or any other exception
that escapes a command: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from dataclasses import dataclass

from . import counterexample as cex
from .cohomology import h1, h1_loc
from .criteria import (fixed_point_free_criterion, similitude_criterion,
                       sylow_normalizer_criterion)
from .errors import CapExceededError, InputError, InternalError
from .groups import (DEFAULT_CAP, MatGroup, _refuse_singular,
                     decompose_generators)
from .ringmat import Mat, ModuleSpec
from .symplectic import (eigenvalue_pairing_sweep, gsp4_generators,
                         gsp4_order)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


@dataclass
class GroupDescription:
    p: int
    n: int
    rank: int
    generators: list      # lists of row lists, reduced mod p^n
    symplectic: bool = False

    @property
    def spec(self) -> ModuleSpec:
        return ModuleSpec(self.p, self.n, self.rank)

    def group(self, cap=DEFAULT_CAP) -> MatGroup:
        return MatGroup.close(self.generators, self.spec, cap=cap)

    def serialize(self) -> str:
        head = f"p={self.p} n={self.n} rank={self.rank}"
        if self.symplectic:
            head += " symplectic"
        out = [head]
        for g in self.generators:
            out.append("gen:")
            for row in g:
                out.append(" ".join(str(x) for x in row))
        return "\n".join(out) + "\n"


def parse_group(text: str) -> GroupDescription:
    """Parse the documented group format; raises InputError with the line
    number on malformed input."""
    lines = text.splitlines()
    idx = 0

    def next_content():
        nonlocal idx
        while idx < len(lines):
            stripped = lines[idx].strip()
            idx += 1
            if stripped and not stripped.startswith("#"):
                return stripped, idx
        return None, idx

    header, lineno = next_content()
    if header is None:
        raise InputError("empty input: missing header line")
    fields = {}
    symplectic = False
    for token in header.split():
        if token == "symplectic":
            symplectic = True
            continue
        if "=" not in token:
            raise InputError(f"line {lineno}: malformed header token {token!r}")
        k, _, v = token.partition("=")
        if k in fields:
            raise InputError(f"line {lineno}: repeated header key {k!r}")
        try:
            fields[k] = int(v)
        except ValueError:
            raise InputError(f"line {lineno}: malformed header value {v!r}") \
                from None
    if sorted(fields) != ["n", "p", "rank"]:
        raise InputError(f"line {lineno}: malformed header, need p= n= rank=")
    try:
        spec = ModuleSpec(fields["p"], fields["n"], fields["rank"])
    except InputError as err:
        raise InputError(f"line {lineno}: {err}") from None
    if spec.n >= 63:
        # p^n >= 2^63 is past every closure's int64 bound; refused before
        # p^n is formed, which a huge n makes unbounded in time and memory
        raise InputError(f"line {lineno}: n = {spec.n} too large: "
                         f"p^n >= 2^63")
    if symplectic and spec.rank % 2:
        raise InputError(f"line {lineno}: symplectic rank must be even")
    q = spec.modulus
    gens = []
    while True:
        tag, lineno = next_content()
        if tag is None:
            break
        if tag != "gen:":
            raise InputError(f"line {lineno}: expected 'gen:' or end of file, "
                             f"got {tag!r}")
        rows = []
        for _ in range(spec.rank):
            row, lineno = next_content()
            if row is None:
                raise InputError(f"line {lineno}: generator {len(gens) + 1} "
                                 f"truncated (non-square matrix)")
            try:
                vals = [int(tok) % q for tok in row.split()]
            except ValueError:
                raise InputError(f"line {lineno}: non-integer matrix entry") \
                    from None
            if len(vals) != spec.rank:
                raise InputError(f"line {lineno}: generator "
                                 f"{len(gens) + 1} row has {len(vals)} "
                                 f"entries, expected {spec.rank} "
                                 f"(non-square matrix)")
            rows.append(vals)
        gens.append(rows)
    if gens:
        _refuse_singular(gens, q)
    return GroupDescription(spec.p, spec.n, spec.rank, gens, symplectic)


def _generator_values(Z) -> list:
    """The values of the cocycle Z on its group's generators, in order, as
    lists of ints: Cocycle.generator_vector() split per generator."""
    return Z.generator_vector().reshape(-1, Z.group.spec.rank).tolist()


def _structure_json(cohom):
    return {
        "invariant_factors": list(cohom.structure.invariant_factors),
        "order": cohom.order,
        "trivial": cohom.is_trivial,
        "representatives_on_generators": [
            _generator_values(Z) for Z in cohom.representatives],
    }


def _report_json(rep):
    return {
        "criterion": rep.criterion,
        "items": [{"name": i.name, "status": i.status, "detail": i.detail}
                  for i in rep.items],
        "conclusion": rep.conclusion,
        "direct_h1_loc": list(rep.cross_check),
    }


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _read_description(args) -> GroupDescription:
    """The group file args.input, parsed; InputError when it cannot be
    read (missing, not a regular file, unreadable) or is not UTF-8 text.
    A FIFO or a device is refused before open, which would wait for a
    writer or read without end; a directory fails in open."""
    try:
        mode = os.stat(args.input).st_mode
        if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            raise InputError(f"cannot read group file {args.input}: "
                             f"not a regular file")
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read group file {args.input}: {err}") \
            from None
    return parse_group(text)


def _rep_lines(res):
    out = []
    for f, Z in zip(res.structure.invariant_factors, res.representatives):
        vals = ", ".join(f"{g.entries} -> {tuple(v)}" for g, v in
                         zip(Z.group.generators, _generator_values(Z)))
        out.append(f"  order-{f} class, cocycle on generators: {vals}")
    return out


def _cmd_cohomology(args) -> int:
    """h1 and h1loc: H^1 or H^1_loc of the group in args.input."""
    local = args.command == "h1loc"
    desc = _read_description(args)
    G = desc.group(cap=args.cap)
    res = h1_loc(G) if local else h1(G)
    key, label = ("h1_loc", "H1_loc") if local else ("h1", "H1")
    _emit({"command": args.command, "group_order": G.order, "p": desc.p,
           "n": desc.n, "rank": desc.rank, key: _structure_json(res)},
          args.json,
          [f"group of order {G.order}", f"{label} = {res.describe()}"]
          + _rep_lines(res))
    return EXIT_OK if res.is_trivial else EXIT_NEGATIVE


def _cmd_criteria(args) -> int:
    desc = _read_description(args)
    G = desc.group(cap=args.cap)
    # the mod-p image, closed once for both mod-p criteria
    G1 = G if desc.n == 1 else G.reduce_mod(1)
    reports = [sylow_normalizer_criterion(G),
               fixed_point_free_criterion(G1, G)]
    if desc.symplectic:
        reports.append(similitude_criterion(G1))
    lines = []
    for rep in reports:
        lines.extend(rep.lines())
        lines.append("")
    _emit({"command": "criteria", "group_order": G.order,
           "reports": [_report_json(r) for r in reports]},
          args.json, lines)
    return EXIT_OK if any(r.certified for r in reports) else EXIT_NEGATIVE


def _cmd_counterexample(args) -> int:
    inst = cex.build(args.p)
    rep = cex.verify(inst)
    payload = {
        "command": "counterexample",
        "p": args.p,
        "group_order": inst.G2.order,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in rep.checks],
        "h1_loc": list(rep.h1_loc_factors),
        "witness_h11": list(rep.witness_11),
        "witness_h21": list(rep.witness_21),
        "all_passed": rep.all_passed,
    }
    lines = rep.lines()
    if rep.all_passed and rep.h1_loc_factors:
        lines.append("H1_loc nontrivial: local-global divisibility fails "
                     "for this action")
    _emit(payload, args.json, lines)
    if not rep.all_passed:
        return EXIT_INPUT
    return EXIT_NEGATIVE if rep.h1_loc_factors else EXIT_OK


def _cmd_gsp4(args) -> int:
    """gsp4: |GSp_4(F_p)| by its formula; with --enumerate, every element
    of the group the transvection generators generate, and the eigenvalue
    pairing on each.  The elements come from a stabilizer chain (chain.py)
    as the products U_4 U_3 U_2 U_1 of its transversals, which list each
    element exactly once, so the enumerated order is the number of
    distinct elements with no closure table; the chain refuses with the
    closure's cap error once the product of its orbit lengths passes
    --cap.  StabChain.planes hands them over as read-only entry planes
    (int16 up to p = 181) whose distinctness the codes of their rows
    certify, and the pairing sweep reads those planes in place, so no
    (N, 4, 4) int64 array is formed."""
    order = gsp4_order(args.p)
    payload = {"command": "gsp4", "p": args.p, "order_formula": order}
    lines = [f"|GSp4(F_{args.p})| = {order}"]
    if args.enumerate:
        # imported here: no other command compiles the chain module
        from .chain import StabChain
        gens, _space = gsp4_generators(args.p)
        chain = StabChain.build(gens, ModuleSpec(args.p, 1, 4), cap=args.cap)
        failures = eigenvalue_pairing_sweep(
            chain.planes().transpose(2, 0, 1), args.p)
        enumerated = chain.order
        payload.update({"order_enumerated": enumerated,
                        "pairing_failures": failures,
                        "match": enumerated == order})
        lines.append(f"enumerated order: {enumerated} "
                     f"({'match' if enumerated == order else 'MISMATCH'})")
        lines.append(f"eigenvalue pairing failures: {failures}")
        if enumerated != order or failures:
            _emit(payload, args.json, lines)
            return EXIT_NEGATIVE
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    desc = _read_description(args)
    if not desc.generators:
        raise InputError("decompose needs at least one generator (the twist)")
    q = desc.spec.modulus
    g = Mat.from_rows(desc.generators[0], q)
    H = MatGroup.close(desc.generators[1:], desc.spec, cap=args.cap)
    dec = decompose_generators(g, H)
    payload = {
        "command": "decompose",
        "pairs": [{"h": [list(r) for r in h.entries], "exponent": lam}
                  for h, lam in dec.pairs],
    }
    lines = [f"{len(dec.pairs)} generator(s) with g h g^-1 = h^exponent:"]
    for h, lam in dec.pairs:
        lines.append(f"  exponent {lam}: {h.entries}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cap(text: str) -> int:
    """A --cap value: an integer of at least 1, else a usage error (exit
    code 2, as for any malformed option)."""
    if (cap := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"closure cap {cap} is below 1")
    return cap


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="h1loc",
        description="first local cohomology of finite matrix groups "
                    "over Z/p^n")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", help="group description file")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        sp.add_argument("--cap", type=_cap, default=DEFAULT_CAP,
                        help="element cap for closures")

    sp = sub.add_parser("h1", help="H^1 of the group acting on (Z/p^n)^rank")
    add_common(sp)
    sp.set_defaults(fn=_cmd_cohomology)
    sp = sub.add_parser("h1loc", help="first local cohomology group")
    add_common(sp)
    sp.set_defaults(fn=_cmd_cohomology)
    sp = sub.add_parser("criteria", help="run the vanishing criteria")
    add_common(sp)
    sp.set_defaults(fn=_cmd_criteria)
    sp = sub.add_parser("counterexample",
                        help="build and verify the nonvanishing family")
    sp.add_argument("--p", type=int, required=True,
                    help="prime = 2 mod 3, at least 5")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_counterexample)
    sp = sub.add_parser("gsp4", help="symplectic similitude group checks")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--enumerate", action="store_true",
                    help="close the group from generators and sweep the "
                         "eigenvalue pairing")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    sp.set_defaults(fn=_cmd_gsp4)
    sp = sub.add_parser("decompose",
                        help="decompose: first generator is the twist g, "
                             "the rest generate the p-group H")
    add_common(sp)
    sp.set_defaults(fn=_cmd_decompose)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parse_args leaves it unchanged, so
    every call of run shares it."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as err:
        print(f"error: internal: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as err:
        # any other failure is a bug, not a negative answer, so it exits 4
        # and never the traceback's 1; the traceback follows the message.
        # KeyboardInterrupt and SystemExit are no Exception and propagate
        import traceback    # here, so that no other run pays its import
        print(f"error: internal: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
