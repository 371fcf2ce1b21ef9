#!/usr/bin/env python3
"""Run the nonvanishing family over a range of primes p = 2 mod 3.

For each prime: build the group, verify the five content checks, print the
local cohomology structure, and contrast the twist orders via scan_orders.
Exits 1, with the offending scan rows marked !!, when a check fails, when
H^1_loc vanishes for a twist order not dividing p-1, or when it does not
vanish for the comparison twist.

Usage: python scripts/family_scan.py [--max-p 30] [--skip-scan]
"""

import argparse
import sys
import time

from h1loc.counterexample import build, scan_orders, verify
from h1loc.ringmat import is_prime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-p", type=int, default=23)
    ap.add_argument("--skip-scan", action="store_true",
                    help="skip the per-subgroup order scan (slower part)")
    args = ap.parse_args()

    primes = [p for p in range(5, args.max_p + 1)
              if is_prime(p) and p % 3 == 2]
    print(f"primes: {primes}\n")
    failures = 0
    for p in primes:
        t0 = time.monotonic()
        rep = verify(build(p))
        dt = time.monotonic() - t0
        failures += not rep.all_passed
        for line in rep.lines():
            print(line)
        print(f"  ({dt:.1f}s)\n")
        if not args.skip_scan:
            for row in scan_orders(p):
                flag = "vanishes" if row["vanishes"] else "NONZERO"
                comparison = row["label"].startswith("comparison")
                bad = ((row["vanishes"] and not row["divides_p_minus_1"])
                       or (comparison and not row["vanishes"]))
                failures += bad
                print(f"{'!!' if bad else '  '}{row['label']:32s} twist order "
                      f"{row['twist_order']:3d} "
                      f"(divides p-1: {row['divides_p_minus_1']})  "
                      f"|G| = {row['group_order']:6d}  H1_loc {flag} "
                      f"{row['h1_loc']}")
            print()
    print(f"{failures} failures (must be 0)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
