#!/usr/bin/env python3
"""Exhaustive subset-sum diversity scans over index sets of size r in
Z/mZ: confirm that every admissible r-set meets the 2r + 1 diversity
floor (with the documented size-3 minimum of 6 attained only through
the {a, m/2, m/2 + a} family and its unit multiples).
"""

import argparse
import sys
import time

from congruence_atoms import verify_general, verify_r3, verify_r4


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=16)
    parser.add_argument("--r-max", type=int, default=5)
    args = parser.parse_args(argv)

    failures = 0
    started = time.monotonic()
    for m in range(6, args.m_max + 1):
        s = verify_r3(m)
        print(f"r=3 m={m:<3} admissible={s.admissible_count:<6} "
              f"min={s.min_diversity} ok={s.ok}")
        failures += not s.ok
    for m in range(8, args.m_max + 1):
        s = verify_r4(m)
        print(f"r=4 m={m:<3} admissible={s.admissible_count:<6} "
              f"min={s.min_diversity} ok={s.ok}")
        failures += not s.ok
    # verify_r4 above already scans r = 4
    for r in range(5, args.r_max + 1):
        for m in range(2 * r + 1, args.m_max + 1):
            s = verify_general(r, m)
            print(f"r={r} m={m:<3} admissible={s.admissible_count:<6} "
                  f"min={s.min_diversity} ok={s.ok}")
            failures += not s.ok
    print(f"total {time.monotonic() - started:.1f}s, failures={failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
