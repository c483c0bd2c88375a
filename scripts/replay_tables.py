#!/usr/bin/env python3
"""Recompute both reference tables from scratch and diff against the
frozen values shipped in congruence_atoms.tables.

Prints one line per modulus with live counts, the analytic bounds, and
a MATCH/MISMATCH verdict.  Exit status 0 iff everything matches.
"""

import argparse
import sys
import time

from congruence_atoms import (
    bound_q,
    bound_r,
    count_letters,
    log2_rounded,
    partition_count,
)
from congruence_atoms import tables


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=23)
    args = parser.parse_args(argv)

    bad = 0
    print("m  ell        log2  q            r            m*P     time  verdict")
    for m in range(2, args.m_max + 1):
        started = time.monotonic()
        ell = count_letters(m, range(1, m))
        elapsed = time.monotonic() - started
        q = bound_q(m) if m >= 4 else None
        r = bound_r(m) if m >= 4 else None
        mp = m * partition_count(m) if m >= 4 else None
        ok = ell == tables.ELL.get(m)
        if m in tables.Q:
            ok = ok and q == tables.Q[m]
        if m in tables.R:
            ok = ok and r == tables.R[m]
        if m in tables.M_TIMES_P:
            ok = ok and mp == tables.M_TIMES_P[m]
        bad += not ok
        print(
            f"{m:<2} {ell:<10} {log2_rounded(ell):<5} {str(q):<12} "
            f"{str(r):<12} {str(mp):<7} {elapsed:5.2f}s "
            f"{'MATCH' if ok else 'MISMATCH'}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
