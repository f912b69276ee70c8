"""
The quadratic-residue frontier
==============================

Sarkozy conjectured that the quadratic residues mod p are never A + B
with |A|, |B| >= 2 ("On additive decompositions of the set of quadratic
residues modulo p", Acta Arith. 155, 2012).  The exhaustive search settles
the question one prime at a time: with no budget, a search that finds no
witness proves that no decomposition exists.

    python demos/08_quadratic_residue_frontier.py        # primes below 300
    python demos/08_quadratic_residue_frontier.py 500    # all 93 below 500

The optional argument is the exclusive bound on p.  The script exits 1
unless every prime ends NONE_EXHAUSTIVE.
"""

import sys
import time

from sgdecomp import SearchTask, search_binary
from sgdecomp.field import is_prime
from sgdecomp.search import NONE_EXHAUSTIVE

bound = int(sys.argv[1]) if len(sys.argv) > 1 else 300
primes = [p for p in range(5, bound) if is_prime(p)]
settled = 0
start = time.perf_counter()
for p in primes:
    t = time.perf_counter()
    res = search_binary(SearchTask(q=p, d=2))
    settled += res.kind == NONE_EXHAUSTIVE
    print(f"p = {p:4d}: {res.kind:16s} {res.nodes:>11,} nodes "
          f"{time.perf_counter() - t:8.2f} s", flush=True)
print(f"\n{settled} of {len(primes)} primes 5 <= p < {bound} end "
      f"NONE_EXHAUSTIVE ({time.perf_counter() - start:.1f} s)")
sys.exit(0 if settled == len(primes) else 1)
