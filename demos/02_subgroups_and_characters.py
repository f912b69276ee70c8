"""
Power subgroups and character sums
==================================

S_d is the group of d-th powers in F_q^*, of size (q-1)/d.  A
multiplicative character of order d is constant 1 on S_d, and the double
sum of a character over A x B is bounded by sqrt(q |A| |B|); the bound is
what controls additive structure in the subgroup.
"""

from sgdecomp import FqSubset, character, double_char_sum, make_field_q, subgroup

ctx = make_field_q(13)

# The cubes in F_13 form a subgroup of size 4, returned as an FqSubset.
s3 = subgroup(ctx, 3)
print("S_3 in F_13:", s3.indices(), "order", s3.card)

# A character of exact order 3: trivial on cubes, a cube root of unity
# elsewhere.
chi = character(ctx, 3)
print("chi(5) =", chi(5), " chi(2) =", chi(2))
print("chi is 1 on all of S_3:",
      all(abs(chi(s) - 1) < 1e-12 for s in s3.indices()))

# The double sum over a pair whose sumset lies inside S_3 is exactly
# |A| |B|; here A + B is all of S_3.
a = FqSubset.from_indices(ctx, (0, 7))
b = FqSubset.from_indices(ctx, (1, 5))
rep = double_char_sum(chi, a, b)
print("\nsum over A x B of chi(a+b) =", rep.value, "(|A||B| =", a.card * b.card,
      ")")
print("generic bound sqrt(q |A| |B|) =", round(rep.bound, 3),
      " tight here:", rep.tight_case)

# For arbitrary pairs the sum scatters but never exceeds the bound.
import random

rng = random.Random(2)
worst = 0.0
for _ in range(300):
    aa = FqSubset.from_indices(ctx, rng.sample(range(13), rng.randint(1, 6)))
    bb = FqSubset.from_indices(ctx, rng.sample(range(13), rng.randint(1, 6)))
    r = double_char_sum(chi, aa, bb)
    worst = max(worst, abs(r.value) / r.bound)
print("\nworst |sum| / bound over 300 random pairs:", round(worst, 4))
