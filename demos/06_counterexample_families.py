"""
Explicit families that defeat naive generalizations
===================================================

Digit-coordinate constructions give A with A + A = F_q^* for every
p >= 7, and (A, B, C) with A + B + C = F_q^* for every p >= 5.  Running
them inside the subfield F_p of F_{p^n} turns the subgroup S_d,
d = (q-1)/(p-1), into a genuine sumset, so the digit hypotheses in the
impossibility results cannot be dropped.
"""

from sgdecomp import A_PLUS_A, TERNARY, build, classify_pair, subfield_S_d

# A + A covers all of F_49^* with |A| = 15 = ((7+1)/2)^2 - 1.
con = build(A_PLUS_A, 7, 2)
print("A + A = F_49^*, |A| =", con.parts[0].card)

# The ternary family works from p = 5 on and keeps every part small.
con = build(TERNARY, 5, 2)
print("A + B + C = F_25^*, sizes", [part.card for part in con.parts])

# S_8 inside F_49 is the embedded F_7^*, identified two independent ways
# (power residues vs Frobenius fixed points).
sub = subfield_S_d(7, 2, 1)
print("\nS_8 in F_49 =", sub.members.indices(),
      "= F_7^* on the basis", sub.basis)

# Composing the two: an explicit self-sum decomposition of S_8 itself, by
# the same builder run inside F_7 (k = 1).
chain = build(A_PLUS_A, 7, 2, 1)
print("S_8 = A + A with A =", sorted(chain.parts[0].indices()))

# Consistency: the classifier must refuse to call (8, 49) good, because a
# good pair can never be a self-sum.  It does.
pc = classify_pair(8, 49)
print("classify_pair(8, 49).is_good =", pc.is_good,
      " (digits", list(pc.expansion.digits), "fail every bullet)")
assert not pc.is_good

# The same chain exists at every prime power; a few more instances:
for p, n in [(11, 2), (13, 2), (7, 3)]:
    chain = build(A_PLUS_A, p, n, 1)
    q = p**n
    print(f"q={q}: S_{chain.d} = A + A, |A| = {chain.parts[0].card}, "
          f"classifier good: {classify_pair(chain.d, q).is_good}")
