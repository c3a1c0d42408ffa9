"""Tour of the classifier: canonical laws, invariants, explicit witnesses.

Run with: python demos/classification_tour.py
"""

import random
from fractions import Fraction

from assoc2 import (
    ASSOCIATIVE_LABELS,
    LinearMap,
    QuadExt,
    canonical_algebra,
    fingerprint,
    isomorphism_witness,
)

print("The eight isomorphism classes and their separating invariants:\n")
header = f"{'class':<8} {'comm':<5} {'ann L/R':<8} {'derived':<8} " \
         f"{'unital':<7} {'nilp':<5} {'idem':<5} {'sq.zero':<7}"
print(header)
for label in ASSOCIATIVE_LABELS:
    fp = fingerprint(canonical_algebra(label))
    print(f"{label.value:<8} {str(fp.commutative)[0]:<5} "
          f"{fp.left_ann_dim}/{fp.right_ann_dim:<6} {fp.derived_dim:<8} "
          f"{str(fp.unital)[0]:<7} {str(fp.nilpotent)[0]:<5} "
          f"{str(fp.has_nontrivial_idempotent)[0]:<5} "
          f"{str(fp.has_square_zero)[0]:<7}")

print("\nScramble beta3 by a random change of basis and recover it:")
rng = random.Random(2024)
while True:
    g = LinearMap([[Fraction(rng.randint(-5, 5)) for _ in range(2)]
                   for _ in range(2)])
    if g.is_invertible:
        break
moved = canonical_algebra(ASSOCIATIVE_LABELS[3]).change_basis(g)
print("scrambled constants:", moved.to_matrix2())
label, witness = isomorphism_witness(moved)
print("recovered class:", label.value)
print("witness columns:", [witness.column(0), witness.column(1)])
print("transported back equals the canonical table:",
      moved.change_basis(witness) == canonical_algebra(label))

print("\nOver the Gaussian rationals the two 4-dimensional-orbit classes")
print("merge: sending e2 to i*e2 turns beta1 into beta2 exactly.")
i = QuadExt(0, 1)  # d = -1 by default: the Gaussian rationals Q(i)
lift = canonical_algebra(ASSOCIATIVE_LABELS[1]).map_scalars(
    lambda c: QuadExt(c, 0))
g = LinearMap([[QuadExt(1, 0), QuadExt(0, 0)],
               [QuadExt(0, 0), i]])
target = canonical_algebra(ASSOCIATIVE_LABELS[2]).map_scalars(
    lambda c: QuadExt(c, 0))
print("beta1 over Q(i), basis (e1, i e2):",
      "equals beta2" if lift.change_basis(g) == target else "mismatch!")
