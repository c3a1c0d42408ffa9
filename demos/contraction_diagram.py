"""Degenerations: transported tensors, verified edges, the full diagram.

Run with: python demos/contraction_diagram.py
"""

from assoc2 import (
    ClassLabel,
    ContractionFamily,
    RationalFunction,
    canonical_algebra,
    classify,
    contract,
    contraction_graph,
    proper_edge_families,
    search_census,
    search_families,
    transport,
)

t = RationalFunction.t()
one = RationalFunction.const(1)

print("Scaling e2 by t inside beta1 moves its square off to zero:")
beta1 = canonical_algebra(ClassLabel.B1)
fam = ContractionFamily.diagonal(one, t)
moved = transport(beta1, fam)
for name, row in zip(("e1*e1", "e1*e2", "e2*e1", "e2*e2"),
                     moved.to_matrix2()):
    print(f"  {name} -> ({row[0]}, {row[1]})")
limit = contract(beta1, fam)
print("limit classifies to:", classify(limit).value)

print("\nAll stored degeneration families, re-verified:")
for source, target, family in proper_edge_families():
    lim = contract(canonical_algebra(source), family)
    print(f"  {source.value} -> {target.value}: limit is "
          f"{classify(lim).value}")

print("\nBounded template search (census %d family shapes per pair):"
      % search_census(2))
found = search_families(ClassLabel.B1, ClassLabel.B3, 2)
print("  beta1 -> beta3:", "found " + repr(found) if found else "none")
found = search_families(ClassLabel.B1, ClassLabel.B4, 2)
print("  beta1 -> beta4:", "found" if found else
      "none within the census (bounded evidence only)")

print("\nThe full diagram in DOT form:\n")
print(contraction_graph().to_dot())
