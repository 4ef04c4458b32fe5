"""A guided tour of the library API: classify one algebra, inspect a family,
check a witness by hand, and solve at a quadratic-irrational weight.

Run from the repository root after installing the package:

    python3 demos/classification_tour.py
"""

from fractions import Fraction

from wbext import (
    ExtProblem,
    classify,
    g_family_witness,
    quad,
    solve_ext,
    verify_witness,
)

B = Fraction(3)

print(f"=== classification for b = {B} ===\n")
report = classify(B)

print("one-parameter families (weight lines with a free parameter):")
for entry in report.per_b:
    if entry.g_generic > 0:
        print(f"  delta - dbar = {entry.diff}: generic dimension {entry.generic_dim}")
        for witness, note in entry.families:
            print(f"    family witness: {witness}   [{note}]")

print("\nisolated points (dimension jumps at a single weight pair):")
for delta, dbar in report.isolated_points():
    print(f"  (delta, dbar) = ({delta}, {dbar})")

print("\n=== a family witness, verified by substitution ===\n")
dbar = Fraction(7)
witness = g_family_witness(1, B, dbar=dbar)
problem = ExtProblem(shape=3, b=B, alpha=0, abar=0, delta=dbar + 1 + B, dbar=dbar)
print(f"degree-1 witness at dbar = {dbar}: {witness}")
print(f"substitution check: {verify_witness(problem, witness)}")

print("\n=== solving at a quadratic-irrational weight ===\n")
delta = quad(Fraction(7, 2), Fraction(1, 2), 19)   # 7/2 + sqrt(19)/2
problem = ExtProblem(shape=3, b=None, alpha=0, abar=0,
                     delta=delta, dbar=delta - 6, sector="f")
solution = solve_ext(problem)
print(f"delta = {delta}, dbar = {delta - 6}")
print(f"ext_dim = {solution.ext_dim}")
for witness in solution.basis:
    print(f"  basis witness: {witness}")
