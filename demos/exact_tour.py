"""A short tour of the exact layer: expansions, Hecke operators, the
principal-part solver, and a quotient matrix.  Run with python3."""

from fractions import Fraction

from merohecke import meroforms
from merohecke.hecke import t_op
from merohecke.linalg import poly_str
from merohecke.quotient import MOD_M, quotient_hecke_matrix, theorem_check
from merohecke.whbasis import PrincipalPart, solve_principal_part

g = meroforms.build("g", 10)
print("g =", g.series)

image = t_op(g.series, -10, 2)
print("g|T_2 =", image)

# a bare double pole pairs to tau(2) = -24 against delta, so no form
# carries it; the solver answers with the exact pairing vector
bad = solve_principal_part(-10, PrincipalPart({2: Fraction(1)}, 0), False, 10)
print("q^-2 alone at weight -10:", bad)

# the companion coefficient 24 = -tau(2) cancels the pairing
good = solve_principal_part(
    -10, PrincipalPart({2: Fraction(1), 1: Fraction(24)}, 0), False, 10)
print("with 24*q^-1:", good.series)

mat = quotient_hecke_matrix(24, MOD_M, 2)
print("weight-24 quotient matrix for T_2:", mat)
print("pairing intertwines it with T_2 on the cusp space:", theorem_check(24, MOD_M, 2))

rep = meroforms.verify_identity("gT2")
print("gT2 identity:", "pass" if rep else "FAIL", "on window", rep.window)
print("P_2(j) =", poly_str(meroforms.GT2_POLY))
