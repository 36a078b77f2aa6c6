"""Show the multiplication-by-x1 factorization through a Koszul complex.

Over R = k[x1..xn]/((x1) meet (x2..xn)) multiplication by x1 on R
factors through K(x2..xn; R): alpha includes R as degree 0, beta maps
degree 0 back by x1, and beta . alpha = x1.  The script prints the
differentials of K and the checks of verify_factorization_example, then
reruns them over the plain polynomial ring, where beta stops being a
chain map.

Usage: python3 scripts/factorization_demo.py [--n 3] [--char 101]
"""

import argparse

from levelbounds.complexes import koszul_complex
from levelbounds.groebner import ideal, ideal_intersection
from levelbounds.level import verify_factorization_example
from levelbounds.polys import PolyRing, format_poly
from levelbounds.rings import QuotientRing


def fmt_matrix(rows, indent="    "):
    cells = [[format_poly(e) for e in row] for row in rows]
    if not cells:
        return indent + "(empty)"
    width = max(len(c) for row in cells for c in row)
    return "\n".join(
        indent + "[ " + "  ".join(c.rjust(width) for c in row) + " ]"
        for row in cells
    )


def describe(n, char, ring, label):
    K = koszul_complex(list(ring.poly_ring.variables()[1:]), ring)
    print(f"\n== {label} ==")
    print(f"K(x2..x{n}) differentials:")
    for i, d in enumerate(K.diffs):
        print(f"  d_{i + 1}:")
        print(fmt_matrix(d.rows))

    rep = verify_factorization_example(n, char, ring=ring)
    print(f"verdict: {'PASS' if rep.passed else 'FAIL'}")
    for name, ok in rep.checks:
        print(f"  {name}: {'ok' if ok else 'FAILED'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--char", type=int, default=101)
    args = ap.parse_args()

    P = PolyRing(args.n, args.char)
    xs = P.variables()
    meet = ideal_intersection(ideal(P, [xs[0]]), ideal(P, list(xs[1:])))
    gens = ", ".join(format_poly(f) for f in meet.gens)
    print(f"n = {args.n}, p = {args.char}, defining ideal ({gens})")

    describe(args.n, args.char, QuotientRing(meet), "over the quotient")
    describe(args.n, args.char, QuotientRing.free(P),
             "over the free ring (beta must fail)")


if __name__ == "__main__":
    main()
