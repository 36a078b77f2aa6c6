"""Show the multiplication-by-x1 factorization through a Koszul complex.

Over R = k[x1..xn]/((x1) meet (x2..xn)) multiplication by x1 on R
factors through K(x2..xn; R): alpha includes R as degree 0, beta maps
degree 0 back by x1, and beta . alpha = x1.  The script prints the
differentials and both chain maps, then reruns the same squares over
the plain polynomial ring, where beta stops being a chain map.

Usage: python3 scripts/factorization_demo.py [--n 3] [--char 101]
"""

import argparse

from levelbounds.complexes import (ChainMap, compose_chain_maps,
                                   koszul_complex, scalar_chain_map,
                                   single_module_complex)
from levelbounds.groebner import ideal, ideal_intersection
from levelbounds.level import verify_factorization_example
from levelbounds.modules import FreeModule, ModMap, is_power_torsion
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
    P = ring.poly_ring
    xs = P.variables()
    K = koszul_complex(list(xs[1:]), ring)
    Rcx = single_module_complex(FreeModule(ring, (0,)))

    print(f"\n== {label} ==")
    print(f"K(x2..x{n}) differentials:")
    for i, d in enumerate(K.diffs):
        print(f"  d_{i + 1}:")
        print(fmt_matrix(d.rows))

    alpha = ChainMap(Rcx, K, {0: ModMap(Rcx.modules[0], K.modules[0], [[P.one()]])})
    beta = ChainMap(
        K, Rcx,
        {0: ModMap(K.modules[0], Rcx.modules[0], [[xs[0]]], degree=1)},
        degree=1,
    )
    print("alpha_0 (R -> K_0):")
    print(fmt_matrix(alpha.components[0].rows))
    print("beta_0 (K_0 -> R, degree 1):")
    print(fmt_matrix(beta.components[0].rows))

    ok_a = alpha.is_chain_map()
    ok_b = beta.is_chain_map()
    print(f"alpha is a chain map: {ok_a}")
    print(f"beta is a chain map:  {ok_b}")
    if ok_a and ok_b:
        composite = compose_chain_maps(beta, alpha)
        print(f"beta . alpha = x1:    {composite == scalar_chain_map(Rcx, xs[0])}")
        tail = ideal(P, list(xs[1:]))
        for i in range(1, K.hi + 1):
            hd = K.homology(i)
            if hd.is_zero:
                continue
            print(f"H_{i} is (x2..x{n})-power torsion: "
                  f"{is_power_torsion(hd, tail)}")


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

    rep = verify_factorization_example(args.n, args.char)
    print(f"\npackaged verdict for n={args.n}: {'PASS' if rep.passed else 'FAIL'}")
    for name, ok in rep.checks:
        print(f"  {name}: {'ok' if ok else 'FAILED'}")


if __name__ == "__main__":
    main()
