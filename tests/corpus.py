"""Seeded random complex corpus shared by the oracle comparison tests.

The complexes are honest by construction: a random degree zero map is
taken as the first differential and the second is assembled out of its
kernel generators, so d compose d = 0 holds without rigging the random
draw.  Constant matrix entries are allowed on purpose; they exercise
the minimalization path.  The builders at the end (minimal generator
count, direct sums, diagonal maps, free modules, and the passage
between a presented module and a subquotient) make fixtures for the
tests.  Presented modules are the oracles' GradedModule; the vectors
the engine hands out (map columns, kernels, subquotient generators) are
its dicts from packed terms to coefficient, which oracles.unpacked
reads as (position, exponents).
"""

import random
from functools import cache

from levelbounds import modules
from levelbounds.complexes import ChainComplex
from levelbounds.gbcore import relative_syzygies
from levelbounds.groebner import ideal, zero_ideal
from levelbounds.modules import FreeModule, ModMap, subquotient
from levelbounds.polys import PolyRing
from levelbounds.rings import QuotientRing

import oracles
from oracles import GradedModule, minimal_presentation

_cache = {}


def random_homogeneous(rng, P, d, density=0.6):
    terms = {}
    for e in oracles.monomials(P.nvars, d):
        if rng.random() < density:
            terms[e] = rng.randrange(1, P.char)
    return P.from_dict(terms)


def random_quotient(rng, P):
    style = rng.randrange(3)
    if style == 0:
        return zero_ideal(P)
    if style == 1:
        gens = []
        for _ in range(rng.randrange(1, 3)):
            d = rng.randrange(2, 4)
            gens.append(oracles.monomial(P, rng.choice(oracles.monomials(P.nvars, d))))
        return ideal(P, gens)
    mons = oracles.monomials(P.nvars, 2)
    if len(mons) < 2:
        return zero_ideal(P)
    e1, e2 = rng.sample(mons, 2)
    return ideal(P, [oracles.monomial(P, e1) - oracles.monomial(P, e2)])


def build_corpus(count=24, seed=20260819):
    key = (count, seed)
    if key in _cache:
        return _cache[key]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.choice([1, 2, 3])
        P = PolyRing(nv, 101)
        R = QuotientRing(random_quotient(rng, P))
        r0 = rng.randrange(1, 4)
        t0 = tuple(rng.randrange(0, 2) for _ in range(r0))
        r1 = rng.randrange(1, 4)
        t1 = tuple(rng.randrange(0, 3) for _ in range(r1))
        F0, F1 = FreeModule(R, t0), FreeModule(R, t1)
        rows = []
        for i in range(r0):
            row = []
            for j in range(r1):
                dd = t1[j] - t0[i]
                row.append(random_homogeneous(rng, P, dd) if dd >= 0 else P.zero())
            rows.append(row)
        d1 = ModMap.from_rows(F1, F0, rows)
        take = rng.randrange(0, 4)
        cols = d1.kernel_and_image[0][:take]
        if cols:
            d2 = map_from_columns(F1, cols)
            C = ChainComplex(R, [F0, F1, d2.source], [d1, d2])
        else:
            C = ChainComplex(R, [F0, F1], [d1])
        out.append(C)
    _cache[key] = out
    return out


def vec_degree(free, v):
    """The degree of a nonzero homogeneous vector of free, read off one term."""
    pos, e = next(iter(oracles.unpacked(v, free.ring.nvars)))
    return free.twists[pos] + sum(e)


def map_from_columns(target, cols):
    """The map into target with the given nonzero vector columns, source twists read off them."""
    source = FreeModule(target.ring, tuple(vec_degree(target, v) for v in cols))
    return ModMap(source, target, cols)


def min_gens(M):
    """dim_k(M tensor k), the minimal number of generators."""
    return minimal_presentation(M).gens.rank


def direct_sum(A, B):
    ring = A.ring
    zero = ring.poly_ring.zero()
    gens = FreeModule(ring, A.gens.twists + B.gens.twists)
    source = FreeModule(ring, A.rels.source.twists + B.rels.source.twists)
    rows = []
    for i in range(A.gens.rank):
        rows.append(list(A.rels.rows[i]) + [zero] * B.rels.source.rank)
    for i in range(B.gens.rank):
        rows.append([zero] * A.rels.source.rank + list(B.rels.rows[i]))
    return GradedModule(gens, ModMap.from_rows(source, gens, rows))


def diagonal_map(free, r):
    """Multiplication by the homogeneous r, from free twisted by deg(r) onto free."""
    zero = free.ring.poly_ring.zero()
    rows = [[r if a == b else zero for b in range(free.rank)] for a in range(free.rank)]
    source = FreeModule(free.ring, tuple(t + max(r.degree(), 0) for t in free.twists))
    return ModMap.from_rows(source, free, rows)


def free_module(free):
    """free as a presented module with no relations."""
    none = FreeModule(free.ring, ())
    return GradedModule(free, ModMap.from_rows(none, free, [[] for _ in range(free.rank)]))


@cache
def present(H):
    """A presentation of the subquotient H, for the oracles that read one.

    The generators are H.gens, twisted by their degrees, and the
    relations are the relative syzygies of H.gens modulo the reduced
    basis of the denominator, which holds J.  Subquotients compare by
    identity, so each one is presented once.
    """
    free = H.free
    ring = free.ring
    gens = FreeModule(ring, tuple(vec_degree(free, v) for v in H.gens))
    raw, _ = relative_syzygies(H.gens, H.denom.gb, rank=free.rank, nvars=ring.nvars, p=ring.char)
    return GradedModule(gens, map_from_columns(gens, modules._nonzero_normal(gens, raw)))


def as_subquotient(M):
    """The presented module M = F / N as the subquotient of F it is."""
    free = M.gens
    denom = oracles.span(free, M.rels.cols)
    return subquotient(free, [free.basis_vector(k) for k in range(free.rank)], denom)
