"""Groebner engine over free modules P^r for P = F_p[x1..xn].

One Buchberger implementation serves every caller in the package under
one term order, pot_key: ideals are the rank one case, and all
submodule and ideal calculus (syzygies, kernels, colons, intersections,
membership) reduces to reduced module bases plus one primitive,
relative_syzygies, which eliminates tracked coordinate columns through
that position-over-term order and returns both halves of its one run.

A vector is a dict mapping terms to nonzero coefficients in 1..p-1,
where a term is (position, exponent tuple); a larger pot_key means a
larger term.

module_gb skips a pair only when its S-vector is known to have a
standard representation, which is all Buchberger's criterion asks of a
pair; the basis never loses an element before interreduction, so such a
representation stays valid to the end.  Two rules apply:

- Pairs are formed only between elements whose leads share a position;
  any other S-vector is undefined.
- Product criterion, for single-position elements only (every term at
  the lead's position).  Two such elements at position k are f*e_k and
  g*e_k, the order restricted to position k is degrevlex, and coprime
  leads give S(f, g)*e_k a standard representation by Buchberger's
  first criterion.  For general vectors the criterion is unsound:
  x*e0 + e1 and y*e0 have coprime leads, and their S-vector y*e1 is not
  zero modulo them.

Leading terms and reducers are computed once: a basis element carries
its lead from the moment it is added, interreduction reduces every tail
against one shared basis, and callers that reduce many vectors against
the same reduced basis build its reducer once (reducer) and pass it to
submodule_nf.  The same holds per term: the order key pot_key and the
support mask _support are cached on the term, so normal_form compares a
term it meets again without rebuilding its key.  A basis element stores
its lead's support mask, and find_reducer tests divisibility only when
that mask lies inside the term's mask (the short exponent vector test
of Bachmann and Schoenemann, ISSAC 1998).  A lead with a variable the
term lacks cannot divide it, so the mask skips only leads that would
fail the full test: the scan still returns the first dividing lead in
bucket order, and every reduction stays the same.
"""

from __future__ import annotations

import heapq
from functools import cache
from typing import Iterable, Optional, Sequence

from .polys import drl_key, mono_deg, mono_div, mono_divides, mono_lcm, mono_mul

Term = tuple  # (pos, exps)
Vec = dict  # Term -> coeff


@cache
def pot_key(term: Term) -> tuple:
    """Position over term, earlier positions larger, degrevlex inside."""
    pos, e = term
    return (-pos,) + drl_key(e)


@cache
def _support(e: tuple) -> int:
    """Bit i set when e[i] > 0; x^a can divide x^b only if a's bits lie in b's."""
    mask = 0
    for i, x in enumerate(e):
        if x:
            mask |= 1 << i
    return mask


def vec_lt(v: Vec) -> Term:
    return max(v, key=pot_key)


def vec_canon_key(v: Vec) -> tuple:
    """Total deterministic key on vectors, for canonical sorting."""
    return tuple(sorted((pot_key(t), t, c) for t, c in v.items()))


def vec_scale(v: Vec, c: int, p: int) -> Vec:
    c %= p
    if c == 0:
        return {}
    return {t: (k * c) % p for t, k in v.items()}


def vec_monic(v: Vec, p: int) -> Vec:
    if not v:
        return v
    lc = v[vec_lt(v)]
    return vec_scale(v, pow(lc, p - 2, p), p)


def vec_add_scaled(target: Vec, c: int, shift: tuple, src: Vec, p: int) -> None:
    """target += c * x^shift * src, in place (positions unchanged)."""
    for (pos, e), k in src.items():
        t = (pos, mono_mul(e, shift))
        val = (target.get(t, 0) + c * k) % p
        if val:
            target[t] = val
        else:
            target.pop(t, None)


class _Basis:
    """Monic basis elements bucketed by leading position for division."""

    def __init__(self, p: int):
        self.p = p
        self.elems: list = []  # (lt_term, vec)
        # lead position -> [(lead exps, vec, index in elems, lead support mask)]
        self.by_pos: dict = {}

    def add(self, v: Vec, lt: Optional[Term] = None) -> None:
        """Append v; lt is its leading term when the caller knows it."""
        if lt is None:
            lt = vec_lt(v)
        entry = (lt[1], v, len(self.elems), _support(lt[1]))
        self.by_pos.setdefault(lt[0], []).append(entry)
        self.elems.append((lt, v))

    def find_reducer(self, term: Term):
        pos, e = term
        mask = _support(e)
        for le, g, _, lmask in self.by_pos.get(pos, ()):
            if not lmask & ~mask and mono_divides(le, e):
                return le, g
        return None


def normal_form(v: Vec, basis: _Basis) -> Vec:
    """Fully reduced remainder of v against a monic basis."""
    p = basis.p
    work = dict(v)
    out: Vec = {}
    while work:
        t = max(work, key=pot_key)
        c = work.pop(t)
        hit = basis.find_reducer(t)
        if hit is None:
            out[t] = c
            continue
        le, g = hit
        shift = mono_div(t[1], le)
        # cancel t: work -= c * x^shift * g, skipping g's lead which
        # matches t exactly because g is monic
        for (pos2, e2), k in g.items():
            if pos2 == t[0] and e2 == le:
                continue
            tt = (pos2, mono_mul(e2, shift))
            val = (work.get(tt, 0) - c * k) % p
            if val:
                work[tt] = val
            else:
                work.pop(tt, None)
    return out


def _spair(lt1: Term, v1: Vec, lt2: Term, v2: Vec, p: int) -> Vec:
    # both monic with the same leading position
    m = mono_lcm(lt1[1], lt2[1])
    s: Vec = {}
    vec_add_scaled(s, 1, mono_div(m, lt1[1]), v1, p)
    vec_add_scaled(s, p - 1, mono_div(m, lt2[1]), v2, p)
    return s


def module_gb(vectors: Iterable[Vec], p: int) -> list:
    """Reduced Groebner basis of the submodule generated by vectors.

    Deterministic: canonical input normalization, pairs processed in
    ascending lcm order, result interreduced, monic, sorted by
    descending leading term.  The reduced basis is unique for the order,
    so any generating set of the same submodule yields equal output.
    """
    seed = [v for v in vectors if v]
    seed = [vec_monic(v, p) for v in seed]
    seed.sort(key=vec_canon_key)
    basis = _Basis(p)
    single: list = []  # element i has every term at its lead position
    queue: list = []  # heap of (lcm deg, lcm exps, i, j)

    def add(v: Vec) -> None:
        lt = vec_lt(v)
        j = len(basis.elems)
        alone = all(pos == lt[0] for pos, _ in v)
        for le, _, i, _ in basis.by_pos.get(lt[0], ()):
            m = mono_lcm(le, lt[1])
            d = mono_deg(m)
            if alone and single[i] and d == mono_deg(le) + mono_deg(lt[1]):
                continue  # product criterion, sound at a single position
            heapq.heappush(queue, (d, m, i, j))
        single.append(alone)
        basis.add(vec_scale(v, pow(v[lt], p - 2, p), p), lt)

    for v in seed:
        r = normal_form(v, basis)
        if r:
            add(r)

    while queue:
        _, _, i, j = heapq.heappop(queue)
        lti, vi = basis.elems[i]
        ltj, vj = basis.elems[j]
        r = normal_form(_spair(lti, vi, ltj, vj, p), basis)
        if r:
            add(r)

    return _interreduce(basis.elems, p)


def _interreduce(elems: Sequence, p: int) -> list:
    # Minimal: every element was fully reduced against all before it, so
    # no lead divides a later one.  Only a later lead can make an element
    # redundant, and a redundant later element hands its divisor on to a
    # kept one: walking in reverse, test against the kept leads only.
    kept_leads: dict = {}
    keep = []
    for lt, v in reversed(elems):
        bucket = kept_leads.setdefault(lt[0], [])
        if not any(mono_divides(le, lt[1]) for le in bucket):
            bucket.append(lt[1])
            keep.append((lt, v))
    keep.reverse()
    # Tail reduce each against the kept elements.  A tail term is smaller
    # than its own lead, so that lead divides none of the terms met on
    # the way: an element never reduces itself, and one shared basis
    # picks the same reducers as the others-only basis would.
    shared = _Basis(p)
    for lt, v in keep:
        shared.add(v, lt)
    out = []
    for lt, v in keep:
        tail = dict(v)
        reduced = {lt: tail.pop(lt)}
        reduced.update(normal_form(tail, shared))
        out.append((pot_key(lt), reduced))
    out.sort(key=lambda kv: kv[0], reverse=True)
    return [v for _, v in out]


def reducer(gb: Sequence, p: int) -> _Basis:
    """The division structure of a reduced basis, for submodule_nf."""
    basis = _Basis(p)
    for g in gb:
        basis.add(g)
    return basis


def submodule_nf(v: Vec, basis: _Basis) -> Vec:
    """Normal form of v against a reduced basis built by reducer."""
    return normal_form(v, basis)


def relative_syzygies(
    tracked: Sequence[Vec],
    untracked: Sequence[Vec],
    rank: int,
    nvars: int,
    p: int,
) -> tuple:
    """(syzygies, image), the two halves of one module_gb run in P^rank.

    syzygies generate {a in P^t : sum a_i * tracked_i lies in
    <untracked>}; image equals module_gb(tracked + untracked).  Each
    tracked vector gets a tracking coordinate past the ambient block and
    untracked ones get none, so relations are taken modulo <untracked>.
    pot_key ranks ambient positions above tracking ones.  So an element
    led in the tracking block has no ambient term and is a relation, and
    those generate all of them.  An element led in the ambient block
    keeps its lead when projected onto that block, and its tail holds
    only terms no lead divides: the projections are the reduced basis
    of the span, which is unique, in module_gb's descending lead order.
    """
    zero = (0,) * nvars
    embedded = [{**v, (rank + i, zero): 1} for i, v in enumerate(tracked)]
    embedded.extend(dict(v) for v in untracked if v)
    syzygies, image = [], []
    for g in module_gb(embedded, p):
        if all(pos >= rank for pos, _ in g):
            syzygies.append({(pos - rank, e): c for (pos, e), c in g.items()})
        else:
            image.append({t: c for t, c in g.items() if t[0] < rank})
    return syzygies, image
