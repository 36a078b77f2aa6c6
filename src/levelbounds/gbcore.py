"""Groebner engine over free modules P^r for P = F_p[x1..xn].

One Buchberger implementation serves every caller in the package: ideals
are the rank one case, and all submodule calculus (syzygies, kernels,
colons, membership) reduces to reduced module bases plus one primitive,
relative_syzygies, which eliminates tracked coordinate columns through a
position-over-term order.

A vector is a dict mapping terms to nonzero coefficients in 1..p-1,
where a term is (position, exponent tuple).  Orders are key functions on
terms; larger key means larger term.  No pair-skipping criteria are
applied: the product criterion is unsound for modules and desk-scale
inputs do not need it.

Leading terms and reducers are computed once: a basis element carries
its lead from the moment it is added, interreduction reduces every tail
against one shared basis, and callers that reduce many vectors against
the same reduced basis build its reducer once (reducer) and pass it to
submodule_nf.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Optional, Sequence

from .polys import mono_deg, mono_div, mono_divides, mono_lcm, mono_mul

Term = tuple  # (pos, exps)
Vec = dict  # Term -> coeff


def pot_key(term: Term) -> tuple:
    """Position over term, earlier positions larger, degrevlex inside."""
    pos, e = term
    return (-pos, sum(e), tuple(-x for x in reversed(e)))


def aux_last_key(term: Term) -> tuple:
    """Block order with the last variable greatest, degrevlex on the rest.

    Used for one-auxiliary-variable elimination at ring level: a leading
    term free of the auxiliary forces the whole element free of it.
    """
    pos, e = term
    body = e[:-1]
    return (e[-1], -pos, sum(body), tuple(-x for x in reversed(body)))


def vec_lt(v: Vec, key: Callable) -> Term:
    return max(v, key=key)


def vec_canon_key(v: Vec, key: Callable) -> tuple:
    """Total deterministic key on vectors, for canonical sorting."""
    return tuple(sorted((key(t), t, c) for t, c in v.items()))


def vec_scale(v: Vec, c: int, p: int) -> Vec:
    c %= p
    if c == 0:
        return {}
    return {t: (k * c) % p for t, k in v.items()}


def vec_monic(v: Vec, key: Callable, p: int) -> Vec:
    if not v:
        return v
    lc = v[vec_lt(v, key)]
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

    def __init__(self, key: Callable, p: int):
        self.key = key
        self.p = p
        self.elems: list = []  # (lt_term, vec)
        self.by_pos: dict = {}

    def add(self, v: Vec, lt: Optional[Term] = None) -> None:
        """Append v; lt is its leading term when the caller knows it."""
        if lt is None:
            lt = vec_lt(v, self.key)
        self.elems.append((lt, v))
        self.by_pos.setdefault(lt[0], []).append((lt[1], v))

    def find_reducer(self, term: Term):
        pos, e = term
        for le, g in self.by_pos.get(pos, ()):
            if mono_divides(le, e):
                return le, g
        return None


def normal_form(v: Vec, basis: _Basis, key: Callable, p: int) -> Vec:
    """Fully reduced remainder of v against a monic basis."""
    work = dict(v)
    out: Vec = {}
    while work:
        t = max(work, key=key)
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


def _add_monic(basis: _Basis, v: Vec) -> None:
    lt = vec_lt(v, basis.key)
    basis.add(vec_scale(v, pow(v[lt], basis.p - 2, basis.p), basis.p), lt)


def _spair(lt1: Term, v1: Vec, lt2: Term, v2: Vec, p: int) -> Vec:
    # both monic with the same leading position
    m = mono_lcm(lt1[1], lt2[1])
    s: Vec = {}
    vec_add_scaled(s, 1, mono_div(m, lt1[1]), v1, p)
    vec_add_scaled(s, p - 1, mono_div(m, lt2[1]), v2, p)
    return s


def module_gb(vectors: Iterable[Vec], key: Callable, p: int) -> list:
    """Reduced Groebner basis of the submodule generated by vectors.

    Deterministic: canonical input normalization, pairs processed in
    ascending lcm order, result interreduced, monic, sorted by
    descending leading term.  The reduced basis is unique for the order,
    so any generating set of the same submodule yields equal output.
    """
    seed = [v for v in vectors if v]
    seed = [vec_monic(v, key, p) for v in seed]
    seed.sort(key=lambda v: vec_canon_key(v, key))
    basis = _Basis(key, p)
    queue: list = []  # heap of (lcm deg, lcm drlkey, i, j)

    def push_pairs(j: int):
        ltj = basis.elems[j][0]
        for i in range(j):
            lti = basis.elems[i][0]
            if lti[0] != ltj[0]:
                continue
            m = mono_lcm(lti[1], ltj[1])
            heapq.heappush(queue, (mono_deg(m), tuple(m), i, j))

    for v in seed:
        r = normal_form(v, basis, key, p)
        if r:
            _add_monic(basis, r)
            push_pairs(len(basis.elems) - 1)

    while queue:
        _, _, i, j = heapq.heappop(queue)
        lti, vi = basis.elems[i]
        ltj, vj = basis.elems[j]
        s = _spair(lti, vi, ltj, vj, p)
        r = normal_form(s, basis, key, p)
        if r:
            _add_monic(basis, r)
            push_pairs(len(basis.elems) - 1)

    return _interreduce(basis.elems, key, p)


def _interreduce(elems: Sequence, key: Callable, p: int) -> list:
    # minimal: drop elements whose lead is divisible by another lead
    buckets: dict = {}
    for idx, (lt, _) in enumerate(elems):
        buckets.setdefault(lt[0], []).append((idx, lt[1]))
    keep = []
    for idx, (lt, v) in enumerate(elems):
        le = lt[1]
        if not any(
            jdx != idx and mono_divides(le2, le) and (le2 != le or jdx < idx)
            for jdx, le2 in buckets[lt[0]]
        ):
            keep.append((lt, v))
    # Tail reduce each against the kept elements.  A tail term is smaller
    # than its own lead, so that lead divides none of the terms met on
    # the way: an element never reduces itself, and one shared basis
    # picks the same reducers as the others-only basis would.
    shared = _Basis(key, p)
    for lt, v in keep:
        shared.add(v, lt)
    out = []
    for lt, v in keep:
        tail = dict(v)
        reduced = {lt: tail.pop(lt)}
        reduced.update(normal_form(tail, shared, key, p))
        out.append((key(lt), reduced))
    out.sort(key=lambda kv: kv[0], reverse=True)
    return [v for _, v in out]


def reducer(gb: Sequence, key: Callable, p: int) -> _Basis:
    """The division structure of a reduced basis, for submodule_nf."""
    basis = _Basis(key, p)
    for g in gb:
        basis.add(g)
    return basis


def submodule_nf(v: Vec, basis: _Basis) -> Vec:
    """Normal form of v against a reduced basis built by reducer."""
    return normal_form(v, basis, basis.key, basis.p)


def relative_syzygies(
    tracked: Sequence[Vec],
    untracked: Sequence[Vec],
    rank: int,
    nvars: int,
    p: int,
) -> list:
    """Generators of {a in P^t : sum a_i * tracked_i lies in <untracked>}.

    Computed by appending a tracking coordinate per tracked vector and
    eliminating the ambient block: with position-over-term order, a
    basis element supported entirely in the tracking block is exactly a
    relation, and those elements generate all of them.  Untracked
    vectors act as reducers whose coefficients are discarded, which is
    what makes this a relative (modulo a submodule) syzygy computation.
    """
    t = len(tracked)
    if t == 0:
        return []
    zero = (0,) * nvars
    embedded = []
    for i, v in enumerate(tracked):
        w = dict(v)
        w[(rank + i, zero)] = 1
        embedded.append(w)
    embedded.extend(dict(v) for v in untracked if v)
    gb = module_gb(embedded, pot_key, p)
    out = []
    for g in gb:
        if all(pos >= rank for pos, _ in g):
            out.append({(pos - rank, e): c for (pos, e), c in g.items()})
    return out
