"""Groebner engine over free modules P^r for P = F_p[x1..xn].

One Buchberger implementation serves every caller in the package under
one term order, position over term: earlier positions are larger, and
degrevlex orders the terms at one position.  Ideals are the rank one
case, and all submodule and ideal calculus (syzygies, kernels, colons,
intersections, membership) reduces to reduced module bases plus one
primitive, relative_syzygies, which eliminates tracked coordinate
columns through that order and returns both halves of its one run.

A vector is a dict mapping packed terms (below) to nonzero coefficients
in 1..p-1.  That is the form callers pass and get back, and a vector and
a polynomial meet only here, at two crossings: vector packs a
polynomial's terms at one position, and polyvec_from_vec makes one
polynomial per position from a vector.  Every vector this module returns
lists its terms in descending order, lead first.

module_gb skips a pair only when its S-vector is known to have a
standard representation, which is all Buchberger's criterion asks of a
pair; the basis never loses an element before interreduction, so such a
representation stays valid to the end.  Three rules apply:

- Pairs are formed only between elements whose leads share a position;
  any other S-vector is undefined.
- Two single-term elements are never paired: monic, they are x^a*e_k
  and x^b*e_k, and their S-vector is lcm*e_k - lcm*e_k = 0.  A
  monomial submodule, such as J*P^r for a monomial ideal J, is seeded
  as single terms, so this rule removes most of a run's pairs over a
  monomial quotient.
- Product criterion, for single-position elements only (every term at
  the lead's position).  Two such elements at position k are f*e_k and
  g*e_k, the order restricted to position k is degrevlex, and coprime
  leads give S(f, g)*e_k a standard representation by Buchberger's
  first criterion.  For general vectors the criterion is unsound:
  x*e0 + e1 and y*e0 have coprime leads, and their S-vector y*e1 is not
  zero modulo them.

Leading terms and reducers are computed once: a basis element carries
its lead from the moment it is added, and callers that reduce many
vectors against the same reduced basis build its reducer once (reducer)
and pass it to submodule_nf.  Interreduction reduces tails against one
shared basis of the kept elements, and only the tails a later lead can
reach: an element is fully reduced against every earlier one when it is
added, so a tail none of whose terms a later kept lead divides is
already reduced, and it keeps its terms in the order a pass would give.

Packed terms.  A term is one int (Monagan and Pearce, CASC 2007): with
W-bit fields, W = 64 and B = 2^(W-1) - 1,

    pack(pos, e) = (-pos << W(n+1)) + (deg e << Wn) + sum (B - e_i) << Wi.

While every field lies in [0, 2^W) the int order is the term order: the
position field comes first, then the degree, then the exponents from the
last variable down, a smaller exponent giving a larger field, which is
degrevlex.  The map is affine in (pos, e), so multiplying a term by x^s
adds the constant pack(0, s) - pack(0, 0), moving it d positions on
adds -d << W(n+1) (position_shift), the shift that takes a
lead le to a term t it divides is t - le, and the lead of a vector is
max(v).  Every exponent field is at most B, so its top bit is clear, and
x^a divides x^b (same position) exactly when each field of a is at
least the field of b: in ((a_low | G) - b_low) & G, with G the top bits
of the n exponent fields, field i keeps its guard bit set exactly when
a_i >= b_i, and no field borrows from the next.  A constant term is one
whose degree field is 0.

Soundness guard.  An exponent is at most its term's degree, so every
field fits while the degree stays below 2^(W-1).  Every term that is
kept anywhere has degree below 2^(W-2), the cap: a term of degree 2^(W-2)
or more is refused with E_DEGREE_CAP where it is made or first read.

- pack refuses it, on every term made from exponents: a basis index,
  each term vector packs from a polynomial, the tracking coordinates of
  relative_syzygies, and the lcm of each pair as its S-vector is
  formed.  A skipped pair builds no term, so its lcm needs no check.
- degree refuses it.  The ModMap constructor reads every term's degree
  for its twist check, so each map column holds checked terms.
- normal_form refuses it on each term it pops, once per step, whatever
  the basis; every term it returns was popped.

Every other term is a sum of checked parts.  A term of an S-vector has
degree below deg(term) + deg(lcm), a term that a reduction step creates
has degree below deg(tail term) + deg(popped term), and outside the
engine a product (a composite map's entry, f * w in the exponent proof
of torsion, a multiple of a pivot column in unit cancellation) has
degree below the sum of two checked degrees; a position move leaves the
degree as it is.  So every term ever built has degree below 2^(W-1),
none wraps, and each one reaches a check before it is kept: an S-vector
and a product meet normal_form (the latter through the ModMap
constructor or the normal form against a submodule, whose basis may be
empty), and normal_form returns only terms it checked.
"""

from __future__ import annotations

import heapq
from functools import cache
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import UnsupportedInputError
from .polys import Poly, PolyRing, mono_lcm

E_DEGREE_CAP = "E_DEGREE_CAP"

Vec = dict  # packed term -> coeff

_W = 64  # bits per packed field


@cache
def _layout(n: int) -> tuple:
    """(position shift, exponent-field mask, guard bits, degree-cap bits) for n variables."""
    w = _W
    guard = sum(1 << (w * i + w - 1) for i in range(n))
    return w * (n + 1), (1 << (w * n)) - 1, guard, 3 << (w * n + w - 2)


def _refuse(deg: int):
    raise UnsupportedInputError(
        f"{E_DEGREE_CAP}: a term of degree {deg} reached the cap of 2^{_W - 2}"
    )


@cache
def _pack(term: tuple) -> int:
    pos, e = term
    deg = sum(e)
    if deg >> (_W - 2):
        _refuse(deg)
    b = (1 << (_W - 1)) - 1
    x = (-pos << _W) + deg
    for k in reversed(e):
        x = (x << _W) + b - k
    return x


@cache
def _unpack(t: int, n: int) -> tuple:
    w = _W
    mask = (1 << w) - 1
    b = mask >> 1
    return -(t >> (w * (n + 1))), tuple(b - ((t >> (w * i)) & mask) for i in range(n))


def pack(pos: int, e: tuple) -> int:
    """The term x^e at position pos, packed; refuses the degree cap."""
    return _pack((pos, e))


def unpack(t: int, n: int) -> tuple:
    """(position, exponent tuple) of a packed term in n variables."""
    return _unpack(t, n)


def position(t: int, n: int) -> int:
    """The position of a packed term in n variables."""
    return -(t >> (_W * (n + 1)))


def degree(t: int, n: int) -> int:
    """The degree of a packed term in n variables; refuses the degree cap."""
    d = (t >> (_W * n)) & ((1 << _W) - 1)
    if d >> (_W - 2):
        _refuse(d)
    return d


def position_shift(d: int, n: int) -> int:
    """What moves a packed term in n variables d positions on, when added."""
    return -d << (_W * (n + 1))


def vector(f: Poly, pos: int = 0) -> Vec:
    """The terms of f packed at position pos; refuses the degree cap."""
    return {_pack((pos, e)): c for e, c in f.terms}


def polyvec_from_vec(ring: PolyRing, rank: int, v: Vec) -> tuple:
    """v as one polynomial per position, for the dense view and evidence strings.

    Sorted once in descending order, the packed terms run position by
    position, each run in degrevlex, and their coefficients lie in
    1..p-1: each run is the canonical term tuple of its polynomial.
    """
    n = ring.nvars
    per: list = [[] for _ in range(rank)]
    for t, c in sorted(v.items(), reverse=True):
        pos, e = _unpack(t, n)
        per[pos].append((e, c))
    return tuple(Poly(ring, tuple(terms)) for terms in per)


def vec_add_scaled(target: Vec, c: int, shift: int, src: Vec, p: int) -> None:
    """target += c * x^s * src in place, for shift = pack(0, s) - pack(0, 0)."""
    for u, k in src.items():
        u += shift
        val = (target.get(u, 0) + c * k) % p
        if val:
            target[u] = val
        else:
            target.pop(u, None)


class _Basis:
    """Monic packed basis elements bucketed by leading position for division."""

    def __init__(self, p: int, layout: tuple):
        self.p = p
        self.layout = layout
        self.elems: list = []  # (lead, vec)
        # lead >> position shift -> [(lead exponent fields | guard, lead, tail items)]
        self.by_pos: dict = {}

    def add(self, v: dict, lt: int) -> None:
        """Append the monic packed vector v with leading term lt."""
        psh, low, guard, _ = self.layout
        tail = dict(v)
        del tail[lt]
        self.by_pos.setdefault(lt >> psh, []).append(((lt & low) | guard, lt, tuple(tail.items())))
        self.elems.append((lt, v))


def normal_form(v: dict, basis: _Basis) -> dict:
    """Fully reduced remainder of a packed vector against a monic basis.

    Each step pops the largest term, refuses it at the degree cap, and
    cancels it with the first element of its position's bucket whose
    lead divides it, or else keeps it: the remainder lists checked terms
    in descending order, and against an empty basis it is v itself.
    """
    psh, low, guard, top = basis.layout
    p = basis.p
    by_pos = basis.by_pos
    work = dict(v)
    out: dict = {}
    while work:
        t = max(work)
        c = work.pop(t)
        if t & top:
            _refuse((t >> (psh - _W)) & ((1 << _W) - 1))
        tl = t & low
        for lg, le, tail in by_pos.get(t >> psh, ()):
            if (lg - tl) & guard == guard:
                break
        else:
            out[t] = c
            continue
        # cancel t: work -= c * x^(t - le) * g, whose lead is t exactly
        shift = t - le
        c = p - c
        for u, k in tail:
            u += shift
            val = (work.get(u, 0) + c * k) % p
            if val:
                work[u] = val
            else:
                del work[u]
    return out


def _spair(m: int, a: tuple, b: tuple, p: int) -> dict:
    """S-vector of monic (lead, vector) pairs a and b at the lcm m of their leads."""
    (la, va), (lb, vb) = a, b
    shift = m - la
    s = {u + shift: k for u, k in va.items()}
    shift = m - lb
    for u, k in vb.items():
        u += shift
        val = (s.get(u, 0) - k) % p
        if val:
            s[u] = val
        else:
            del s[u]
    return s


def _monic(v: Vec, p: int) -> dict:
    inv = pow(v[max(v)], p - 2, p)
    return {u: k * inv % p for u, k in v.items()}


def module_gb(vectors: Iterable[Vec], nvars: int, p: int) -> list:
    """Reduced Groebner basis of the submodule generated by vectors.

    Deterministic: canonical input normalization, pairs processed in
    ascending lcm order, result interreduced, monic, sorted by
    descending leading term.  The reduced basis is unique for the order,
    so any generating set of the same submodule yields equal output.
    """
    seed = [v for v in vectors if v]
    if not seed:
        return []
    layout = _layout(nvars)
    psh = layout[0]
    seed = sorted((_monic(v, p) for v in seed), key=lambda w: sorted(w.items()))
    basis = _Basis(p, layout)
    leads: list = []  # (lead exponents, their degree) of element i
    single: list = []  # element i has every term at its lead position
    monomial: list = []  # element i is a single term
    members: dict = {}  # lead position -> indices of the elements led there
    queue: list = []  # heap of (lcm deg, lcm exps, i, j)

    def add(r: dict) -> None:
        # normal_form lists its terms in descending order, lead first
        lt = next(iter(r))
        pos, e = _unpack(lt, nvars)
        de = sum(e)
        alone = next(reversed(r)) >> psh == lt >> psh
        mono = len(r) == 1
        j = len(leads)
        bucket = members.setdefault(pos, [])
        for i in bucket:
            if mono and monomial[i]:
                continue  # two single terms: the S-vector is zero
            le, dl = leads[i]
            m = mono_lcm(le, e)
            d = sum(m)
            if alone and single[i] and d == dl + de:
                continue  # product criterion, sound at a single position
            heapq.heappush(queue, (d, m, i, j))
        bucket.append(j)
        leads.append((e, de))
        single.append(alone)
        monomial.append(mono)
        inv = pow(r[lt], p - 2, p)
        basis.add({u: k * inv % p for u, k in r.items()}, lt)

    for w in seed:
        r = normal_form(w, basis)
        if r:
            add(r)

    elems = basis.elems
    while queue:
        _, m, i, j = heapq.heappop(queue)
        lcm = _pack((-(elems[i][0] >> psh), m))
        r = normal_form(_spair(lcm, elems[i], elems[j], p), basis)
        if r:
            add(r)

    return _interreduce(basis)


def _interreduce(basis: _Basis) -> list:
    # Minimal: every element was fully reduced against all before it, so
    # no lead divides a later one.  Only a later lead can make an element
    # redundant, and a redundant later element hands its divisor on to a
    # kept one: walking in reverse, test against the kept leads only.
    # The same holds for tails: a tail needs a pass only when a term of
    # it is divisible by a kept lead added after it.
    psh, low, guard, _ = basis.layout
    kept_leads: dict = {}
    keep = []
    for lt, v in reversed(basis.elems):
        bucket = kept_leads.setdefault(lt >> psh, [])
        tl = lt & low
        if not any((lg - tl) & guard == guard for lg in bucket):
            stale = any((lg - (u & low)) & guard == guard
                        for u in v for lg in kept_leads.get(u >> psh, ()))
            bucket.append(tl | guard)
            keep.append((lt, v, stale))
    keep.reverse()
    # Tail reduce those against the kept elements.  A tail term is
    # smaller than its own lead, so that lead divides none of the terms
    # met on the way: an element never reduces itself, and one shared
    # basis picks the same reducers as the others-only basis would.  It
    # keeps the division entries of the kept elements, in the same order.
    # An element's dict lists its terms in descending order, as a pass
    # would return them.
    kept = {lt for lt, _, _ in keep}
    shared = _Basis(basis.p, basis.layout)
    for key, bucket in basis.by_pos.items():
        shared.by_pos[key] = [entry for entry in bucket if entry[1] in kept]
    shared.elems = [(lt, v) for lt, v, _ in keep]
    out = []
    for lt, v, stale in keep:
        if stale:
            tail = dict(v)
            v = {lt: tail.pop(lt)}
            v.update(normal_form(tail, shared))
        out.append((lt, v))
    out.sort(key=itemgetter(0), reverse=True)
    return [v for _, v in out]


def reducer(gb: Sequence, nvars: int, p: int) -> _Basis:
    """The division structure of a reduced basis, for submodule_nf."""
    basis = _Basis(p, _layout(nvars))
    for g in gb:
        basis.add(g, max(g))
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
    The order ranks ambient positions above tracking ones.  So an element
    led in the tracking block has no ambient term and is a relation, and
    those generate all of them.  An element led in the ambient block
    keeps its lead when projected onto that block, and its tail holds
    only terms no lead divides: the projections are the reduced basis
    of the span, which is unique, in module_gb's descending lead order.
    """
    zero = (0,) * nvars
    embedded = [{**v, _pack((rank + i, zero)): 1} for i, v in enumerate(tracked)]
    embedded.extend(v for v in untracked if v)
    psh = _layout(nvars)[0]
    back = position_shift(-rank, nvars)
    syzygies, image = [], []
    for g in module_gb(embedded, nvars, p):
        # the lead comes first, and a lead in the tracking block leads no ambient term
        if next(iter(g)) >> psh <= -rank:
            syzygies.append({t + back: c for t, c in g.items()})
        else:
            image.append({t: c for t, c in g.items() if t >> psh > -rank})
    return syzygies, image
