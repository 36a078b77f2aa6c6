"""Certified level intervals for perfect complexes.

Each bound runs its own hypothesis checks and, when they pass, emits a
BoundCertificate.  level_interval minimalizes the complex, collects all
applicable certificates, and reports [max lower, min upper].  Exactness
is claimed only when the two meet.  lower > upper is an engine bug and
raises InternalInconsistencyError with the full certificate dump.  Bounds
reading R/I take I + J from the ring.  A sequence's J-normal entries
are read in one place, the row of R's sequence map, which is K's d_1:
FRANK reports them, beside the conormal relations R keeps for K's
sequence from the run of that map, and the trim returns them.

The homology of a Koszul complex is read off its trimmed sequence.  If
y lies in (f) + J, say y = a_1 f_1 + .. + a_r f_r mod J, the change of
basis e_y -> e_y - sum a_i e_(f_i) of the degree-one module carries
K(f, y) onto K(f, 0) = K(f) (x) K(0), and K(0) is R + R(-deg y)[1] with
zero differential; so K(f, y) = K(f) + K(f)[1](-deg y) (Bruns and
Herzog, Cohen-Macaulay Rings, 1.6.21).  Each entry the trim drops lies
in (kept) + J, and reordering a sequence permutes tensor factors, so
with d entries dropped H_i(K(seq)) is the sum over j = 0..d of
C(d, j) twisted copies of H_(i-j)(K(kept)).  Vanishing and I-power
torsion see neither twists nor finite sums: H_i(K(seq)) is nonzero
exactly when some H_k(K(kept)) with i - d <= k <= i is, and I-power
torsion exactly when each such nonzero H_k(K(kept)) is.  H_0 has j = 0
alone, and as a subquotient of R both H_0 have the same denominator,
(seq) + J = (kept) + J, held by its unique reduced basis, so the
TORSION_DIM witness read off either is the same.  So GAP, TORSION_DIM
and the H_0 check read H_i(K(seq)) through one reader, _homology_parts,
as those nonzero H_k of K(kept), R's own Koszul complex on the trim that
KOSZUL_TRIM reports; the homology of K(seq) is never computed.  Nor are
its differentials past d_1 built: each entry of its d_k is 0 or plus or
minus an entry of d_1, R's sequence map, and each entry of d_1 is one of
d_k's for k <= len(seq), so d_k has its entries in m, or is zero,
exactly when d_1 has or is; minimality and lb_gap read d_1 alone.

The trim makes no Groebner run of its own: it reads the kernel Z of
K(seq)'s d_1, R's sequence map, whose run FRANK and H_1 read too, by
graded Nakayama (Bruns and Herzog, 1.5).  Put I = (seq)R, V = I/mI and
v_j the image of f_j in V.  A relation sum c_j v_j = 0 over k says
that sum c_j f_j lies in mI + J, that is sum (c_j - a_j) f_j = 0 in R
for some a_j in m: the relations are the constant parts z(0) of the z
in Z, and as (r z)(0) = r(0) z(0), the constant parts of Z's generators
span them, the rows of a matrix C over F_p.  Let S be a set of entries
with (S) + J = (seq) + J, and i in S.  If f_i lies in (S minus i) + J,
the coefficients of degree zero give v_i in the span of the other v_j
of S.  Conversely such a span puts f_i - sum c_j f_j in mI + J =
m(S) + J, whose coefficients on the entries of S are homogeneous of
positive degree, so only entries of degree below deg f_i carry them
and f_i is not among them.  So f_i lies in (S minus i) + J exactly when
some relation supported in S has c_i != 0, that is when the column of
C at i is independent of the columns outside S.  Dropping entries only
shrinks S, so an entry kept once stays kept and one scan in order
drops what a scan restarted after each drop would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Sequence

from . import linalg
from .complexes import (ChainComplex, check_koszul_length, check_koszul_sequence,
                        koszul_complex, minimalize, sequence_map)
from .errors import InternalInconsistencyError, UsageError
from .gbcore import degree, pack
from .groebner import IdealData, ideal, ideal_intersection, krull_dim
from .invariants import edim, frank_conormal
from .modules import (
    FreeModule,
    ModMap,
    Subquotient,
    gamma_torsion,
    is_power_torsion,
    polyvec_from_vec,
)
from .polys import DEFAULT_CHAR, Poly, PolyRing
from .rings import QuotientRing

E_N_RANGE = "E_N_RANGE"


@dataclass
class BoundCertificate:
    kind: str
    value: int
    is_lower: bool
    evidence: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "bound": "lower" if self.is_lower else "upper",
            "evidence": self.evidence,
        }


@dataclass
class LevelReport:
    label: str
    lower: int
    upper: int
    exact: bool
    certificates: list

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "certificates": [c.as_dict() for c in self.certificates],
        }


def _require_minimal(F: ChainComplex):
    if not F.is_minimal():
        raise UsageError("bound requires a minimal complex; minimalize first")


def check_torsion_dim(F: ChainComplex, I: IdealData) -> Optional[BoundCertificate]:
    """Lower bound dim R - dim R/I + 1 from torsion homology.

    Hypotheses verified: every nonzero H_i, i >= 1, is I-power torsion,
    and H_0 has a minimal generator killed by a power of I (some element
    of the torsion submodule of H_0 survives in H_0 tensor k).  Returns
    None when any hypothesis fails.  H_i is I-power torsion exactly when
    each of its parts is (see _homology_parts), and a part shared by
    several degrees is checked once.
    """
    _require_minimal(F)
    R = F.ring
    total = R.extension(I.gens)
    parts = _homology_parts(F)
    h0 = next(parts(0), None)
    if h0 is None:
        return None
    torsion = cache(lambda H: is_power_torsion(H, I))
    degrees = []
    for i in range(1, F.hi + 1):
        nonzero = list(parts(i))
        if not all(map(torsion, nonzero)):
            return None
        if nonzero:
            degrees.append(i)
    witness = _torsion_generator_witness(h0, I)
    if witness is None:
        return None
    d_R, d_RI = R.dim(), krull_dim(total)
    return BoundCertificate(
        kind="TORSION_DIM",
        value=d_R - d_RI + 1,
        is_lower=True,
        evidence={
            "dim_R": d_R,
            "dim_RmodI": d_RI,
            "torsion_checks": [{"degree": i, "power_torsion": True} for i in degrees],
            "torsion_generator": [str(f) for f in witness],
        },
    )


def _homology_parts(F: ChainComplex):
    """i -> the nonzero H_k(B), i - d <= k <= i, whose copies sum to H_i(F) up to twist.

    For a Koszul complex that drops d entries B is R's K(kept) (see the
    module docstring); any other complex is its own B with d = 0.  The
    parts come lazily, so a caller that stops at the first computes no
    homology past it.
    """
    B, d = F, 0
    if F.koszul is not None:
        kept = trim_koszul_sequence(F.koszul, F.ring)
        if len(kept) < len(F.koszul):
            B, d = koszul_complex(kept, F.ring), len(F.koszul) - len(kept)
    return lambda i: (H for H in map(B.homology, range(max(i - d, 0), min(i, B.hi) + 1))
                      if not H.is_zero)


def _torsion_generator_witness(h0: Subquotient, I: IdealData):
    """A generator of the I-torsion of H_0 = F_0/D lying outside m*H_0, if any.

    gamma_torsion lists vectors of F_0 whose classes generate
    Gamma_I(H_0); one not contained in D + m*F_0 is exactly an element
    of Gamma_I(H_0) that survives in H_0 tensor k.  The complex is
    minimal and J is homogeneous and proper, so D lies in m*F_0 and
    D + m*F_0 = m*F_0: a candidate lies outside it exactly when it has a
    constant term, one of degree zero.  The witness comes back as one
    polynomial per coordinate, for the evidence.
    """
    n = h0.free.ring.nvars
    for v in gamma_torsion(h0.denom, I):
        if any(not degree(t, n) for t in v):
            return polyvec_from_vec(h0.free.ring.poly_ring, h0.free.rank, v)
    return None


def lb_gap(F: ChainComplex) -> Optional[BoundCertificate]:
    """Largest homology gap below a nonzero differential: b - a + 1.

    b is scanned downward, and the scan stops once even a = 0 cannot
    reach the best gap, so low homology that no larger gap needs is
    never computed.  Among equal gaps the smallest b is kept.  The
    d_b != 0 tests read F, d_1 alone for a Koszul complex (see the
    module docstring), and H_a is nonzero exactly when it has a part
    (see _homology_parts).
    """
    _require_minimal(F)
    parts = _homology_parts(F)
    best = None
    for b in range(F.hi, 0, -1):
        if best is not None and b + 1 < best[0]:
            break
        if F.diff(1 if F.koszul is not None else b).is_zero():
            continue
        for a in range(b - 1, -1, -1):
            if next(parts(a), None) is not None:
                if best is None or b - a + 1 >= best[0]:
                    best = (b - a + 1, a, b)
                break
    if best is None:
        return None
    value, a, b = best
    return BoundCertificate(
        kind="GAP",
        value=value,
        is_lower=True,
        evidence={"a": a, "b": b},
    )


def lb_frank_koszul(K: ChainComplex) -> BoundCertificate:
    """Free rank of the conormal module of a Koszul complex's sequence, plus one.

    K's d_1 is R's sequence map for K's sequence, whose row holds the
    entries' normal forms, so frank_conormal reads the kernel of the run
    homology also reads, and the relations and free rank that an
    invariants or lech task may already have made.
    """
    seq, fr = sequence_map(K.koszul, K.ring).rows[0], frank_conormal(K.koszul, K.ring)
    return BoundCertificate(
        kind="FRANK",
        value=fr + 1,
        is_lower=True,
        evidence={"frank_conormal": fr, "seq": [str(f) for f in seq]},
    )


def ub_length(F: ChainComplex) -> BoundCertificate:
    """Number of homological degrees spanned by the minimal complex."""
    _require_minimal(F)
    nz = F.nonzero_degrees()
    span = nz[-1] - nz[0] + 1 if nz else 0
    return BoundCertificate(
        kind="LENGTH_UB",
        value=span,
        is_lower=False,
        evidence={"ranks": [m.rank for m in F.modules]},
    )


def ub_edim_koszul(R: QuotientRing) -> BoundCertificate:
    e = edim(R)
    return BoundCertificate(
        kind="EDIM_UB", value=e + 1, is_lower=False, evidence={"edim": e}
    )


def trim_koszul_sequence(seq: Sequence[Poly], R: QuotientRing) -> tuple:
    """seq's normal forms mod J, less the entries lying in the ideal of the rest.

    The entries are scanned in order, and one lying in the ideal of the
    others not yet dropped, plus J, is dropped.  Each dropped entry lies
    in the ideal of the kept ones and those dropped after it, so every
    dropped entry lies in (kept) + J: K(seq) is K(kept) plus twisted
    copies of its shifts, and the levels agree.  Membership is read off
    the constant parts of the kernel of K(seq)'s d_1 by F_p rank (see
    the module docstring): entry i is dropped exactly when its column of
    constant parts is independent of the dropped entries' columns.  seq
    must pass check_koszul_sequence, as the argument needs its entries
    homogeneous of positive degree.  The kept normal forms are read off
    the row of that map.  R keeps the trim per sequence tuple.
    """
    def build():
        check_koszul_sequence(seq, R)
        zero = (0,) * R.nvars
        d1 = sequence_map(seq, R)
        kernel = d1.kernel_and_image[0]
        consts = [[z.get(pack(j, zero), 0) for j in range(len(seq))] for z in kernel]
        dropped: list = []
        for i in range(len(seq)):
            cols = dropped + [i]
            if linalg.rank([[row[j] for j in cols] for row in consts], R.char) == len(cols):
                dropped.append(i)
        return tuple(f for i, f in enumerate(d1.rows[0]) if i not in dropped)

    return R.owned(("trim", tuple(seq)), build)


def ub_koszul_trim(seq: Sequence[Poly], R: QuotientRing) -> BoundCertificate:
    kept = trim_koszul_sequence(seq, R)
    return BoundCertificate(
        kind="KOSZUL_TRIM",
        value=len(kept) + 1,
        is_lower=False,
        evidence={
            "kept": [str(f) for f in kept],
            "dropped_count": len(seq) - len(kept),
        },
    )


def level_interval(
    F: ChainComplex,
    I: Optional[IdealData] = None,
    label: str = "complex",
) -> LevelReport:
    """Certified interval for the level of F, optionally using I."""
    M = minimalize(F)
    certs = []
    if M.is_zero_complex():
        certs.append(ub_length(M))
        return LevelReport(label=label, lower=0, upper=0, exact=True, certificates=certs)
    if next(_homology_parts(M)(0), None) is None:
        raise InternalInconsistencyError(
            "minimal nonzero complex with vanishing bottom homology"
        )
    certs.append(
        BoundCertificate(
            kind="NONZERO",
            value=1,
            is_lower=True,
            evidence={"nonzero_homology_degree": 0},
        )
    )
    gap = lb_gap(M)
    if gap is not None:
        certs.append(gap)
    if I is not None:
        td = check_torsion_dim(M, I)
        if td is not None:
            certs.append(td)
    if M.koszul is not None:
        certs.append(lb_frank_koszul(M))
        certs.append(ub_edim_koszul(M.ring))
        certs.append(ub_koszul_trim(M.koszul, M.ring))
    certs.append(ub_length(M))
    lower = max(c.value for c in certs if c.is_lower)
    upper = min(c.value for c in certs if not c.is_lower)
    if lower > upper:
        dump = json.dumps([c.as_dict() for c in certs], sort_keys=True)
        raise InternalInconsistencyError(
            f"certified lower bound {lower} exceeds upper bound {upper}: {dump}"
        )
    return LevelReport(
        label=label,
        lower=lower,
        upper=upper,
        exact=lower == upper,
        certificates=certs,
    )


# ---------------------------------------------------------------------------
# the factor-through-torsion example


@dataclass
class FactorizationReport:
    n: int
    checks: list
    passed: bool

    def __bool__(self) -> bool:
        return self.passed

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "checks": [{"name": k, "ok": v} for k, v in self.checks],
            "passed": self.passed,
        }


def verify_factorization_example(
    n: int,
    char: int = DEFAULT_CHAR,
    ring: Optional[QuotientRing] = None,
) -> FactorizationReport:
    """Check the multiplication-by-x1 factorization through K(x2..xn; R).

    Over R = k[x1..xn]/((x1) meet (x2..xn)) the maps alpha: R -> K
    (identity into degree 0) and beta: K -> R(1) (x1 on degree 0) are
    chain maps whose composite is multiplication by x1, and the positive
    Koszul homology is (x2..xn)-power torsion.  Each map has one nonzero
    component, so the map identities are checked on those directly:
    beta_0 . d_1 = 0 and beta_0 . alpha_0 = x1 as maps R -> R(1), where
    R(1) has its generator in degree -1, so that x1 has degree zero as a
    map.  Passing a ring overrides the quotient construction; over the
    plain polynomial ring beta_0 . d_1 = x1*(x2..xn) is not zero, which
    is the point of the quotient.
    """
    if n < 3:
        raise UsageError(f"{E_N_RANGE}: factorization example needs n >= 3")
    # refuse K(x2..xn) past the cap before building the ring it lives over
    check_koszul_length(n - 1)
    P = PolyRing(n, char)
    xs = P.variables()
    if ring is None:
        defining = ideal_intersection(ideal(P, [xs[0]]), ideal(P, list(xs[1:])))
        R = QuotientRing(defining)
    else:
        if ring.poly_ring != P:
            raise UsageError("supplied ring must live over the same polynomial ring")
        R = ring
    tail = ideal(P, list(xs[1:]))
    K = koszul_complex(list(xs[1:]), R)
    R0, R1 = FreeModule(R, (0,)), FreeModule(R, (-1,))
    alpha0 = ModMap.from_rows(R0, K.modules[0], [[P.one()]])
    beta0 = ModMap.from_rows(K.modules[0], R1, [[xs[0]]])
    # A chain map's squares sit at its source's degrees 1..hi.  alpha's
    # source R has nothing in degree 1 (hi = 0), so alpha has no square
    # and is a chain map by shape.  R has nothing in degree 1 or above
    # either, so of beta's squares only beta_0 . d_1 = 0 has a nonzero side.
    checks = [
        ("alpha_chain_map", True),
        ("beta_chain_map", beta0.compose(K.diff(1)).is_zero()),
        ("composite_is_x1",
         beta0.compose(alpha0) == ModMap.from_rows(R0, R1, [[xs[0]]])),
    ]
    checks.append(("positive_homology_torsion",
                   all(is_power_torsion(H, tail) for H in map(K.homology, range(1, K.hi + 1))
                       if not H.is_zero)))
    return FactorizationReport(n=n, checks=checks, passed=all(v for _, v in checks))
