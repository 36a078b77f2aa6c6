"""Built-in example battery over the intersection-ideal families.

Every check is parameterized by the variable count n and compares
computed values against a hardcoded expected table.  A final pair of
spot checks reruns two of them at characteristic 2 to confirm the sign
conventions do not depend on the field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import hom_complex, koszul_complex, minimalize
from .errors import InternalInconsistencyError, UsageError
from .groebner import ideal, ideal_intersection
from .invariants import bigheight_monomial, depth_ring, dims
from .level import E_N_RANGE, check_torsion_dim, level_interval, verify_factorization_example
from .polys import DEFAULT_CHAR, PolyRing
from .rings import QuotientRing


@dataclass
class SuiteResult:
    n: int
    char: int
    checks: list  # (name, ok, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list:
        out = []
        for name, ok, detail in self.checks:
            out.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        out.append(
            f"{'PASS' if self.passed else 'FAIL'} suite n={self.n} p={self.char}: "
            f"{sum(1 for _, ok, _ in self.checks if ok)}/{len(self.checks)} checks"
        )
        return out

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "char": self.char,
            "passed": self.passed,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks],
        }


def _intersection_ideal(P: PolyRing):
    xs = P.variables()
    return ideal_intersection(ideal(P, [xs[0]]), ideal(P, list(xs[1:])))


def run_suite(n: int, char: int = DEFAULT_CHAR) -> SuiteResult:
    if not 3 <= n <= 6:
        raise UsageError(f"{E_N_RANGE}: suite runs for 3 <= n <= 6")
    checks = []

    def record(name, fn):
        try:
            ok, detail = fn()
        except InternalInconsistencyError:
            raise  # an interval inversion aborts the run with exit 3
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"error: {exc}"
        checks.append((name, ok, detail))

    P = PolyRing(n, char)
    xs = P.variables()
    R_free = QuotientRing.free(P)
    I_meet = _intersection_ideal(P)
    # family B's ring, shared by the checks over it and the factorization example
    RB = QuotientRing(I_meet)

    # partial systems of parameters: exact level m + 1
    for m in range(1, min(n, 4) + 1):
        def psop_check(m=m):
            seq = list(xs[:m])
            rep = level_interval(
                koszul_complex(seq, R_free), I=ideal(P, seq), label=f"koszul(x1..x{m})"
            )
            want = m + 1
            ok = rep.exact and rep.lower == want
            return ok, f"interval [{rep.lower},{rep.upper}] want exact {want}"

        record(f"psop_exact_m{m}", psop_check)

    def artinian_check():
        P2 = PolyRing(2, char)
        a, b = P2.variables()
        R = QuotientRing(ideal(P2, [a * a, a * b, b * b * b]))
        rep = level_interval(
            koszul_complex([a, b], R), I=ideal(P2, [a, b]), label="koszul(m)"
        )
        fr = [c for c in rep.certificates if c.kind == "FRANK"]
        ok = rep.exact and rep.lower == 3 and bool(fr) and fr[0].value == 3
        return ok, f"interval [{rep.lower},{rep.upper}], frank cert {fr[0].value if fr else None}"

    record("artinian_maximal_ideal_level", artinian_check)

    def regular_pair_check():
        P2 = PolyRing(2, char)
        a, b = P2.variables()
        R = QuotientRing.free(P2)
        rep = level_interval(koszul_complex([a * a, b * b], R), label="koszul(x^2,y^2)")
        fr = [c for c in rep.certificates if c.kind == "FRANK"]
        ok = rep.exact and rep.lower == 3 and bool(fr) and fr[0].value == 3
        return ok, f"interval [{rep.lower},{rep.upper}]"

    record("regular_pair_level", regular_pair_check)

    def torsion_dim_check():
        K = minimalize(koszul_complex(list(I_meet.gens), R_free))
        cert = check_torsion_dim(K, I_meet)
        if cert is None:
            return False, "hypotheses failed, no certificate"
        hyp = all(t["power_torsion"] for t in cert.evidence["torsion_checks"])
        ok = cert.value == 2 and hyp
        return ok, f"value {cert.value} want 2, torsion hypotheses {hyp}"

    record("torsion_dim_certificate", torsion_dim_check)

    def family_a_check():
        d_R, d_RI = dims(I_meet, R_free)
        bh = bigheight_monomial(I_meet, R_free)
        ok = d_R - d_RI == 1 and bh == n - 1
        return ok, f"dims diff {d_R - d_RI} want 1, bigheight {bh} want {n - 1}"

    record("family_a_dims_bigheight", family_a_check)

    def family_b_check():
        IB = ideal(P, list(xs[1:]))
        d_R, d_RI = dims(IB, RB)
        bh = bigheight_monomial(IB, RB)
        ok = d_R - d_RI == n - 2 and bh == 0
        return ok, f"dims diff {d_R - d_RI} want {n - 2}, bigheight {bh} want 0"

    record("family_b_dims_bigheight", family_b_check)

    def remark_check():
        rep = level_interval(koszul_complex([xs[0]], R_free), I=I_meet, label="koszul(x1)")
        values = sorted({c.value for c in rep.certificates})
        ok = rep.exact and rep.lower == 2 and n not in values
        return ok, f"interval [{rep.lower},{rep.upper}], cert values {values} must avoid {n}"

    record("remark_no_bigheight_level", remark_check)

    def factorization_check():
        fr = verify_factorization_example(n, char, ring=RB)
        failed = [name for name, ok in fr.checks if not ok]
        return fr.passed, f"checks failed: {failed}" if failed else "all chain map checks hold"

    record("factorization_example", factorization_check)

    def hom_self_check():
        K = koszul_complex([xs[0]], RB)
        rep = level_interval(hom_complex(K, K), label="hom(koszul(x1),koszul(x1))")
        ok = rep.exact and rep.lower == 2
        return ok, f"interval [{rep.lower},{rep.upper}] want exact 2"

    record("hom_self_level", hom_self_check)

    def depth_check():
        P2 = PolyRing(2, char)
        a, b = P2.variables()
        vals = (
            depth_ring(QuotientRing.free(P2)),
            depth_ring(QuotientRing(ideal(P2, [a * b]))),
            depth_ring(QuotientRing(ideal(P2, [a * a, a * b]))),
        )
        return vals == (2, 1, 0), f"depths {vals} want (2, 1, 0)"

    record("depth_profile", depth_check)

    if char != 2:
        def char2_regular_check():
            P2 = PolyRing(2, 2)
            a, b = P2.variables()
            rep = level_interval(koszul_complex([a, b], QuotientRing.free(P2)))
            return rep.exact and rep.lower == 3, f"interval [{rep.lower},{rep.upper}] at p=2"

        record("char2_regular_pair", char2_regular_check)

        def char2_factorization_check():
            fr = verify_factorization_example(3, 2)
            return fr.passed, "factorization at p=2"

        record("char2_factorization", char2_factorization_check)

    return SuiteResult(n=n, char=char, checks=checks)
