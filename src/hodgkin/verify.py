"""Invariant suites: fast re-statements of the pipeline's certificates
plus randomized property checks, every one about the run's own type.
Checks of the library that hold whatever the type are unit tests.

Each check returns a :class:`CheckResult` instead of raising, so a
driver can print a full pass/fail table even after a failure.  The
random suites draw from seeded generators — reruns test the same
inputs, and failures are reproducible by seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

import numpy as np

from . import cartan, laurent, linalg, oracles
from .errors import EngineError
from .laurent import LaurentPoly

#: Seed for all randomized suites; reruns exercise identical inputs.
DEFAULT_SEED = 20240822


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _guard(name: str, fn) -> CheckResult:
    """Run one check body; any engine error or assertion becomes a failure."""
    try:
        witness = fn()
    except (EngineError, AssertionError, ValueError) as exc:
        return CheckResult(name, False, {"error": str(exc)})
    return CheckResult(name, True, witness)


def _random_poly(rng: random.Random, nvars: int, max_terms: int = 5,
                 span: int = 3, coeff: int = 9) -> LaurentPoly:
    """Never zero, so no trial is vacuous: coefficients are +-[1, coeff]."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[exps] = rng.choice((-1, 1)) * rng.randint(1, coeff)
    return LaurentPoly(nvars, terms)


# --- fast level: re-state what the pipeline already certified ---------------

def fast_checks(run) -> list[CheckResult]:
    """Type-level certifications, re-stated from a finished pipeline run.

    ``run`` carries datum/weyl/chars/module/chain_complex/homology/
    generators/certificate (see the command-line driver).  These checks
    recompute nothing heavy; they assert the certified facts and the
    closed-form cross-checks.
    """
    datum, weyl, module = run.datum, run.weyl, run.module
    n = datum.rank

    def weyl_order_closed_form():
        if weyl.order != cartan.weyl_order(datum.ctype):
            raise AssertionError(f"generated order {weyl.order}")
        return {"order": weyl.order}

    def gram_unimodular():
        if module.gram_det not in (1, -1):
            raise AssertionError(f"determinant {module.gram_det}")
        return {"determinant": module.gram_det, "basis": module.basis_source}

    checks = [_guard("weyl-order-closed-form", weyl_order_closed_form),
              _guard("gram-unimodular", gram_unimodular)]

    if run.homology is not None:
        betti = [h.betti for h in run.homology]
        torsion = [list(h.torsion) for h in run.homology]

        def unit_class():
            coords = run.homology[0].reduce(module.unit_coords)
            if abs(int(coords[0])) != 1:
                raise AssertionError("unit does not generate degree 0")
            return None

        def tor_rank():
            if betti != [comb(n, p) for p in range(n + 1)]:
                raise AssertionError(f"ranks {betti}")
            return {"ranks": betti}

        def tor_torsion_free():
            if any(torsion):
                raise AssertionError(f"torsion {torsion}")
            return None

        def k_rank_parity():
            k0 = sum(b for p, b in enumerate(betti) if p % 2 == 0)
            k1 = sum(b for p, b in enumerate(betti) if p % 2 == 1)
            if not k0 == k1 == 2 ** (n - 1):
                raise AssertionError(f"k0 {k0}, k1 {k1}")
            return {"k0": k0, "k1": k1}

        checks += [_guard("unit-class", unit_class),
                   _guard("tor-rank", tor_rank),
                   _guard("tor-torsion-free", tor_torsion_free),
                   _guard("k-rank-parity", k_rank_parity)]

    if run.certificate is not None:
        dets = list(run.certificate.dets)

        def exterior_dets():
            if any(d not in (1, -1) for d in dets):
                raise AssertionError(f"determinants {dets}")
            return {"determinants": dets}

        checks.append(_guard("exterior-change-of-basis", exterior_dets))

    if str(datum.ctype) == "A1":
        def a1_gram_golden():
            if module.gram.tolist() != [[1, 2], [2, 3]]:
                raise AssertionError(f"gram {module.gram.tolist()}")
            return None

        def a1_mult_golden():
            if module.mult_matrices[0].tolist() != [[0, -1], [1, 2]]:
                raise AssertionError(f"matrix {module.mult_matrices[0].tolist()}")
            return None

        checks += [_guard("a1-gram-golden", a1_gram_golden),
                   _guard("a1-mult-golden", a1_mult_golden)]
    return checks


# --- full level: randomized property suites ---------------------------------

def check_demazure_properties(datum, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Idempotence and reflection-invariance of each divided-difference
    operator on random Laurent polynomials."""
    rng = random.Random(seed)
    n = datum.rank
    trials = 120

    def idempotent():
        for _ in range(trials):
            i = rng.randrange(n)
            f = _random_poly(rng, n)
            once = laurent.demazure(datum, i, f)
            if laurent.demazure(datum, i, once) != once:
                raise AssertionError(f"not idempotent at generator {i} on {f}")
        return {"trials": trials}

    def invariant():
        for _ in range(trials):
            i = rng.randrange(n)
            f = _random_poly(rng, n)
            once = laurent.demazure(datum, i, f)
            s_i = cartan.simple_reflection(datum, i)
            if laurent.weyl_act(s_i, once) != once:
                raise AssertionError(f"not reflection-invariant at {i} on {f}")
        return {"trials": trials}

    return [_guard("demazure-idempotent", idempotent),
            _guard("demazure-reflection-invariant", invariant)]


def check_braid_relations(datum, seed: int = DEFAULT_SEED) -> CheckResult:
    """pi_i pi_j pi_i ... = pi_j pi_i pi_j ..., m_ij factors a side, for
    every pair i < j on random polynomials.

    m_ij is 2, 3, 4 or 6 as a_ij a_ji is 0, 1, 2 or 3.  By Matsumoto's
    theorem braid moves join any two reduced words of a Weyl element, so
    these relations say that D_{w0}, which the characters and the
    pairing apply along one reduced word, does not depend on the word.
    """
    def body():
        polys = 4
        n, a = datum.rank, datum.cartan_matrix
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng = random.Random(seed)
        for _ in range(polys):
            f = _random_poly(rng, n, max_terms=3, span=2, coeff=5)
            for i, j in pairs:
                m = (2, 3, 4, 6)[a[i][j] * a[j][i]]
                left = laurent.demazure_word(datum, ((i, j) * m)[:m], f)
                right = laurent.demazure_word(datum, ((j, i) * m)[:m], f)
                if left != right:
                    raise AssertionError(f"braid relation fails at pair {(i, j)} on {f}")
        return {"pairs": len(pairs), "polys": polys}
    return _guard("demazure-braid-relations", body)


def check_pairing_routes(datum, weyl, seed: int = DEFAULT_SEED) -> CheckResult:
    """The Demazure pairing agrees on random monomials with the weight
    grid that the module's Gram matrix and operators are built from."""
    def body():
        from . import flagk
        trials = 40
        rng = random.Random(seed)
        n = datum.rank
        for _ in range(trials):
            la, ca = tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 3) or 1
            mu, cb = tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 3) or 1
            a, b = LaurentPoly.monomial(la, ca), LaurentPoly.monomial(mu, cb)
            slow = flagk.pairing(datum, weyl, a, b)
            grid = ca * cb * int(laurent.weight_dimension_grid(datum, [la], [mu])[0, 0])
            if slow != grid:
                raise AssertionError(f"{slow} != {grid} on {a}, {b}")
        return {"trials": trials}
    return _guard("pairing-route-agreement", body)


def check_boundary_squares(cx) -> CheckResult:
    """d composed with d vanishes on the constructed complex."""
    def body():
        for p in range(1, cx.length + 1):
            prod = linalg.dot_exact(cx.boundary(p), cx.boundary(p + 1))
            if np.any(prod):
                raise AssertionError(f"d d != 0 into degree {p - 1}")
        return {"degrees": cx.length + 1}
    return _guard("boundary-squares-zero", body)


def check_betti_mod2(cx, homres) -> CheckResult:
    """Betti numbers from ranks over F_2 equal the certified ones.

    With r_p = rank_mod2(d_p), dim C_p - r_p - r_{p+1} must be b_p at
    every p.  As r_p <= rank_F2 d_p <= rank_Q d_p, that forces r_p =
    rank_Q d_p at every p: the table's ranks again, by an elimination
    that shares nothing with the certificate, and no H_p has 2-torsion.
    """
    def body():
        ranks = [linalg.rank_mod2(cx.boundary(p)) for p in range(cx.length + 2)]
        mod2 = [cx.ranks[p] - ranks[p] - ranks[p + 1] for p in range(cx.length + 1)]
        certified = [h.betti for h in homres]
        if mod2 != certified:
            raise AssertionError(f"mod 2 {mod2} vs certified {certified}")
        return {"betti": mod2}
    return _guard("betti-mod-2", body)


def check_rational_oracle(datum, weyl, chars, module) -> CheckResult:
    """Truncated-series quotient agrees on dimension and on every
    multiplication operator's characteristic polynomial (rank <= 2)."""
    def body():
        cutoff = len(cartan.positive_roots(datum))
        quotient = oracles.truncated_quotient(chars.relators, datum.rank, cutoff)
        if quotient.dim != weyl.order:
            raise AssertionError(f"quotient dim {quotient.dim} != {weyl.order}")
        for i in range(datum.rank):
            ours = oracles.charpoly(module.mult_matrices[i])
            theirs = oracles.charpoly(quotient.mult_ops[i])
            if ours != theirs:
                raise AssertionError(f"charpoly mismatch for generator {i}")
        return {"dim": quotient.dim, "cutoff": cutoff}
    return _guard("rational-series-oracle", body)


def check_graded_commutativity(run, seed: int = DEFAULT_SEED) -> CheckResult:
    """a*b = (-1)^{pq} b*a on chains, where a is a random module element
    (p = 0) or a random product of p degree-1 generators, and b a random
    product of q >= 1 of them: the Koszul product over a commutative
    module is graded-commutative on chains, not only in homology."""
    def body():
        from . import torring
        trials = 8
        rng = random.Random(seed)
        gens, module = run.generators, run.module
        n = module.datum.rank

        def word(k):
            out = gens[rng.randrange(n)]
            for _ in range(k - 1):
                out = torring.chain_product(out, gens[rng.randrange(n)], module)
            return out

        for _ in range(trials):
            p = rng.randint(0, n - 1)
            q = rng.randint(1, n - p)
            if p == 0:  # a module element
                coords = [rng.randint(-3, 3) or 1 for _ in range(module.rank)]
                a = torring.TorClass(0, np.array(coords, dtype=np.int64))
            else:
                a = word(p)
            b = word(q)
            ab = torring.chain_product(a, b, module)
            ba = torring.chain_product(b, a, module)
            sign = -1 if (p * q) % 2 else 1
            if not np.array_equal(ab.chain, sign * ba.chain):
                raise AssertionError(f"graded commutativity fails at ({p},{q})")
        return {"trials": trials}
    return _guard("graded-commutativity", body)


def property_checks(run, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The full randomized suite for one pipeline run: each row checks
    the run's own type, its operators, pairing, complex or generators.
    Its one rank gate is the rational series oracle's: exact
    ``Fraction`` arithmetic grows too costly past rank 2."""
    datum, weyl = run.datum, run.weyl
    checks = []
    checks += check_demazure_properties(datum, seed=seed)
    checks.append(check_braid_relations(datum, seed=seed))
    checks.append(check_pairing_routes(datum, weyl, seed=seed))
    checks.append(check_boundary_squares(run.chain_complex))
    checks.append(check_betti_mod2(run.chain_complex, run.homology))
    if datum.rank <= 2:
        checks.append(check_rational_oracle(datum, weyl, run.chars, run.module))
    if run.generators is not None:
        checks.append(check_graded_commutativity(run, seed=seed))
    return checks
