"""Invariant suites: fast re-statements of the pipeline's certificates
plus randomized property checks over every layer.

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

from . import cartan, homology, laurent, linalg, oracles
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
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[exps] = rng.randint(-coeff, coeff)
    return LaurentPoly(nvars, terms)


# --- fast level: re-state what the pipeline already certified ---------------

def fast_checks(run) -> list[CheckResult]:
    """Type-level certifications, re-stated from a finished pipeline run.

    ``run`` carries datum/weyl/chars/module/chain_complex/homology/ring/
    certificate (see the command-line driver).  These checks recompute
    nothing heavy; they assert the certified facts and the closed-form
    cross-checks.
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
            coords = run.homology[0].reduce(linalg.as_int_array(module.unit_coords))
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


def check_word_independence(datum, weyl, seed: int = DEFAULT_SEED) -> CheckResult:
    """Every reduced word of the longest element gives the same composite
    operator.  Full enumeration — intended for rank <= 3."""
    def body():
        polys = 4
        words = cartan.reduced_words(weyl)
        rng = random.Random(seed)
        for _ in range(polys):
            f = _random_poly(rng, datum.rank, max_terms=3, span=2, coeff=5)
            images = {laurent.demazure_word(datum, word, f) for word in words}
            if len(images) != 1:
                raise AssertionError(f"{len(images)} distinct images on {f}")
        return {"words": len(words), "polys": polys}
    return _guard("longest-word-independence", body)


def check_decompose_roundtrip(nvars: int, seed: int = DEFAULT_SEED) -> CheckResult:
    """decompose_augmentation_ideal must reassemble its input exactly."""
    def body():
        trials = 120
        rng = random.Random(seed)
        for _ in range(trials):
            f = _random_poly(rng, nvars)
            f = f - laurent.augmentation(f)
            cofactors = laurent.decompose_augmentation_ideal(f)
            total = LaurentPoly.zero(nvars)
            for j, cof in enumerate(cofactors):
                step = tuple(int(k == j) for k in range(nvars))
                total = total + cof * (LaurentPoly.monomial(step) - 1)
            if total != f:
                raise AssertionError(f"roundtrip failed on {f}")
        return {"trials": trials}
    return _guard("ideal-decompose-roundtrip", body)


def check_pairing_routes(datum, weyl, seed: int = DEFAULT_SEED) -> CheckResult:
    """The Demazure pairing and its closed form agree on random monomials."""
    def body():
        from . import flagk
        trials = 40
        rng = random.Random(seed)
        n = datum.rank
        for _ in range(trials):
            a = LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(n)),
                                     rng.randint(-3, 3) or 1)
            b = LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(n)),
                                     rng.randint(-3, 3) or 1)
            slow = flagk.pairing(datum, weyl, a, b)
            fast = flagk.pairing_bilinear(datum, a, b)
            if slow != fast:
                raise AssertionError(f"{slow} != {fast} on {a}, {b}")
        return {"trials": trials}
    return _guard("pairing-route-agreement", body)


def check_character_dimensions(datum, chars) -> CheckResult:
    """Character augmentations equal the dimension formula's values."""
    def body():
        n = datum.rank
        for i, chi in enumerate(chars.chars):
            omega = tuple(int(j == i) for j in range(n))
            expected = laurent.weyl_dimension(datum, omega)
            got = laurent.augmentation(chi)
            if got != expected or chars.dims[i] != expected:
                raise AssertionError(f"character {i}: {got} vs {expected}")
        return {"characters": n}
    return _guard("character-dimension-formula", body)


def check_smith_random(seed: int = DEFAULT_SEED) -> CheckResult:
    """Smith decompositions on random shapes, audited exactly; includes
    zero, empty, and deliberately oversized-entry matrices."""
    def body():
        trials = 60
        rng = np.random.default_rng(seed)
        shapes = [(0, 4), (4, 0), (1, 1), (3, 3)]
        shapes += [tuple(int(x) for x in rng.integers(1, 9, size=2))
                   for _ in range(trials - len(shapes))]
        for k, shape in enumerate(shapes):
            a = rng.integers(-20, 21, size=shape).astype(np.int64)
            if k % 7 == 3:
                a = a * (10 ** 14)  # push the transforms past int64
            sm = linalg.smith(a)
            # exact below 400 rows: U U^-1 = I and V V^-1 = I force det = +-1
            linalg.audit_smith(a, sm)
        return {"matrices": len(shapes)}
    return _guard("smith-reconstruction-random", body)


def check_boundary_squares(cx) -> CheckResult:
    """d composed with d vanishes on the constructed complex."""
    def body():
        for p in range(1, cx.length + 1):
            prod = linalg.dot_exact(cx.boundary(p), cx.boundary(p + 1))
            if np.any(prod):
                raise AssertionError(f"d d != 0 into degree {p - 1}")
        return {"degrees": cx.length + 1}
    return _guard("boundary-squares-zero", body)


def check_ext_mirror(cx, homres) -> CheckResult:
    """Dual-complex cohomology table equals the homology table reversed."""
    def body():
        ext = homology.ext_via_cochain(cx)
        hom_table = [(h.betti, h.torsion) for h in homres]
        ext_table = [(h.betti, h.torsion) for h in ext]
        if ext_table != list(reversed(hom_table)):
            raise AssertionError(f"{ext_table} vs reversed {hom_table}")
        return {"table": [b for b, _ in ext_table]}
    return _guard("ext-mirrors-tor", body)


def check_rational_oracle(datum, weyl, chars, module) -> CheckResult:
    """Truncated-series quotient agrees on dimension and on every
    multiplication operator's characteristic polynomial (rank <= 2)."""
    def body():
        cutoff = cartan.positive_root_count(datum.ctype)
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
    """a*b = (-1)^{pq} b*a in homology coordinates for random products
    of the degree-1 generators."""
    def body():
        from . import torring
        trials = 8
        rng = random.Random(seed)
        ring, module, homres = run.ring, run.module, run.homology
        n = module.datum.rank
        gens = ring.generators
        for _ in range(trials):
            p = rng.randint(1, max(1, n - 1))
            q = rng.randint(1, max(1, n - p))
            a = gens[rng.randrange(n)]
            for _ in range(p - 1):
                a = torring.chain_product(a, gens[rng.randrange(n)], module, homres)
            b = gens[rng.randrange(n)]
            for _ in range(q - 1):
                b = torring.chain_product(b, gens[rng.randrange(n)], module, homres)
            ab = torring.chain_product(a, b, module, homres)
            ba = torring.chain_product(b, a, module, homres)
            sign = -1 if (p * q) % 2 else 1
            if not np.array_equal(ab.homology_coords, sign * ba.homology_coords):
                raise AssertionError(f"graded commutativity fails at ({p},{q})")
        return {"trials": trials}
    return _guard("graded-commutativity", body)


def property_checks(run, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The full randomized suite for one pipeline run."""
    datum, weyl = run.datum, run.weyl
    checks = []
    checks += check_demazure_properties(datum, seed=seed)
    if datum.rank <= 3:
        checks.append(check_word_independence(datum, weyl, seed=seed))
    checks.append(check_decompose_roundtrip(datum.rank, seed=seed))
    checks.append(check_pairing_routes(datum, weyl, seed=seed))
    checks.append(check_character_dimensions(datum, run.chars))
    checks.append(check_smith_random(seed=seed))
    checks.append(check_boundary_squares(run.chain_complex))
    checks.append(check_ext_mirror(run.chain_complex, run.homology))
    if datum.rank <= 2:
        checks.append(check_rational_oracle(datum, weyl, run.chars, run.module))
    if run.ring is not None:
        checks.append(check_graded_commutativity(run, seed=seed))
    return checks
