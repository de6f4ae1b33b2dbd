"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints one CRITERION line; run with -v (or -s) to see them.
All arithmetic is exact, so every tolerance here is equality.
"""

from fractions import Fraction
from math import comb

from hodgkin import cartan, homology, laurent, oracles, verify

ALL_TYPES = ("A1", "A2", "A3", "B2", "G2", "A1xA1", "B3", "C3", "A4", "D4")
BIG_TYPES = {"A4": 300.0, "D4": 300.0}
SMALL_BUDGET_SECONDS = 10.0

WEYL_CLOSED_FORMS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "C3": 48,
    "D4": 192, "G2": 12, "A1xA1": 4, "F4": 1152, "E6": 51840,
    "E7": 2903040, "E8": 696729600,
}


def _conclude(number: int, label: str) -> None:
    print(f"CRITERION {number} ({label}): PASS")


def test_criterion_1_tor_ranks_and_budgets(pipeline, wall_times):
    for name in ALL_TYPES:
        run = pipeline(name)
        n = run.datum.rank
        betti = [h.betti for h in run.homology]
        assert betti == [comb(n, p) for p in range(n + 1)], name
        assert all(h.torsion == () for h in run.homology), name
        budget = BIG_TYPES.get(name, SMALL_BUDGET_SECONDS)
        assert wall_times[name] <= budget, \
            f"{name} took {wall_times[name]:.1f}s (budget {budget}s)"
    _conclude(1, "tor ranks, no torsion, in budget")


def test_criterion_2_k_theory_ranks(pipeline):
    for name in ALL_TYPES:
        run = pipeline(name)
        n = run.datum.rank
        betti = [h.betti for h in run.homology]
        k0 = sum(b for p, b in enumerate(betti) if p % 2 == 0)
        k1 = sum(b for p, b in enumerate(betti) if p % 2 == 1)
        assert k0 == k1 == 2 ** (n - 1), name
    _conclude(2, "k0 = k1 = 2^(n-1)")


def test_criterion_3_free_basis_certificate(pipeline):
    for name in ALL_TYPES:
        module = pipeline(name).module
        assert module.gram_det in (1, -1), name
        assert module.rank == pipeline(name).weyl.order, name
    a1 = pipeline("A1").module
    assert a1.gram.tolist() == [[1, 2], [2, 3]]   # hand-derived value
    assert a1.gram_det == -1
    _conclude(3, "unimodular basis certificate, A1 golden")


def test_criterion_4_exterior_algebra_certified(pipeline):
    for name in ALL_TYPES:
        run = pipeline(name)
        n = run.datum.rank
        cert = run.certificate
        assert cert is not None, name
        assert all(d in (1, -1) for d in cert.dets), name
        assert len(cert.dets) == n + 1, name
    _conclude(4, "exterior algebra on n odd generators")


def test_criterion_5_cohomology_duality(pipeline):
    for name in ALL_TYPES:
        run = pipeline(name)
        cx = run.chain_complex
        # the dual complex: transposed maps, degrees reversed
        dual = homology.ChainComplex(ranks=cx.ranks[::-1],
                                     maps=tuple(m.T for m in cx.maps[::-1]))
        ext = homology.homology_of(dual)[::-1]
        betti = [h.betti for h in run.homology]
        assert [e.betti for e in ext] == betti, name
        assert all(e.torsion == () for e in ext), name
    _conclude(5, "cochain ranks mirror chain ranks")


def test_criterion_6_independent_oracles(pipeline):
    # hand oracle: the one multiplication matrix of the rank-one case
    a1 = pipeline("A1").module
    assert a1.mult_matrices[0].tolist() == [[0, -1], [1, 2]]
    # rational power-series oracle for every rank-2 type
    for name in ("A2", "B2", "G2", "A1xA1"):
        run = pipeline(name)
        cutoff = len(cartan.positive_roots(run.datum))
        quo = oracles.truncated_quotient(run.chars.relators,
                                         run.datum.rank, cutoff)
        assert quo.dim == run.weyl.order, name
        for series_op, matrix in zip(quo.mult_ops, run.module.mult_matrices):
            want = tuple(Fraction(int(c)) for c in
                         oracles.charpoly(matrix.astype(object)))
            assert oracles.charpoly(series_op) == want, name
    _conclude(6, "hand and power-series oracles agree")


def test_criterion_7_property_suites(pipeline):
    failures, demazure_witnesses, braid_witnesses = [], [], {}
    for name in ALL_TYPES:
        run = pipeline(name)
        results = verify.check_demazure_properties(run.datum)
        demazure_witnesses += [r.witness for r in results]
        results.append(verify.check_boundary_squares(run.chain_complex))
        results.append(verify.check_braid_relations(run.datum))
        braid_witnesses[name] = results[-1].witness
        if run.datum.rank <= 3:
            results.append(verify.check_pairing_routes(run.datum, run.weyl))
        failures += [(name, r.name, r.witness) for r in results if not r.passed]
    assert failures == [], failures
    # the suites ran their full counts: 120 random polynomials per
    # Demazure property, 4 on every pair of generators for the braid
    # relations
    assert demazure_witnesses == [{"trials": 120}] * (2 * len(ALL_TYPES))
    assert braid_witnesses == {
        name: {"pairs": comb(pipeline(name).datum.rank, 2), "polys": 4}
        for name in ALL_TYPES}
    _conclude(7, "randomized property suites, zero failures")


def test_criterion_8_weyl_orders(pipeline):
    for name, order in WEYL_CLOSED_FORMS.items():
        assert cartan.weyl_order(cartan.parse_type(name)) == order, name
    for name in ALL_TYPES:
        assert pipeline(name).weyl.order == WEYL_CLOSED_FORMS[name], name
    # stretch case: enumerate the 1152-element group under a raised guard
    datum = cartan.build_root_datum(cartan.parse_type("F4"))
    weyl = cartan.generate_weyl(datum, max_order=1_200_000)
    assert weyl.order == 1152
    _conclude(8, "Weyl orders match closed forms, F4 stretch")
