import copy

from hodgkin import cli, flagk, laurent, torring, verify


def test_check_result_serialization():
    ok = verify.CheckResult("demo", True, None)
    assert ok.to_dict() == {"name": "demo", "pass": True}
    bad = verify.CheckResult("demo", False, {"got": 3})
    assert bad.to_dict() == {"name": "demo", "pass": False,
                             "witness": {"got": 3}}


def test_fast_checks_all_pass(pipeline):
    run = pipeline("A1")
    results = verify.fast_checks(run)
    names = [c.name for c in results]
    assert names == ["weyl-order-closed-form", "gram-unimodular",
                     "unit-class", "tor-rank", "tor-torsion-free",
                     "k-rank-parity", "exterior-change-of-basis",
                     "a1-gram-golden", "a1-mult-golden"]
    assert all(c.passed for c in results)


def test_fast_checks_report_tampering():
    # a fresh run (not the shared fixture!) whose betti table we corrupt
    run = cli.run_pipeline("A1")
    run.homology = (copy.copy(run.homology[0]), run.homology[1])
    run.homology[0].betti = 5
    results = {c.name: c for c in verify.fast_checks(run)}
    assert not results["tor-rank"].passed
    assert "ranks" in str(results["tor-rank"].witness)
    assert not results["k-rank-parity"].passed
    # untouched facts still pass
    assert results["gram-unimodular"].passed


def test_property_checks_pass_and_are_deterministic(pipeline):
    run = pipeline("A2")
    first = verify.property_checks(run, seed=99)
    second = verify.property_checks(run, seed=99)
    assert [(c.name, c.passed) for c in first] == \
        [(c.name, c.passed) for c in second]
    assert all(c.passed for c in first)
    names = [c.name for c in first]
    assert "rational-series-oracle" in names      # rank 2: oracle runs
    assert "longest-word-independence" in names   # rank <= 3: full sweep


def test_property_checks_skip_expensive_suites_by_rank(pipeline):
    run = pipeline("A4")
    names = [c.name for c in verify.property_checks(run)]
    assert "rational-series-oracle" not in names
    assert "longest-word-independence" not in names
    assert "demazure-idempotent" in names


def test_graded_commutativity_catches_a_lost_sign(pipeline, monkeypatch):
    run = pipeline("A2")
    assert verify.check_graded_commutativity(run).passed
    # products that forget the sign of the wedge commute instead
    monkeypatch.setattr(torring, "_merge_sign",
                        lambda s, t: (1, tuple(sorted(s + t))))
    result = verify.check_graded_commutativity(run)
    assert not result.passed
    assert "graded commutativity fails" in result.witness["error"]


def test_graded_commutativity_is_not_vacuous_on_rank_one(pipeline, monkeypatch):
    run = pipeline("A1")
    assert verify.check_graded_commutativity(run).passed
    # products that add the left factor are no longer commutative: on
    # A1 only a degree-0 left factor can show it, as z*z lands past n
    orig = flagk.FlagKModule.products
    monkeypatch.setattr(flagk.FlagKModule, "products",
                        lambda self, xs, ys: orig(self, xs, ys) + xs[:, :, None])
    result = verify.check_graded_commutativity(run)
    assert not result.passed
    assert "graded commutativity fails" in result.witness["error"]


def test_pairing_routes_read_the_weight_grid(pipeline, monkeypatch):
    run = pipeline("A2")
    assert verify.check_pairing_routes(run.datum, run.weyl).passed
    orig = laurent.weight_dimension_grid
    monkeypatch.setattr(laurent, "weight_dimension_grid",
                        lambda datum, left, right: orig(datum, left, right) + 1)
    result = verify.check_pairing_routes(run.datum, run.weyl)
    assert not result.passed
    assert result.name == "pairing-route-agreement"


def test_betti_mod_2_catches_a_wrong_table(pipeline):
    run = pipeline("A2")
    assert verify.check_betti_mod2(run.chain_complex, run.homology).passed
    # the shared run stays intact: only a copy of degree 1 is tampered
    homres = list(run.homology)
    homres[1] = copy.copy(homres[1])
    homres[1].betti += 1
    result = verify.check_betti_mod2(run.chain_complex, homres)
    assert not result.passed
    assert result.name == "betti-mod-2"
    assert result.witness == {"error": "mod 2 [1, 2, 1] vs certified [1, 3, 1]"}
