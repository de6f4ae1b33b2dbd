import json
from math import comb
from pathlib import Path

import numpy as np
import pytest

from hodgkin import laurent, torring
from hodgkin.errors import CertificationError, DefectError

# change-of-basis determinants frozen from the first certified builds
EXPECTED_DETS = {
    "A1": (1, -1),
    "A2": (1, 1, 1),
    "B2": (1, -1, -1),
    "G2": (1, 1, -1),
    "A1xA1": (1, 1, 1),
}


def test_merge_sign():
    assert torring._merge_sign((0,), (1,)) == (1, (0, 1))
    assert torring._merge_sign((1,), (0,)) == (-1, (0, 1))
    assert torring._merge_sign((), (2,)) == (1, (2,))
    assert torring._merge_sign((0, 2), (1,)) == (-1, (0, 1, 2))


def test_a1_generator_golden(pipeline):
    run = pipeline("A1")
    gens = run.generators
    assert len(gens) == 1
    z = gens[0]
    assert z.degree == 1
    assert z.chain.tolist() == [-1, 1]
    assert run.homology[1].reduce(z.chain).tolist() == [-1]


def test_unit_class_generates_degree_zero(pipeline):
    for name in ("A1", "A2"):
        run = pipeline(name)
        one = torring.TorClass(0, run.module.unit_coords)
        assert run.homology[0].reduce(one.chain).tolist() == [1]


def test_unit_is_neutral(pipeline):
    run = pipeline("A2")
    one = torring.TorClass(0, run.module.unit_coords)
    for z in run.generators:
        prod = torring.chain_product(one, z, run.module)
        assert prod.degree == z.degree
        assert prod.chain.tolist() == z.chain.tolist()
        h = run.homology[z.degree]
        assert h.reduce(prod.chain).tolist() == h.reduce(z.chain).tolist()


def test_generators_are_cycles(pipeline):
    run = pipeline("B2")
    d1 = run.chain_complex.boundary(1)
    for z in run.generators:
        assert not np.any(d1 @ z.chain)


def test_squares_vanish_on_chains(pipeline):
    run = pipeline("B2")
    for z in run.generators:
        sq = torring.chain_product(z, z, run.module)
        assert sq.degree == 2
        assert not np.any(sq.chain)


def test_anticommutation_on_chains(pipeline):
    run = pipeline("A2")
    z0, z1 = run.generators
    ab = torring.chain_product(z0, z1, run.module)
    ba = torring.chain_product(z1, z0, run.module)
    assert ab.chain.tolist() == [-x for x in ba.chain.tolist()]
    coords_ab = run.homology[2].reduce(ab.chain)
    coords_ba = run.homology[2].reduce(ba.chain)
    assert coords_ab.tolist() == [-x for x in coords_ba.tolist()]
    assert np.any(coords_ab)  # the product class is nonzero


def test_product_past_top_degree_is_zero(pipeline):
    run = pipeline("A1")
    z = run.generators[0]
    top = torring.chain_product(z, torring.chain_product(z, z, run.module), run.module)
    assert top.degree == 3
    assert top.chain.size == 0


def test_product_rejects_foreign_chains(pipeline):
    run = pipeline("A2")
    z = run.generators[0]
    alien = torring.TorClass(degree=1, chain=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        torring.chain_product(z, alien, run.module)


def test_certification_dets_golden(pipeline):
    for name, dets in EXPECTED_DETS.items():
        run = pipeline(name)
        cert = run.certificate
        assert cert is not None, name
        assert cert.dets == dets, name


def test_certification_dets_match_the_bench_goldens(pipeline):
    # the det signs follow the Smith pivots; the benchmark rejects a run
    # whose dets differ from its goldens, so the same check runs here
    goldens = json.loads((Path(__file__).resolve().parent.parent
                          / "perfbench" / "goldens.json").read_text())
    names = [name for name, g in goldens.items() if "dets" in g]
    assert len(names) == 9
    for name in names:
        cert = pipeline(name).certificate
        assert cert is not None, name
        assert list(cert.dets) == goldens[name]["dets"], name


def test_certify_rejects_degenerate_generators(pipeline):
    run = pipeline("A2")
    g0 = run.generators[0]
    with pytest.raises(CertificationError) as info:
        torring.certify_exterior(run.module, run.homology, (g0, g0))
    assert info.value.check == "exterior-change-of-basis"
    assert "determinant" in info.value.witness


def test_flipped_product_fails_anticommutation(pipeline, monkeypatch):
    run = pipeline("A2")
    g0, g1 = run.generators
    original = torring.chain_product

    def tampered(a, b, module):
        prod = original(a, b, module)
        if a is g1 and b is g0:
            return torring.TorClass(prod.degree, -prod.chain)
        return prod

    monkeypatch.setattr(torring, "chain_product", tampered)
    with pytest.raises(CertificationError) as info:
        torring.certify_exterior(run.module, run.homology, run.generators)
    assert info.value.check == "generator-anticommute"
    assert info.value.witness == {"pair": (0, 1)}


def test_certificate_takes_degree_one_from_the_generators(pipeline, monkeypatch):
    # n squares, n (n - 1) ordered pairs, one product per class of degree >= 3;
    # no unit products: the module audit's unit-generates check covers them
    run = pipeline("A4")
    n = run.datum.rank
    original = torring.chain_product
    calls = []

    def counted(a, b, module):
        calls.append((a.degree, b.degree))
        return original(a, b, module)

    monkeypatch.setattr(torring, "chain_product", counted)
    cert = torring.certify_exterior(run.module, run.homology, run.generators)
    assert cert.dets == run.certificate.dets
    higher = sum(comb(n, p) for p in range(3, n + 1))
    assert len(calls) == n + n * (n - 1) + higher == 21
    assert (0, 1) not in calls


def test_relator_cofactors_must_give_a_cycle(pipeline, monkeypatch):
    run = pipeline("A2")
    original = laurent.decompose_augmentation_ideal

    def tampered(f):
        cofactors = original(f)
        return (cofactors[0] + cofactors[0],) + cofactors[1:]

    monkeypatch.setattr(laurent, "decompose_augmentation_ideal", tampered)
    with pytest.raises(DefectError, match="^relator 0 fails the cycle condition$"):
        torring.change_of_rings_generators(run.chars, run.module, run.chain_complex)


def test_report_assembly(pipeline):
    run = pipeline("A2")
    checks = [{"name": "demo", "pass": True}]
    report = torring.assemble_report("A2", run.module, run.homology,
                                     run.certificate, checks,
                                     {"total": 1.0}, "0.0-test")
    assert report.cartan_type == "A2"
    assert report.weyl_order == 6
    assert [row["rank"] for row in report.tor_table] == [1, 2, 1]
    assert [row["rank"] for row in report.e2_table] == [1, 2, 1]
    assert report.k0_rank == 2 and report.k1_rank == 2
    assert report.exterior_certified
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["versions"]["format"] == torring.FORMAT_VERSION
