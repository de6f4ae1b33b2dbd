import dataclasses
import random

import numpy as np
import pytest

from hodgkin import cartan, flagk, laurent, linalg
from hodgkin.errors import CertificationError, DefectError
from hodgkin.laurent import LaurentPoly

A1_GRAM = [[1, 2], [2, 3]]
A1_MULT = [[0, -1], [1, 2]]


def test_a1_goldens(pipeline):
    module = pipeline("A1").module
    assert module.basis_weights == ((0,), (1,))
    assert module.gram.tolist() == A1_GRAM
    assert module.gram_det == -1
    assert module.mult_matrices[0].tolist() == A1_MULT
    prod = linalg.dot_exact(module.mult_matrices[0], module.mult_matrices_inv[0])
    assert prod.tolist() == [[1, 0], [0, 1]]


def test_basis_has_group_order_and_unit(pipeline):
    for name in ("A2", "B2", "A1xA1"):
        run = pipeline(name)
        module = run.module
        assert module.rank == run.weyl.order
        assert module.gram_det in (1, -1)
        # the unit is the class of the zero weight
        zero = tuple(0 for _ in range(run.datum.rank))
        assert module.coords(LaurentPoly.monomial(zero)).tolist() == \
            module.unit_coords.tolist()


def _scalar_grid(datum, left, right):
    def swd(a, b):
        return laurent.signed_weight_dimension(datum, tuple(int(x) + int(y) for x, y in zip(a, b)))
    return [[swd(a, b) for b in right] for a in left]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "G2", "A1xA1", "B3", "C3",
                                  "A4", "C4"])
def test_weight_grid_matches_scalar_dimension(name):
    # every Gram entry, and every entry of the right-hand side of M_0
    datum = cartan.build_root_datum(cartan.parse_type(name))
    weights = np.array(sorted(flagk.steinberg_weights(datum, cartan.generate_weyl(datum))))
    shifted = weights + np.eye(datum.rank, dtype=np.int64)[0]
    for left, right in ((weights, weights), (weights, shifted)):
        grid = laurent.weight_dimension_grid(datum, left, right)
        assert grid.dtype == np.int64
        assert grid.tolist() == _scalar_grid(datum, left, right)


def test_weight_grid_wide_numerators_are_exact():
    # forms whose product bound passes 2^62 accumulate in Python integers
    datum = cartan.build_root_datum(cartan.parse_type("A3"))
    rng = np.random.default_rng(41)
    left = rng.integers(-3000, 3000, size=(7, 3))
    right = rng.integers(-3000, 3000, size=(5, 3))
    grid = laurent.weight_dimension_grid(datum, left, right)
    assert grid.dtype == object
    assert max(abs(int(x)) for x in grid.flat) >= 1 << 62
    assert grid.tolist() == _scalar_grid(datum, left, right)
    # weights on two different walls: the bound passes 2^62, the values fit
    walls = [(-1, 3000, 3000), (3000, 3000, -1), (0, 0, 0)]
    grid = laurent.weight_dimension_grid(datum, walls, [(0, 0, 0)])
    assert grid.dtype == np.int64
    assert grid.tolist() == [[0], [0], [1]]


def test_weight_grid_rejects_a_remainder(monkeypatch):
    datum = cartan.build_root_datum(cartan.parse_type("A2"))
    coroots, denominator = laurent._coroot_data(datum)
    monkeypatch.setattr(laurent, "_coroot_data", lambda d: (coroots, 7 * denominator))
    with pytest.raises(DefectError):
        laurent.weight_dimension_grid(datum, [(0, 0)], [(0, 0), (1, 0)])


def test_steinberg_descents_match_root_signs():
    for name in ("A3", "B3", "G2", "A1xA1"):
        datum = cartan.build_root_datum(cartan.parse_type(name))
        weyl = cartan.generate_weyl(datum)
        expected = []
        for w in weyl.elements:
            s = tuple(-1 if cartan._root_sign(datum, cartan.mat_vec(w, alpha)) < 0 else 0
                      for alpha in datum.simple_roots)
            expected.append(cartan.mat_vec(w, s))
        assert flagk.steinberg_weights(datum, weyl) == tuple(expected), name


def test_pairing_routes_agree():
    # the recursive divided-difference route against the closed form
    datum = cartan.build_root_datum(cartan.parse_type("A2"))
    weyl = cartan.generate_weyl(datum)
    rng = random.Random(31)
    for _ in range(25):
        f = LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(2)))
        g = LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(2)))
        assert flagk.pairing(datum, weyl, f, g) == \
            flagk.pairing_bilinear(datum, f, g)


def test_steinberg_enumeration_size():
    for name in ("A2", "B2", "G2"):
        datum = cartan.build_root_datum(cartan.parse_type(name))
        weyl = cartan.generate_weyl(datum)
        weights = flagk.steinberg_weights(datum, weyl)
        assert len(weights) == weyl.order
        assert len(set(weights)) == weyl.order


def test_coords_of_basis_monomials_are_unit_vectors(pipeline):
    module = pipeline("B2").module
    for j, b in enumerate(module.basis_weights):
        coords = module.coords(LaurentPoly.monomial(b))
        expected = [int(i == j) for i in range(module.rank)]
        assert coords.tolist() == expected


def test_mult_matrix_is_monomial_shift(pipeline):
    run = pipeline("A2")
    module = run.module
    rng = random.Random(32)
    for _ in range(10):
        b = module.basis_weights[rng.randrange(module.rank)]
        i = rng.randrange(2)
        shifted = tuple(x + int(j == i) for j, x in enumerate(b))
        lhs = linalg.dot_exact(module.mult_matrices[i],
                               module.coords(LaurentPoly.monomial(b)))
        assert lhs.tolist() == module.coords(LaurentPoly.monomial(shifted)).tolist()


def test_mult_matrices_commute_and_are_units(pipeline):
    module = pipeline("B2").module
    m0, m1 = module.mult_matrices
    assert linalg.dot_exact(m0, m1).tolist() == linalg.dot_exact(m1, m0).tolist()
    for m in module.mult_matrices:
        assert linalg.det_exact(m) in (1, -1)


def test_characters_act_as_scalars(pipeline):
    run = pipeline("A2")
    module = run.module
    for chi, dim in zip(run.chars.chars, run.chars.dims):
        op = np.zeros((module.rank, module.rank), dtype=object)
        for exps, coeff in chi.terms.items():
            op = op + coeff * module.monomial_operator(exps).astype(object)
        assert np.array_equal(op, dim * np.eye(module.rank, dtype=object))


def test_augmentation_operators_are_nilpotent(pipeline):
    run = pipeline("A2")
    module = run.module
    bound = cartan.positive_root_count(run.datum.ctype) + 1
    for m in module.mult_matrices:
        b = m - np.eye(module.rank, dtype=np.int64)
        power = np.eye(module.rank, dtype=object)
        for _ in range(bound):
            power = linalg.dot_exact(power, b)
        assert not np.any(power)


def _product(module, x, y):
    return module.products(np.asarray(x)[:, None], np.asarray(y)[:, None])[:, 0, 0]


def test_module_product_is_commutative_and_associative(pipeline):
    module = pipeline("B2").module
    rng = random.Random(33)
    for _ in range(10):
        x, y, z = (np.array([rng.randint(-3, 3) for _ in range(module.rank)])
                   for _ in range(3))
        xy = _product(module, x, y)
        assert xy.tolist() == _product(module, y, x).tolist()
        assert _product(module, xy, z).tolist() == \
            _product(module, x, _product(module, y, z)).tolist()
        assert _product(module, module.unit_coords, x).tolist() == x.tolist()
    # one call on stacked columns gives every pairwise product
    xs = np.array([[rng.randint(-3, 3) for _ in range(3)] for _ in range(module.rank)])
    ys = np.array([[rng.randint(-3, 3) for _ in range(2)] for _ in range(module.rank)])
    table = module.products(xs, ys)
    assert table.shape == (module.rank, 3, 2)
    for i in range(3):
        for j in range(2):
            assert table[:, i, j].tolist() == _product(module, xs[:, i], ys[:, j]).tolist()


def test_degenerate_basis_is_rejected(monkeypatch):
    datum = cartan.build_root_datum(cartan.parse_type("A1"))
    weyl = cartan.generate_weyl(datum)
    chars = laurent.fundamental_characters(datum, weyl)
    monkeypatch.setattr(flagk, "steinberg_weights", lambda datum, weyl: ((0,), (0,)))
    with pytest.raises(CertificationError) as info:
        flagk.build_module(datum, weyl, chars)
    assert info.value.check == "gram-unimodular"
    assert info.value.witness["determinant"] == 0


def test_selected_basis_is_certified_for_all_small_types(pipeline):
    for name in ("A1", "A2", "A3", "B2", "G2", "A1xA1", "B3", "C3"):
        run = pipeline(name)
        module = run.module
        assert module.basis_source == "descent-twisted", name
        assert module.basis_weights == \
            tuple(sorted(flagk.steinberg_weights(run.datum, run.weyl))), name
        assert module.rank == run.weyl.order, name
        assert module.gram_det in (1, -1), name


def test_repeated_steinberg_weight_fails_gram_certificate(monkeypatch):
    datum = cartan.build_root_datum(cartan.parse_type("A2"))
    weyl = cartan.generate_weyl(datum)
    chars = laurent.fundamental_characters(datum, weyl)
    honest = flagk.steinberg_weights(datum, weyl)
    monkeypatch.setattr(flagk, "steinberg_weights",
                        lambda datum, weyl: (honest[0],) + honest[:-1])
    with pytest.raises(CertificationError) as info:
        flagk.build_module(datum, weyl, chars)
    assert info.value.check == "gram-unimodular"
    assert info.value.witness == {"determinant": 0}


def _audit_failure(module):
    with pytest.raises(CertificationError) as info:
        flagk._audit_module(module)
    return info.value.check, info.value.witness


def test_audit_rejects_corrupted_copies(pipeline):
    module = pipeline("B2").module
    flagk._audit_module(module)  # the honest module passes
    # basis weight (1, -2) is reached through column 2 of M_0, since u = e_2
    bad = module.mult_matrices[0].copy()
    bad[1, 2] += 1
    copy = dataclasses.replace(module, mult_matrices=(bad,) + module.mult_matrices[1:])
    assert _audit_failure(copy) == ("unit-generates",
                                    {"basis_index": 4, "weight": (1, -2)})
    bad = module.mult_matrices[0].copy()
    bad[0, 0] += 1
    copy = dataclasses.replace(module, mult_matrices=(bad,) + module.mult_matrices[1:])
    assert _audit_failure(copy) == ("mult-matrices-commute", {"generators": (0, 1)})
    unit = module.unit_coords.copy()
    unit[3] += 1
    copy = dataclasses.replace(module, unit_coords=unit)
    assert _audit_failure(copy) == ("unit-generates",
                                    {"basis_index": 0, "weight": (-1, 1)})
    chars = dataclasses.replace(module.chars, dims=(module.chars.dims[0] + 1,)
                                + module.chars.dims[1:])
    copy = dataclasses.replace(module, chars=chars)
    assert _audit_failure(copy) == ("character-relation", {"fundamental": 0})


@pytest.fixture
def operator_calls(monkeypatch):
    """The weights that ``monomial_operator`` is called with."""
    calls = []
    original = flagk.FlagKModule.monomial_operator
    monkeypatch.setattr(flagk.FlagKModule, "monomial_operator",
                        lambda self, exps: calls.append(exps) or original(self, exps))
    return calls


def test_audit_builds_no_operators(pipeline, operator_calls):
    module = pipeline("A3").module
    operator_calls.clear()  # the build itself may have run just now
    flagk._audit_module(module)
    assert operator_calls == []


def _random_laurent(rng, nvars):
    terms = {tuple(rng.randint(-2, 2) for _ in range(nvars)): rng.randint(-3, 3)
             for _ in range(3)}
    return LaurentPoly(nvars, terms)


def test_products_match_pairing_route(pipeline):
    # coords(f * g) is solved from the pairing; products walks the M_i
    rng = random.Random(34)
    for name in ("B2", "A3"):
        run = pipeline(name)
        module = run.module
        for _ in range(4):
            f = _random_laurent(rng, run.datum.rank)
            g = _random_laurent(rng, run.datum.rank)
            assert _product(module, module.coords(f), module.coords(g)).tolist() == \
                module.coords(f * g).tolist(), name


def _assert_coords_are_linear(module, polys):
    # coords solves the whole polynomial at once; it must be linear in it
    for f in polys:
        expected = np.zeros(module.rank, dtype=object)
        for exps, coeff in f.terms.items():
            expected += coeff * module.coords(LaurentPoly.monomial(exps)).astype(object)
        assert module.coords(f).tolist() == expected.tolist()


def _generator_cofactors(chars):
    """The cofactors that assemble each degree-1 Tor generator."""
    return [cof for relator in chars.relators
            for cof in laurent.decompose_augmentation_ideal(relator)]


def test_coords_are_linear_in_the_polynomial(pipeline):
    rng = random.Random(35)
    for name in ("B2", "A3"):
        run = pipeline(name)
        polys = [_random_laurent(rng, run.datum.rank) for _ in range(4)]
        _assert_coords_are_linear(run.module, polys + _generator_cofactors(run.chars))
        zero = run.module.coords(LaurentPoly.zero(run.datum.rank))
        assert zero.tolist() == [0] * run.module.rank


def _walk_reference(module, start, weight):
    """M^weight @ start by one exact product per step."""
    vec = start
    for d, k in enumerate(weight):
        op = module.mult_matrices[d] if k > 0 else module.mult_matrices_inv[d]
        for _ in range(abs(k)):
            vec = linalg.dot_exact(op, vec)
    return vec


def _walk_weights(module, rng):
    # the basis weights, then random ones: zero and negative coordinates,
    # repeats, and coordinates beyond the basis range
    n = module.datum.rank
    extra = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(12)]
    return list(module.basis_weights) + extra + [(0,) * n] + extra[:2]


@pytest.mark.parametrize("name", ["B2", "G2", "A3"])
def test_walk_matches_one_product_per_step(pipeline, name):
    module = pipeline(name).module
    rng = random.Random(17)
    weights = _walk_weights(module, rng)
    m = module.rank
    nprng = np.random.default_rng(17)
    matrix = nprng.integers(-4, 5, size=(m, 3))
    wide = matrix.astype(object) * (1 << 62) + 1  # entries past 2^62
    # int64 start whose walk ends in both dtypes: its stacked products mix
    scaled = module.unit_coords * (1 << 60)
    for start in (module.unit_coords, matrix, wide, scaled):
        walked = module._walk(start, weights)
        assert len(walked) == len(weights)
        for weight, got in zip(weights, walked):
            want = _walk_reference(module, start, weight)
            assert got.dtype == want.dtype, (name, weight)
            assert got.shape == want.shape, (name, weight)
            assert got.tolist() == want.tolist(), (name, weight)
    assert {vec.dtype for vec in module._walk(wide, weights)} == {np.dtype(object)}
    assert {vec.dtype for vec in module._walk(scaled, weights)} == \
        {np.dtype(object), np.dtype(np.int64)}


@pytest.mark.parametrize("name", ["B2", "G2", "A3"])
def test_walk_takes_one_product_per_coordinate_step(pipeline, monkeypatch, name):
    module = pipeline(name).module
    calls = []
    original = linalg.dot_exact
    monkeypatch.setattr(linalg, "dot_exact", lambda a, b: calls.append(1) or original(a, b))
    rng = random.Random(19)
    for weights in (module.basis_weights, _walk_weights(module, rng)):
        calls.clear()
        module._walk(module.unit_coords, weights)
        expected = sum(max(0, *(w[d] for w in weights)) + max(0, *(-w[d] for w in weights))
                       for d in range(module.datum.rank))
        assert len(calls) == expected, name


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "G2", "A1xA1", "B3", "C3",
                                  "A4", "D4"])
def test_operator_solves_only_columns_off_the_basis(pipeline, monkeypatch, name):
    # column b is e_c when lambda_b + e is the basis weight lambda_c
    module = pipeline(name).module
    n, m = module.datum.rank, module.rank
    weights = np.array(module.basis_weights, dtype=np.int64)
    basis = set(module.basis_weights)
    operands = []
    original = linalg.dot_exact

    def recording(a, b):
        if a is module.gram_inv:
            operands.append(b)
        return original(a, b)

    for i in range(n):
        for sign in (1, -1):
            exps = tuple(sign * int(j == i) for j in range(n))
            shifted = weights + exps
            full = original(module.gram_inv,
                            laurent.weight_dimension_grid(module.datum, weights, shifted))
            operands.clear()
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "dot_exact", recording)
                op = module.monomial_operator(exps)
            assert op.dtype == full.dtype, (name, exps)
            assert op.tolist() == full.tolist(), (name, exps)
            off = [b for b in range(m) if tuple(shifted[b].tolist()) not in basis]
            assert len(off) < m, (name, exps)  # some column takes the shortcut
            [rhs] = operands
            assert rhs.shape == (m, len(off)), (name, exps)
            assert rhs.tolist() == laurent.weight_dimension_grid(
                module.datum, weights, shifted[off]).tolist(), (name, exps)


def test_c4_module_is_certified_past_the_table_limit(operator_calls):
    datum = cartan.build_root_datum(cartan.parse_type("C4"))
    weyl = cartan.generate_weyl(datum)
    chars = laurent.fundamental_characters(datum, weyl)
    laurent.signed_weight_dimension.cache_clear()
    module = flagk.build_module(datum, weyl, chars, audit=True)
    assert module.rank == 384
    assert module.gram_det in (1, -1)
    # only M_i and M_i^-1 are solved from the pairing
    assert len(operator_calls) == 2 * datum.rank
    _assert_coords_are_linear(module, _generator_cofactors(chars))
    # every pairing, of the build and of the coordinate solves, went
    # through the weight-grid evaluator
    info = laurent.signed_weight_dimension.cache_info()
    assert (info.hits, info.misses) == (0, 0)
