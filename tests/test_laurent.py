import random

import pytest

from hodgkin import cartan, laurent
from hodgkin.errors import DefectError
from hodgkin.laurent import LaurentPoly


def _datum(name):
    return cartan.build_root_datum(cartan.parse_type(name))


def _weyl(name):
    datum = _datum(name)
    return datum, cartan.generate_weyl(datum)


def _random_poly(rng, nvars, terms=6, span=3, coeff=9):
    out = LaurentPoly.zero(nvars)
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(nvars))
        out = out + LaurentPoly.monomial(exps, rng.randint(-coeff, coeff))
    return out


def test_poly_arithmetic_basics():
    t = LaurentPoly.monomial((1,))
    tinv = LaurentPoly.monomial((-1,))
    one = LaurentPoly.one(1)
    assert t * tinv == one
    assert (t - 1) * (t + 1) == t * t - 1
    assert (t + tinv) * (t + tinv) == t * t + 2 * one + tinv * tinv
    assert (t - t).is_zero()


def test_poly_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(40):
        f = _random_poly(rng, 2)
        g = _random_poly(rng, 2)
        h = _random_poly(rng, 2)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)


def test_poly_mixed_arity_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.one(1) + LaurentPoly.one(2)


def test_augmentation_is_ring_map():
    rng = random.Random(12)
    for _ in range(30):
        f = _random_poly(rng, 2)
        g = _random_poly(rng, 2)
        assert laurent.augmentation(f * g) == \
            laurent.augmentation(f) * laurent.augmentation(g)
        assert laurent.augmentation(f + g) == \
            laurent.augmentation(f) + laurent.augmentation(g)


def test_weyl_action_is_group_action():
    datum, weyl = _weyl("A2")
    rng = random.Random(13)
    s0, s1 = weyl.simple_reflections
    for _ in range(20):
        f = _random_poly(rng, 2)
        assert laurent.weyl_act(s0, laurent.weyl_act(s0, f)) == f
        both = cartan.mat_mul(s0, s1)
        assert laurent.weyl_act(both, f) == \
            laurent.weyl_act(s0, laurent.weyl_act(s1, f))


def test_demazure_golden_a1():
    datum, _ = _weyl("A1")
    t = LaurentPoly.monomial((1,))
    tinv = LaurentPoly.monomial((-1,))
    # the divided difference sends t to the two-dimensional character
    assert laurent.demazure(datum, 0, t) == t + tinv
    assert laurent.demazure(datum, 0, LaurentPoly.one(1)) == LaurentPoly.one(1)
    # and kills the antidominant side down to zero
    assert laurent.demazure(datum, 0, tinv) == LaurentPoly.zero(1)


def test_demazure_idempotent_and_invariant():
    datum, weyl = _weyl("B2")
    rng = random.Random(14)
    for _ in range(30):
        f = _random_poly(rng, 2)
        i = rng.randrange(2)
        once = laurent.demazure(datum, i, f)
        assert laurent.demazure(datum, i, once) == once
        assert laurent.weyl_act(weyl.simple_reflections[i], once) == once


def test_demazure_longest_word_gives_invariants():
    datum, weyl = _weyl("A2")
    rng = random.Random(15)
    for _ in range(10):
        f = _random_poly(rng, 2)
        g = laurent.demazure_word(datum, weyl.longest_word, f)
        for w in weyl.elements:
            assert laurent.weyl_act(w, g) == g


SWEEP_TYPES = ("A1", "A2", "A3", "B2", "G2", "A1xA1", "B3", "C3", "A4")


def _generic_demazure(datum, i, f):
    """The divided difference by the generic route: the per-j string
    expansion, certified through ``__mul__``, ``weyl_act`` and
    subtraction."""
    n = f.nvars
    alpha = datum.simple_roots[i]
    q = LaurentPoly.zero(n)
    for exps, coeff in f.terms.items():
        k = exps[i]
        js = range(k + 1) if k >= 0 else range(-1, k, -1)
        sign = 1 if k >= 0 else -1
        for j in js:
            key = tuple(x - j * a for x, a in zip(exps, alpha))
            q = q + LaurentPoly.monomial(key, sign * coeff)
    neg_alpha = LaurentPoly.monomial(tuple(-a for a in alpha))
    s_i = cartan.simple_reflection(datum, i)
    lhs = q * (LaurentPoly.one(n) - neg_alpha)
    assert lhs == f - neg_alpha * laurent.weyl_act(s_i, f)
    return q


def test_demazure_matches_generic_route_on_sweep_types():
    rng = random.Random(17)
    for name in SWEEP_TYPES:
        datum = _datum(name)
        for i in range(datum.rank):
            for _ in range(12):
                f = _random_poly(rng, datum.rank, terms=5, span=4)
                assert laurent.demazure(datum, i, f) == \
                    _generic_demazure(datum, i, f), (name, i, f)


def test_division_certificate_rejects_wrong_quotients():
    datum = _datum("B2")
    f = _random_poly(random.Random(18), 2, terms=5, span=4)
    for i in range(2):
        alpha = datum.simple_roots[i]
        q = laurent.demazure(datum, i, f)
        assert not q.is_zero()
        laurent._check_demazure_division(datum, i, f, q)
        key, coeff = q.sorted_terms()[0]
        off_by_one = q + LaurentPoly.monomial(key)
        shifted = q - LaurentPoly.monomial(key, coeff) + LaurentPoly.monomial(
            tuple(x + a for x, a in zip(key, alpha)), coeff)
        for wrong in (off_by_one, shifted):
            with pytest.raises(DefectError, match="^inexact divided-difference "
                                                  f"division for generator {i}$"):
                laurent._check_demazure_division(datum, i, f, wrong)


def test_character_dimensions_golden():
    # fundamental dimensions per type, in coordinate order
    expected = {"A2": (3, 3), "B2": (5, 4), "G2": (7, 14), "C3": (6, 14, 14)}
    for name, dims in expected.items():
        datum, weyl = _weyl(name)
        chars = laurent.fundamental_characters(datum, weyl)
        assert chars.dims == dims, name
        for chi, d in zip(chars.chars, chars.dims):
            assert laurent.augmentation(chi) == d


def test_character_is_weyl_invariant():
    datum, weyl = _weyl("A2")
    chi = laurent.character(datum, weyl, (1, 1))
    assert laurent.augmentation(chi) == 8  # the adjoint representation
    for w in weyl.elements:
        assert laurent.weyl_act(w, chi) == chi


def test_weyl_dimension_formula_goldens():
    datum = _datum("A2")
    assert laurent.weyl_dimension(datum, (0, 0)) == 1
    assert laurent.weyl_dimension(datum, (1, 1)) == 8
    assert laurent.weyl_dimension(datum, (2, 0)) == 6
    datum = _datum("B2")
    assert laurent.weyl_dimension(datum, (1, 1)) == 16
    datum = _datum("G2")
    assert laurent.weyl_dimension(datum, (1, 1)) == 64


def test_relators_augment_to_zero():
    datum, weyl = _weyl("B2")
    chars = laurent.fundamental_characters(datum, weyl)
    for rel in chars.relators:
        assert laurent.augmentation(rel) == 0


def test_decompose_golden_a1():
    # t - 2 + 1/t = (t - 1) * (1 - 1/t)
    f = (LaurentPoly.monomial((1,)) - 2) + LaurentPoly.monomial((-1,))
    cof, = laurent.decompose_augmentation_ideal(f)
    assert cof == LaurentPoly.one(1) - LaurentPoly.monomial((-1,))


def test_decompose_roundtrip_random():
    rng = random.Random(16)
    for _ in range(40):
        f = _random_poly(rng, 2)
        f = f - laurent.augmentation(f)
        cofs = laurent.decompose_augmentation_ideal(f)
        acc = LaurentPoly.zero(2)
        for j, cof in enumerate(cofs):
            step = tuple(int(k == j) for k in range(2))
            acc = acc + cof * (LaurentPoly.monomial(step) - 1)
        assert acc == f
