import pytest

from hodgkin import cartan
from hodgkin.errors import ResourceGuardError, UsageError

# order of the Weyl group per family, small ranks (standard values)
WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384,
    "C2": 8, "C3": 48, "C4": 384,
    "D3": 24, "D4": 192, "D5": 1920,
    "E6": 51840, "E7": 2903040, "E8": 696729600,
    "F4": 1152, "G2": 12,
    "A1xA1": 4, "A2xA1": 12, "B2xG2": 96,
}

POSITIVE_ROOTS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9,
                  "G2": 6, "D4": 12, "F4": 24, "A1xA1": 2, "A2xA1": 4}


def test_parse_roundtrip():
    assert str(cartan.parse_type("a2xA1")) == "A2xA1"
    assert str(cartan.parse_type("D4")) == "D4"
    assert cartan.parse_type("B3").rank == 3
    assert cartan.parse_type("A2xB3").rank == 5


def test_parse_rejects_garbage():
    for bad in ("", "Z9", "A0", "B1", "D2", "E5", "F5", "G3", "A2x", "x", "A-1"):
        with pytest.raises(UsageError):
            cartan.parse_type(bad)


def test_weyl_order_closed_forms():
    for name, order in WEYL_ORDERS.items():
        assert cartan.weyl_order(cartan.parse_type(name)) == order, name


def test_positive_root_counts():
    for name, count in POSITIVE_ROOTS.items():
        assert cartan.positive_root_count(cartan.parse_type(name)) == count, name


def test_generated_group_matches_closed_form():
    for name in ("A1", "A2", "B2", "G2", "A1xA1", "A2xA1"):
        datum = cartan.build_root_datum(cartan.parse_type(name))
        weyl = cartan.generate_weyl(datum)
        assert weyl.order == WEYL_ORDERS[name]
        assert len(set(weyl.elements)) == weyl.order


def test_simple_reflections_are_involutions():
    datum = cartan.build_root_datum(cartan.parse_type("B3"))
    ident = cartan.identity_matrix(3)
    for i in range(3):
        s = cartan.simple_reflection(datum, i)
        assert s != ident
        assert cartan.mat_mul(s, s) == ident


def test_longest_element():
    for name in ("A2", "B2", "G2"):
        datum = cartan.build_root_datum(cartan.parse_type(name))
        weyl = cartan.generate_weyl(datum)
        # its length is the number of positive roots, and it is an involution
        assert len(weyl.longest_word) == POSITIVE_ROOTS[name]
        w0 = weyl.longest_element
        assert cartan.mat_mul(w0, w0) == cartan.identity_matrix(datum.rank)
        # w0 sends every positive root to a negative one
        for root in cartan.positive_roots(datum):
            image = cartan.mat_vec(w0, root)
            neg = tuple(-x for x in image)
            assert neg in cartan.positive_roots(datum)


def test_positive_roots_count_and_sign():
    for name in ("A2", "B2", "G2", "B3"):
        datum = cartan.build_root_datum(cartan.parse_type(name))
        roots = cartan.positive_roots(datum)
        assert len(roots) == POSITIVE_ROOTS[name]
        assert len(set(roots)) == len(roots)


def test_resource_guard_reports_required_order():
    datum = cartan.build_root_datum(cartan.parse_type("E8"))
    with pytest.raises(ResourceGuardError) as info:
        cartan.generate_weyl(datum)
    assert info.value.required == 696729600
    # a raised guard admits the group (don't run it: 7e8 elements)


def test_guard_multiplies_only_until_it_passes():
    assert cartan.guarded_weyl_order(cartan.parse_type("A9"), 10 ** 7) == 3628800
    with pytest.raises(ResourceGuardError) as info:
        cartan.guarded_weyl_order(cartan.parse_type("E7"), 10 ** 6)
    assert info.value.required == 2903040
    assert "has order 2903040," in str(info.value)
    # (10^9 + 1)! is never formed: the guard stops at 9!
    with pytest.raises(ResourceGuardError) as info:
        cartan.guarded_weyl_order(cartan.parse_type("A1000000000"), 250_000)
    assert info.value.required is None
    assert "has order more than 362880," in str(info.value)


def test_reduced_words_of_longest_element():
    datum = cartan.build_root_datum(cartan.parse_type("A2"))
    weyl = cartan.generate_weyl(datum)
    words = cartan.reduced_words(weyl)
    # s1 s2 s1 and s2 s1 s2 are the only reduced words for w0 in A2
    assert sorted(words) == [(0, 1, 0), (1, 0, 1)]


def test_reduced_words_multiply_back():
    datum = cartan.build_root_datum(cartan.parse_type("B2"))
    weyl = cartan.generate_weyl(datum)
    w0 = weyl.longest_element
    for word in cartan.reduced_words(weyl):
        assert len(word) == 4
        acc = cartan.identity_matrix(2)
        for i in word:
            acc = cartan.mat_mul(acc, weyl.simple_reflections[i])
        assert acc == w0
