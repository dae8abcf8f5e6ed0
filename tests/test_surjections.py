import math

import pytest
from hypothesis import given, strategies as st

from opint.surjections import (
    CompositionError, Surjection, bang, block_cut, compose, enumerate_surjections,
    from_fiber_sizes, identity_surjection, induced_map, ordinal_sum, parse_surjection,
)


def brute_compose(f, g):
    # independent pointwise oracle
    return tuple(g.values[f.values[i] - 1] for i in range(f.dom))


@st.composite
def surjections(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, m))
    cuts = draw(st.sets(st.sampled_from(range(1, m)), min_size=n - 1, max_size=n - 1)) \
        if n > 1 else set()
    bounds = [0] + sorted(cuts) + [m]
    return from_fiber_sizes(b - a for a, b in zip(bounds, bounds[1:]))


def test_identity_and_bang():
    assert identity_surjection(1).values == (1,)
    assert identity_surjection(3).values == (1, 2, 3)
    assert bang(1) == identity_surjection(1)
    assert bang(4).values == (1, 1, 1, 1)
    assert bang(4).preimage(1) == (4, (1, 2, 3, 4))


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        Surjection(3, 2, (1, 2, 2, 2))
    with pytest.raises(ValueError):
        Surjection(3, 2, (2, 2, 2))  # misses 1
    with pytest.raises(ValueError):
        Surjection(3, 3, (1, 3, 3))  # skips 2
    with pytest.raises(ValueError):
        Surjection(3, 2, (1, 2, 1))  # decreases
    with pytest.raises(ValueError):
        Surjection(0, 1, ())


def test_compose_matches_pointwise_oracle():
    f = Surjection(4, 3, (1, 1, 2, 3))
    g = Surjection(3, 2, (1, 1, 2))
    assert compose(f, g).values == (1, 1, 1, 2)
    assert compose(f, g).values == brute_compose(f, g)


def test_compose_unit_laws_and_errors():
    g = Surjection(3, 2, (1, 1, 2))
    assert compose(identity_surjection(3), g) == g
    assert compose(g, identity_surjection(2)) == g
    assert compose(Surjection(2, 1, (1, 1)), identity_surjection(1)).values == (1, 1)
    with pytest.raises(CompositionError):
        compose(g, g)


def test_preimage():
    g = Surjection(3, 2, (1, 1, 2))
    assert g.preimage(1) == (2, (1, 2))
    assert g.preimage(2) == (1, (3,))
    assert identity_surjection(3).preimage(2) == (1, (2,))
    with pytest.raises(IndexError):
        g.preimage(3)


def test_induced_map_examples():
    f = Surjection(4, 3, (1, 1, 2, 3))
    g = Surjection(3, 2, (1, 1, 2))
    assert induced_map(f, g, 1) == Surjection(3, 2, (1, 1, 2))
    assert induced_map(f, g, 2) == Surjection(1, 1, (1,))
    # g = identity: the induced map is the restriction of f, a bang map
    for i in range(1, 4):
        fi = induced_map(f, identity_surjection(3), i)
        assert fi.cod == 1 and fi.dom == f.preimage(i)[0]
    # f = identity: the induced map is an identity on each fiber
    for i in range(1, 3):
        gi = induced_map(identity_surjection(3), g, i)
        assert gi == identity_surjection(g.preimage(i)[0])


def test_ordinal_sum():
    s = ordinal_sum([Surjection(2, 1, (1, 1)), identity_surjection(1)])
    assert s == Surjection(3, 2, (1, 1, 2))
    f = Surjection(4, 2, (1, 1, 1, 2))
    assert ordinal_sum([f]) == f
    assert ordinal_sum([identity_surjection(2), identity_surjection(3)]) == \
        identity_surjection(5)
    with pytest.raises(ValueError):
        ordinal_sum([])


def test_triangle_from_fiber_maps_example():
    # the top map of a triangle g o f = h is the ordinal sum of its fiber maps
    g = Surjection(3, 2, (1, 1, 2))
    h = Surjection(4, 2, (1, 1, 1, 2))
    parts = [Surjection(3, 2, (1, 1, 2)), identity_surjection(1)]
    f = ordinal_sum(parts)
    assert f == Surjection(4, 3, (1, 1, 2, 3))
    assert compose(f, g) == h
    assert [induced_map(f, g, i) for i in (1, 2)] == parts
    # degenerate cases
    assert ordinal_sum([identity_surjection(2), identity_surjection(1)]) == identity_surjection(3)
    part = Surjection(4, 2, (1, 2, 2, 2))
    assert ordinal_sum([part]) == part and induced_map(part, bang(2), 1) == part


def test_block_cut():
    g = Surjection(3, 2, (1, 1, 2))
    assert block_cut(("a", "b", "c"), g) == (("a", "b"), ("c",))
    assert block_cut((1, 2, 3), identity_surjection(3)) == ((1,), (2,), (3,))
    assert block_cut((1, 2, 3), bang(3)) == ((1, 2, 3),)
    with pytest.raises(ValueError):
        block_cut((1, 2), g)


def test_enumerate_surjections():
    maps = enumerate_surjections(4, 2)
    assert [m.values for m in maps] == [(1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]
    assert enumerate_surjections(3, 3) == [identity_surjection(3)]
    assert enumerate_surjections(2, 3) == []
    for m in range(1, 7):
        for n in range(1, m + 1):
            found = enumerate_surjections(m, n)
            assert len(found) == math.comb(m - 1, n - 1)
            assert len(set(found)) == len(found)


def test_enumerate_surjections_returns_a_fresh_list():
    # the surjections are cached per (m, n); a caller may change its list
    first = enumerate_surjections(4, 2)
    first.clear()
    second = enumerate_surjections(4, 2)
    assert second is not first and len(second) == 3
    for m, n in [(0, 1), (1, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="^ordinals are non-empty$"):
            enumerate_surjections(m, n)


def test_exhaustive_associativity_small():
    # all composable triples with outer domain <= 6
    for m in range(1, 7):
        for k in range(1, m + 1):
            for f in enumerate_surjections(m, k):
                for n in range(1, k + 1):
                    for g in enumerate_surjections(k, n):
                        for p in range(1, n + 1):
                            for h in enumerate_surjections(n, p):
                                assert compose(compose(f, g), h) == \
                                    compose(f, compose(g, h))


def test_induced_map_functoriality_exhaustive():
    # induced maps of a composite factor through induced maps, level by
    # level: (f o e)^i = f^i o (e relative to the composite), for all
    # composable triples with outer domain <= 5
    for q in range(1, 6):
        for m in range(1, q + 1):
            for e in enumerate_surjections(q, m):
                for k in range(1, m + 1):
                    for f in enumerate_surjections(m, k):
                        for n in range(1, k + 1):
                            for g in enumerate_surjections(k, n):
                                fe = compose(e, f)
                                gf = compose(f, g)
                                for i in range(1, n + 1):
                                    lhs = induced_map(fe, g, i)
                                    rhs = compose(induced_map(e, gf, i),
                                                  induced_map(f, g, i))
                                    assert lhs == rhs


@given(surjections())
def test_preimage_partition(g):
    total = 0
    seen = []
    for i in range(1, g.cod + 1):
        size, emb = g.preimage(i)
        assert size == len(emb) >= 1
        total += size
        seen.extend(emb)
    assert total == g.dom
    assert seen == list(range(1, g.dom + 1))


@given(surjections(), st.data())
def test_induced_map_coherence(g, data):
    # fibers of the induced map have the same size as fibers of f
    m = data.draw(st.integers(g.dom, g.dom + 3))
    f = data.draw(st.sampled_from(enumerate_surjections(m, g.dom)))
    for i in range(1, g.cod + 1):
        fi = induced_map(f, g, i)
        _, members = g.preimage(i)
        for local_j, j in enumerate(members, start=1):
            assert fi.preimage(local_j)[0] == f.preimage(j)[0]


@given(surjections(), st.data())
def test_ordinal_sum_of_induced_maps_is_the_top_map(g, data):
    # what is_operadic_cartesian relies on: fiber maps determine the top map
    m = data.draw(st.integers(g.dom, g.dom + 3))
    f = data.draw(st.sampled_from(enumerate_surjections(m, g.dom)))
    assert ordinal_sum([induced_map(f, g, i) for i in range(1, g.cod + 1)]) == f


def test_induced_maps_of_an_ordinal_sum_are_its_parts():
    g = Surjection(4, 2, (1, 1, 2, 2))
    h = Surjection(5, 2, (1, 1, 1, 2, 2))
    for p1 in enumerate_surjections(3, 2):
        for p2 in enumerate_surjections(2, 2):
            f = ordinal_sum([p1, p2])
            assert compose(f, g) == h
            assert induced_map(f, g, 1) == p1
            assert induced_map(f, g, 2) == p2


def test_text_roundtrip():
    g = Surjection(3, 2, (1, 1, 2))
    assert str(g) == "3->2:[1,1,2]"
    assert parse_surjection(str(g)) == g
    with pytest.raises(ValueError):
        parse_surjection("3->2:(1,1,2)")
