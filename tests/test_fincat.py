import math

import pytest

from opint.fincat import (
    FinCat, Functor, enumerate_functors, poset_category, product,
    terminal_category, terminal_object, validate_category, validate_functor,
)
from opint.integration import ZeroCell, integrate
from opint.operadic import canonical_fibration, trivial_subcategory
from opint.operads import nat_operad, tree_operad
from opint.surjections import CompositionError


def chain_ge(n):
    """The poset {0..n} with an arrow a -> b when a >= b."""
    return poset_category(range(n + 1), lambda a, b: a <= b)


def test_terminal_category_is_valid():
    C = terminal_category()
    assert validate_category(C).ok
    assert C.counts() == (1, 1)


def test_chain_poset_counts_and_validity():
    # independent count: pairs a >= b in {0,1,2}, i.e. 3 + 2 + 1
    C = chain_ge(2)
    assert validate_category(C).ok
    assert C.counts() == (3, 6)
    assert len([m for m in C.morphism_ids() if not C.is_identity(m)]) == 3


def test_missing_composite_is_located():
    # a 3-chain whose table lacks the one non-trivial composite (g, f)
    morphisms = [(("id", i), i, i) for i in range(3)] + \
        [(("f", 0), 0, 1), (("g", 1), 1, 2)]
    table = {}
    for mid, src, dst in morphisms:
        table[(mid, ("id", src))] = mid
        table[(("id", dst), mid)] = mid
    C = FinCat(range(3), morphisms, {i: ("id", i) for i in range(3)}, table)
    report = validate_category(C)
    assert not report.ok
    assert any("missing composite" in p for p in report.witness)


def chain_table(n, patch=(), extra=None, rule=False):
    """The chain 0 -> 1 -> ... -> n as a table category, one arrow (i, j)
    for each i <= j, with an optional ``extra = (id, (src, dst))`` arrow
    that composes like (src, dst) except with identities.  ``patch``
    overrides table entries (None deletes one); with ``rule`` the table is
    read through a callable instead."""
    objects = range(n + 1)
    arrows = {(i, j): (i, j) for i in objects for j in objects if i <= j}
    if extra:
        arrows[extra[0]] = extra[1]
    table = {}
    for g, (gs, gd) in arrows.items():
        for f, (fs, fd) in arrows.items():
            if fd == gs:
                table[(g, f)] = g if f == (fs, fs) else f if g == (gd, gd) else (fs, gd)
    for key, value in dict(patch).items():
        if value is None:
            del table[key]
        else:
            table[key] = value
    compose = (lambda g, f: table[(g, f)]) if rule else table
    return FinCat(objects, [(m, s, d) for m, (s, d) in arrows.items()],
                  {i: (i, i) for i in objects}, compose)


def test_chain_table_is_valid():
    # objects + composable pairs + morphisms + composable triples: 4 + 20 + 10 + 35
    for rule in (False, True):
        report = validate_category(chain_table(3, rule=rule))
        assert report.ok and report.checked == 69


# Each seeded table category breaks one law; the witness, notes and count
# are the output of the category sweep before its composites were indexed
# (the *-mid-row cases: before it compared whole rows (h, g, -)).
@pytest.mark.parametrize("kwargs, witness, checked", [
    (dict(n=2, patch={((1, 2), (0, 1)): "x"}),
     ["composite of ((1, 2), (0, 1)) is not a morphism: 'x'",
      "associativity cannot be evaluated on ((1, 2), (0, 1), (0, 0))",
      "associativity cannot be evaluated on ((2, 2), (1, 2), (0, 1))"], 34),
    (dict(n=2, patch={((1, 2), (0, 1)): (0, 1)}),
     ["composite of ((1, 2), (0, 1)) has wrong endpoints",
      "associativity cannot be evaluated on ((2, 2), (1, 2), (0, 1))"], 34),
    (dict(n=2, extra=("p", (0, 1)), patch={((0, 1), (0, 0)): "p"}),
     ["right identity law fails at (0, 1)"], 44),
    (dict(n=2, extra=("p", (0, 1)), patch={((1, 1), (0, 1)): "p"}),
     ["left identity law fails at (0, 1)"], 44),
    (dict(n=3, extra=("q", (0, 3)), patch={((2, 3), (0, 2)): "q"}),
     ["associativity fails on ((2, 3), (1, 2), (0, 1))"], 75),
    (dict(n=2, patch={((1, 2), (0, 1)): None}),
     ["missing composite for pair ((1, 2), (0, 1))",
      "associativity cannot be evaluated on ((1, 2), (0, 1), (0, 0))",
      "associativity cannot be evaluated on ((1, 2), (1, 1), (0, 1))",
      "associativity cannot be evaluated on ((2, 2), (1, 2), (0, 1))"], 34),
    (dict(n=2, patch={((1, 2), (0, 1)): None}, rule=True),
     ["associativity cannot be evaluated on ((1, 2), (0, 1), (0, 0))",
      "associativity cannot be evaluated on ((1, 2), (1, 1), (0, 1))",
      "associativity cannot be evaluated on ((2, 2), (1, 2), (0, 1))"], 34),
    # (3,4) o (1,3) is q, so the row ((3,4), (2,3), -) fails only at (1,2),
    # the middle of (0,2), (1,2), (2,2)
    (dict(n=4, extra=("q", (1, 4)), patch={((3, 4), (1, 3)): "q"}),
     ["associativity fails on ((3, 4), (2, 3), (1, 2))"], 135),
    (dict(n=3, patch={((2, 3), (1, 2)): None}),
     ["missing composite for pair ((2, 3), (1, 2))",
      "associativity cannot be evaluated on ((2, 3), (1, 2), (0, 1))",
      "associativity cannot be evaluated on ((2, 3), (1, 2), (1, 1))",
      "associativity cannot be evaluated on ((2, 3), (2, 2), (1, 2))",
      "associativity cannot be evaluated on ((3, 3), (2, 3), (1, 2))"], 69),
    (dict(n=3, patch={((2, 3), (1, 2)): None}, rule=True),
     ["associativity cannot be evaluated on ((2, 3), (1, 2), (0, 1))",
      "associativity cannot be evaluated on ((2, 3), (1, 2), (1, 1))",
      "associativity cannot be evaluated on ((2, 3), (2, 2), (1, 2))",
      "associativity cannot be evaluated on ((3, 3), (2, 3), (1, 2))"], 69),
], ids=["not-a-morphism", "wrong-endpoints", "right-identity", "left-identity",
        "associativity", "unevaluable", "rule-unevaluable", "mismatch-mid-row",
        "missing-mid-row", "rule-missing-mid-row"])
def test_validate_category_failures_are_located(kwargs, witness, checked):
    report = validate_category(chain_table(**kwargs))
    assert report.status == "fail"
    assert report.witness == witness
    assert report.notes == ["%d problem(s)" % len(witness)]
    assert report.checked == checked


@pytest.mark.parametrize("build, n, counts", [
    ("nat_operad", 16, [5984]), ("nat_operad", 22, [17549]),
    ("tree_operad", 5, [4, 4, 24, 204, 2124]),
], ids=["nat:16", "nat:22", "trees:5"])
def test_validate_category_counts_on_builtin_components(build, n, counts):
    from opint import operads
    P = getattr(operads, build)(n)
    reports = [validate_category(P.component(n)) for n in range(1, len(counts) + 1)]
    assert [(r.status, r.checked) for r in reports] == [("pass", c) for c in counts]


def scanned_pairs(C):
    """The composable pairs by an object scan: g in presentation order, then
    for each object a, the morphisms a -> src(g) in presentation order."""
    for g, gs, _ in C.morphisms():
        for a in C.objects:
            for f in C.hom(a, gs):
                yield g, f


def trees4_trivial(n):
    return trivial_subcategory(canonical_fibration(integrate(tree_operad(4))).operadic, n)


def cyclic_hom():
    # hom([2,*], [2,*]) of cyclic:2:3: 3 1-cells, 3 parallel 2-cells per pair
    from test_integration import cyclic_operad
    return integrate(cyclic_operad(2, 3)).hom(ZeroCell(2, "*"), ZeroCell(2, "*"))


def objects_reversed(C):
    """C with its objects listed backwards, so that the object order is not
    the order in which the morphisms meet their sources."""
    return FinCat(C.objects[::-1], C.morphisms(), {x: C.id_of(x) for x in C.objects},
                  C.compose)


@pytest.mark.parametrize("build, n_pairs", [
    (lambda: nat_operad(5).component(1), 56),
    (lambda: product([tree_operad(4).component(n) for n in (3, 4)]), 427),
    (cyclic_hom, 243),
    (lambda: trees4_trivial(2), 1),
    (lambda: trees4_trivial(4), 61),
    # "s" runs out of 9, which is not an object: it is in no pair, since
    # nothing runs into 9 and no list holds it; "t" runs into 9 and is a g
    (lambda: chain_table(2, extra=("s", (9, 1))), 10),
    (lambda: chain_table(2, extra=("t", (1, 9))), 12),
    (lambda: objects_reversed(chain_table(3)), 20),
], ids=["nat:5-P1", "trees:4-P3xP4", "cyclic:2:3-hom", "trees:4-trivial-2",
        "trees:4-trivial-4", "stray-source", "stray-target", "objects-reversed"])
def test_composable_pairs_match_the_object_scan(build, n_pairs):
    C = build()
    pairs = list(C.composable_pairs())
    assert pairs == list(scanned_pairs(C))
    assert len(pairs) == n_pairs


def test_compose_raises_on_non_composable():
    C = chain_ge(2)
    with pytest.raises(CompositionError):
        C.compose((2, 1), (1, 0))  # (1,0) then (2,1) has mismatched middle


def test_product_counts():
    C, D = chain_ge(1), chain_ge(2)
    P = product([C, D])
    # counting oracle: objects and morphisms multiply
    assert len(P.objects) == len(C.objects) * len(D.objects)
    assert len(P.morphism_ids()) == len(C.morphism_ids()) * len(D.morphism_ids())
    assert validate_category(P).ok


def test_product_of_one_and_unit():
    # the explicit isomorphisms (x,) -> x and ("*", x) -> x: functors whose
    # maps are total on the product and injective, so bijective
    C, T = chain_ge(2), terminal_category()
    (e,) = T.morphism_ids()
    for P, obj, mor in [(product([C]), lambda x: (x,), lambda m: (m,)),
                        (product([T, C]), lambda x: ("*", x), lambda m: (e, m))]:
        F = Functor(P, C, {obj(x): x for x in C.objects},
                    {mor(m): m for m in C.morphism_ids()})
        assert set(F.obj_map) == set(P.objects)
        assert set(F.mor_map) == set(P.morphism_ids())
        assert validate_functor(F).ok


def test_terminal_object_in_chain():
    # 0 is the minimum of ({0..5}, >=): every object has exactly one arrow to it
    C = chain_ge(5)
    t, witness = terminal_object(C)
    assert t == 0
    assert witness[3] == (3, 0)
    assert terminal_object(terminal_category())[0] == "*"


def test_no_terminal_in_discrete():
    C = FinCat([0, 1], [(("id", i), i, i) for i in (0, 1)],
               {i: ("id", i) for i in (0, 1)},
               {(("id", i), ("id", i)): ("id", i) for i in (0, 1)})
    assert validate_category(C).ok
    assert terminal_object(C) is None


def test_validate_functor_catches_bad_map():
    C = chain_ge(1)
    F = Functor(C, C, {0: 0, 1: 1}, {m: m for m in C.morphism_ids()})
    assert validate_functor(F).ok
    bad = Functor(C, C, {0: 1, 1: 0}, {m: m for m in C.morphism_ids()})
    assert not validate_functor(bad).ok


def functor_maps(C, D):
    return [(F.obj_map, F.mor_map) for F in enumerate_functors(C, D)]


@pytest.mark.parametrize("m, n, expected", [(1, 2, 6), (3, 3, 35), (2, 0, 1), (0, 3, 4)])
def test_functors_between_chains_are_the_monotone_maps(m, n, expected):
    # chain_ge(m) has m + 1 elements; monotone maps of chains number
    # binomial(m + n + 1, m + 1)
    C, D = chain_ge(m), chain_ge(n)
    maps = functor_maps(C, D)
    assert len(maps) == expected == math.comb(m + n + 1, m + 1)
    monotone = [obj for obj, _ in maps
                if all(obj[a] >= obj[b] for a in C.objects for b in C.objects if a >= b)]
    assert len(monotone) == expected


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("k2", range(1, 5))
def test_functors_between_cyclic_groups_are_the_homomorphisms(k, k2):
    from test_integration import cyclic_operad
    C, D = cyclic_operad(1, k).component(1), cyclic_operad(1, k2).component(1)
    functors = list(enumerate_functors(C, D))
    assert len(functors) == math.gcd(k, k2)
    assert all(validate_functor(F).ok for F in functors)
    # each is a homomorphism Z/k -> Z/k2, fixed by the image of 1
    assert all(F.mor_map[m] == m * F.mor_map[1 % k] % k2 for F in functors for m in range(k))


def test_functor_enumeration_order_is_fixed():
    C, D = chain_ge(2), chain_ge(2)
    assert functor_maps(C, D) == functor_maps(C, D)
    assert functor_maps(C, D)[0][0] == {0: 0, 1: 0, 2: 0}
