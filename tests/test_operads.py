import itertools

import pytest

from opint.fincat import Functor, RuleMap, validate_functor
from opint.integration import InvalidOperad, ZeroCell, integrate
from opint.operads import (
    ArityMismatch, TruncationOverflow, check_associativity, check_unitality,
    identity_operad_morphism, morphism_to_terminal, nat_operad,
    terminal_operad, tree_operad, validate_operad, validate_operad_morphism,
)
from opint.surjections import Surjection, bang, identity_surjection
from opint.trees import LEAF, corolla


def test_nat_operad_shape():
    P = nat_operad(5)
    assert P.bound == 1
    # sum over a of |{b : a >= b}| = 6 + 5 + ... + 1
    assert P.component(1).counts() == (6, 21)
    assert P.unit == 0


def test_nat_operad_saturating_mu():
    P = nat_operad(5)
    g = identity_surjection(1)
    assert P.apply_obj(g, (2, 3)) == 5
    assert P.apply_obj(g, (4, 3)) == 5
    assert P.apply_obj(g, (0, 4)) == 4
    # below the bound the operation is true addition
    Q = nat_operad(50)
    for a in range(10):
        for b in range(10):
            assert Q.apply_obj(identity_surjection(1), (a, b)) == a + b


def test_apply_on_morphisms_and_errors():
    P = nat_operad(5)
    g = identity_surjection(1)
    assert P.apply_mor(g, ((3, 1), (2, 2))) == (5, 3)
    with pytest.raises(ArityMismatch):
        P.apply_obj(g, (2,))
    with pytest.raises(TruncationOverflow):
        P.apply_obj(identity_surjection(2), (2, 3, 3))
    # the table is the operand check: a tuple it lacks is an ArityMismatch
    for apply, args in [(P.apply_obj, (2, 7)), (P.apply_obj, (2, (3, 1))),
                        (P.apply_mor, ((3, 1), 2)), (P.apply_mor, ((3, 1),))]:
        with pytest.raises(ArityMismatch, match=r"^mu_1->1:\[1\] has no value at"):
            apply(g, args)
    with pytest.raises(ArityMismatch):
        integrate(P).one_cell(g, (7,), (5, 5), ZeroCell(1, 2))


def test_axiom_suite_nat():
    for M in (0, 1, 5, 8):
        P = nat_operad(M)
        assert check_unitality(P).ok
        assert check_associativity(P).ok


def test_axiom_suite_trees():
    for N in (1, 2, 3, 4):
        P = tree_operad(N)
        assert check_unitality(P).ok
        assert check_associativity(P).ok


def test_tree_component_sizes():
    P = tree_operad(4)
    assert [len(P.component(n).objects) for n in (1, 2, 3, 4)] == [1, 1, 3, 11]


def test_tree_mu_grafting_example():
    # graft a corolla and a bare leaf onto the two leaves of a corolla
    P = tree_operad(3)
    g = Surjection(3, 2, (1, 1, 2))
    out = P.apply_obj(g, (corolla(2), corolla(2), LEAF))
    assert out == ((LEAF, LEAF), LEAF)


def test_tree_mu_functors_are_functorial():
    P = tree_operad(3)
    for g, F in P.mu.items():
        assert validate_functor(F).ok, g


def test_corrupted_mu_fails_associativity():
    P = nat_operad(3)
    g = identity_surjection(1)
    P.mu[g].obj_map[(1, 1)] = 0
    report = check_associativity(P)
    assert not report.ok
    assert report.witness is not None


def test_corrupted_mu_witnesses_are_located():
    # the per-pair sweep reads the same entries in the same order as
    # applying mu_g, mu_f, mu_fg and the induced maps one call at a time
    g = identity_surjection(1)
    P = nat_operad(3)
    P.mu[g].obj_map[(1, 1)] = 0
    assert check_associativity(P).line() == (
        "associativity: fail (23 instances) "
        "witness=('1->1:[1]', '1->1:[1]', (1, 1, 2), 2, 3)")
    P = nat_operad(3)
    P.mu[g].mor_map[((3, 2), (1, 0))] = (3, 3)
    assert check_associativity(P).line() == (
        "associativity: fail (216 instances) witness=('1->1:[1]', '1->1:[1]', "
        "((1, 0), (2, 2), (1, 0)), (3, 3), (3, 2))")
    # a value that is not an object is refused before it is composed further
    P = nat_operad(3)
    P.mu[g].obj_map[(1, 1)] = 7
    with pytest.raises(ArityMismatch, match="7 is not an object of the arity-1"):
        check_associativity(P)


def test_corruption_inside_a_row_is_witnessed_where_the_loop_finds_it():
    # a head (c, b) of nat:5 runs over 6 object tails, or 21 morphism tails;
    # each corruption first shows at a tail after the first of its row
    g = identity_surjection(1)
    P = nat_operad(5)
    P.mu[g].obj_map[(2, 3)] = 4
    line = ("associativity: fail (46 instances) "
            "witness=('1->1:[1]', '1->1:[1]', (1, 1, 3), 4, 5)")
    assert check_associativity(P).line() == line
    assert [r.line() for r in validate_operad(P)][4] == \
        line.replace("associativity", "associativity (objects)")
    P = nat_operad(5)
    P.mu[g].mor_map[((2, 1), (3, 2))] = (5, 5)
    assert check_associativity(P).line() == (
        "associativity: fail (708 instances) witness=('1->1:[1]', '1->1:[1]', "
        "((1, 0), (1, 1), (3, 2)), (5, 5), (5, 3))")


@pytest.mark.parametrize("cap", [90, 95, 729, 779, 864])
def test_a_cap_at_or_inside_a_row_reads_cap_plus_one(cap):
    # nat:8: 729 object instances in rows of 9, then morphism rows of 45;
    # 90 and 864 end a row, 95 and 779 fall inside one
    assert check_associativity(nat_operad(8), cap=cap).line() == \
        "associativity: capped (%d instances) [cap %d reached]" % (cap + 1, cap)


def test_a_mismatch_before_a_non_object_in_its_row_fails():
    # row (0, 1) of nat:3 reads mu(1, 3) = 7, not an object, at its last
    # tail; its second tail already mismatches
    g = identity_surjection(1)
    P = nat_operad(3)
    P.mu[g].obj_map[(0, 1)] = 2
    P.mu[g].obj_map[(1, 3)] = 7
    assert check_associativity(P).line() == (
        "associativity: fail (6 instances) "
        "witness=('1->1:[1]', '1->1:[1]', (0, 1, 1), 3, 2)")


def test_trees_corruption_in_a_multi_tail_row():
    # (4->2:[1,2,2,2], 2->1:[1,1]) has rows of 3 tails; the corrupted
    # grafting shows at the second tail of its row
    P = tree_operad(4)
    g = Surjection(4, 1, (1, 1, 1, 1))
    P.mu[g].obj_map[(LEAF, (LEAF, ((LEAF, LEAF), LEAF)))] = (LEAF, (LEAF, (LEAF, LEAF)))
    assert check_associativity(P).line() == (
        "associativity: fail (108 instances) witness=('4->2:[1,2,2,2]', '2->1:[1,1]', "
        "('L', ('L', 'L'), 'L', (('L', 'L'), 'L')), ('L', (('L', 'L'), 'L')), "
        "('L', ('L', ('L', 'L'))))")


def test_nat_operad_computes_mu_on_demand():
    P = nat_operad(200)
    g = identity_surjection(1)
    F = P.mu[g]
    assert len(F.obj_map) + len(F.mor_map) == 0
    for a in range(0, 201, 20):
        for b in range(0, 201, 25):
            assert P.apply_obj(g, (a, b)) == min(a + b, 200)
    assert P.apply_mor(g, ((3, 1), (2, 2))) == (5, 3)
    assert len(F.mor_map) == 1
    # a key outside the source has no image, as in a full table
    with pytest.raises(KeyError):
        F.mor_map[((1, 2), (0, 0))]
    with pytest.raises(KeyError):
        F.obj_map[(0, 201)]
    assert len(F.mor_map) == 1 and (0, 201) not in F.obj_map


def test_rule_returning_a_non_object_fails_mu_typing():
    P = nat_operad(3)
    g = identity_surjection(1)
    C = P.component(1)
    P.mu[g] = Functor([C, C], C, RuleMap([C, C], lambda tup: "x"), P.mu[g].mor_map)
    typing = [r for r in validate_operad(P) if r.name == "mu typing"]
    assert typing[0].status == "fail"
    assert typing[0].witness == ("1->1:[1]", (0, 0), "x")
    with pytest.raises(InvalidOperad):
        integrate(P)


def test_associativity_is_capped_not_sampled():
    # nat:8 has 91,125 morphism triples for its one pair, far past the cap
    report = check_associativity(nat_operad(8), cap=1000)
    assert report.line() == "associativity: capped (1001 instances) [cap 1000 reached]"


def test_wrong_unit_fails_unitality():
    P = nat_operad(5)
    P.unit = 1
    report = check_unitality(P)
    assert not report.ok


@pytest.mark.parametrize("kind, key", [("objects", (2, 0)), ("morphisms", ((0, 0), (2, 1)))])
def test_unitality_raises_where_a_table_lacks_a_tuple(kind, key):
    # (2, 0) is read by the identity law at object 2, ((0, 0), (2, 1)) by
    # the bang law at morphism (2, 1); the laws read before them hold
    P, g = nat_operad(3), identity_surjection(1)
    F, C = P.mu[g], P.component(1)
    obj_map = {k: F.obj_map[k] for k in itertools.product(C.objects, repeat=2)}
    mor_map = {k: F.mor_map[k] for k in itertools.product(C.morphism_ids(), repeat=2)}
    del (obj_map if kind == "objects" else mor_map)[key]
    P.mu[g] = Functor(F._source, F.target, obj_map, mor_map)
    with pytest.raises(ArityMismatch) as info:
        check_unitality(P)
    assert str(info.value) == "mu_1->1:[1] has no value at %s %r" % (kind, key)


@pytest.mark.parametrize("build", [nat_operad, terminal_operad, tree_operad],
                         ids=lambda b: b.__name__)
def test_validate_operad_skips_rule_backed_mu_tables(build):
    # light validation trusts a RuleMap to be a functor on morphisms, so it
    # checks no instance of one; each mu_g is a functor all the same
    P = build(3)
    reports = validate_operad(P)
    assert all(r.ok for r in reports)
    assert [r.checked for r in reports if r.name == "mu on morphisms"] == [0]
    assert all(validate_functor(mu).ok for mu in P.mu.values())


def test_terminal_operad():
    P = terminal_operad(3)
    assert check_unitality(P).ok
    assert check_associativity(P).ok


def test_identity_morphism_valid():
    P = tree_operad(3)
    assert validate_operad_morphism(identity_operad_morphism(P)).ok


def test_morphism_to_terminal_valid():
    P = tree_operad(3)
    F = morphism_to_terminal(P)
    assert validate_operad_morphism(F).ok


def test_morphism_failing_unit_preservation():
    P = nat_operad(3)
    F = identity_operad_morphism(P)
    C = P.component(1)
    # shift everything up by one: monotone, functorial, but 0 is not sent to 0
    F.functors[1].obj_map.update({a: min(a + 1, 3) for a in C.objects})
    F.functors[1].mor_map.update(
        {m: (min(m[0] + 1, 3), min(m[1] + 1, 3)) for m in C.morphism_ids()})
    report = validate_operad_morphism(F)
    assert not report.ok
    assert "unit" in str(report.witness)


def test_morphism_failing_a_component_names_its_arity():
    # every arrow sent to the identity of its source: the object map is
    # the identity, so the first arrow off the diagonal breaks its endpoints
    P = nat_operad(2)
    F = identity_operad_morphism(P)
    C = P.component(1)
    F.functors[1].mor_map.update({m: C.id_of(C.src(m)) for m in C.morphism_ids()})
    report = validate_operad_morphism(F)
    assert report.line() == ("operad morphism identity: fail (22 instances) witness="
                             "('component', 1, 'morphism (1, 0) is sent across wrong endpoints')")


def test_morphism_with_an_object_left_unmapped_fails_on_that_object():
    # the object 1 of nat:1's P_1 has no image; the identity check reads no
    # identity of a missing image, so the component fails where it is missing
    P = nat_operad(1)
    F = identity_operad_morphism(P)
    C = P.component(1)
    F.functors[1] = Functor(C, C, {0: 0}, {m: m for m in C.morphism_ids()})
    report = validate_operad_morphism(F)
    assert (report.status, report.witness) == ("fail", ("component", 1, "object 1 has no image"))


def test_bang_law_example():
    P = nat_operad(5)
    for a in range(6):
        assert P.apply_obj(bang(1), (0, a)) == a
    T = tree_operad(3)
    for t in T.component(3).objects:
        assert T.apply_obj(identity_surjection(3), (t, LEAF, LEAF, LEAF)) == t
