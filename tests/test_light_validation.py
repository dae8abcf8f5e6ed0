"""Light validation settled by composable pairs.

A thin category is a preorder: once every composite is well typed, the two
sides of each unit and associativity law are parallel arrows, so equal.
``validate_category`` and ``validate_functor`` pass such cases without
composing the laws; ``_assoc_sweep`` reads each row shared by several heads
once.  The counts below come from a sweep written here, that composes every
law by ``C.compose``, and from closed forms, not from the program.  The
rule-backed tables refuse what is no operand tuple.
"""

import math
from collections import Counter

import pytest

from opint import jsonio
from opint import trees as T
from opint.fincat import FinCat, Functor, poset_category, validate_category, validate_functor
from opint.integration import integrate
from opint.operadic import canonical_fibration, extract_operad
from opint.operads import TruncatedOperad, _assoc_sweep, nat_operad, terminal_operad, \
    tree_operad, validate_operad
from opint.report import FAIL, PASS, Report
from opint.surjections import identity_surjection


def reference_sweep(C, name="category"):
    """The category axioms of C, every identity law and every composable
    triple evaluated by ``C.compose``; the pairs are found by scanning the
    objects, and problems read as ``validate_category`` words them."""
    def ids(*values):
        return "(%s)" % ", ".join(map(repr, values))

    problems, checked = [], 0
    for x in C.objects:
        checked += 1
        mid = C._identity.get(x)
        if mid is None or not C.has_morphism(mid):
            problems.append("object %r has no identity morphism" % (x,))
        elif (C.src(mid), C.dst(mid)) != (x, x):
            problems.append("identity of %r has endpoints %s" % (x, ids(C.src(mid), C.dst(mid))))
    into = {x: [f for a in C.objects for f in C.hom(a, x)] for x in C.objects}
    for g, gs, gd in C.morphisms():
        for f in into.get(gs, ()):
            checked += 1
            try:
                gf = C.compose(g, f)
            except (ValueError, KeyError):
                continue
            if not C.has_morphism(gf):
                problems.append("composite of %s is not a morphism: %r" % (ids(g, f), gf))
            elif (C.src(gf), C.dst(gf)) != (C.src(f), gd):
                problems.append("composite of %s has wrong endpoints" % ids(g, f))
    for m, s, d in C.morphisms():
        checked += 1
        try:
            if C.compose(m, C.id_of(s)) != m:
                problems.append("right identity law fails at %r" % (m,))
            if C.compose(C.id_of(d), m) != m:
                problems.append("left identity law fails at %r" % (m,))
        except (ValueError, KeyError):
            problems.append("identity laws cannot be evaluated at %r" % (m,))
    for h, hs, _ in C.morphisms():
        for g in into.get(hs, ()):
            for f in into.get(C.src(g), ()):
                checked += 1
                try:
                    if C.compose(C.compose(h, g), f) != C.compose(h, C.compose(g, f)):
                        problems.append("associativity fails on %s" % ids(h, g, f))
                except (ValueError, KeyError):
                    problems.append("associativity cannot be evaluated on %s" % ids(h, g, f))
    return Report(name, PASS if not problems else FAIL, checked, witness=problems[:5] or None,
                  notes=["%d problem(s)" % len(problems)] if problems else [])


def agrees(C):
    mine, ref = validate_category(C), reference_sweep(C)
    assert (mine.status, mine.checked, mine.witness, mine.notes) == \
        (ref.status, ref.checked, ref.witness, ref.notes)
    return mine


def components(P):
    return [P.component(n) for n in range(1, P.bound + 1)]


def homs(P):
    I = integrate(P)
    return [I.hom(x, y) for x in I.zero_cells() for y in I.targets(x)]


def test_reference_sweep_agrees_on_builtin_components():
    cats = [C for M in range(2, 9) for C in components(nat_operad(M))]
    cats += [C for N in range(2, 6) for C in components(tree_operad(N))]
    cats += components(terminal_operad(3))
    assert all(agrees(C).ok for C in cats)


def test_reference_sweep_agrees_on_cyclic_and_chaotic_components():
    # Z/3 has three parallel endomorphisms; the indiscrete category on Z/2
    # has one arrow between any two objects, so it is thin
    from test_cells import chaotic_operad
    from test_integration import cyclic_operad
    cats = components(cyclic_operad(2, 3)) + components(chaotic_operad())
    assert [C.is_thin() for C in cats] == [False, False, True, True]
    assert all(agrees(C).ok for C in cats)


@pytest.mark.parametrize("spec", ["trees:4", "cyclic:2:3",
                                  "cyclic:2:2", "cyclic:3:2", "cyclic:2:4"])
def test_reference_sweep_agrees_on_every_hom(spec):
    # cyclic:2:2, cyclic:3:2 and cyclic:2:4 bring their components too: 19
    # categories, 12 of them not thin, so the per-instance sweep judges them
    from test_integration import cyclic_operad
    if spec == "trees:4":
        cats = homs(tree_operad(4))
    else:
        N, k = map(int, spec.split(":")[1:])
        P = cyclic_operad(N, k)
        cats = homs(P) if spec == "cyclic:2:3" else components(P) + homs(P)
    assert cats and all(agrees(C).ok for C in cats)


@pytest.mark.parametrize("patch", [
    {((1, 2), (0, 1)): (0, 1)}, {((1, 2), (0, 1)): None}, {((0, 1), (0, 0)): "p"},
    {((1, 1), (0, 1)): "p"}, {((2, 3), (0, 2)): "q"}],
    ids=["wrong-endpoints", "raises", "right-identity", "left-identity", "associativity"])
def test_reference_sweep_agrees_on_seeded_rule_categories(patch):
    # each breaks one law of a chain whose composites are computed by a
    # rule; those with an extra parallel arrow p or q are not thin
    from test_fincat import chain_table
    extra = {"p": ("p", (0, 1)), "q": ("q", (0, 3))}.get(next(iter(patch.values())))
    C = chain_table(3, extra=extra, patch=patch, rule=True)
    assert agrees(C).status == FAIL


@pytest.mark.parametrize("M", range(1, 61))
def test_nat_light_validation_reads_closed_form_counts(M):
    # P_1 of nat:M is the chain 0..M: with n = M + 1 elements it has n
    # objects, C(n+1, 2) arrows a >= b, C(n+2, 3) composable pairs and
    # C(n+3, 4) composable triples; object associativity reads every
    # (c, b, a) in 0..M once
    n = M + 1
    reports = {r.name: r for r in validate_operad(nat_operad(M))}
    assert all(r.ok for r in reports.values())
    assert reports["category P_1"].checked == \
        n + math.comb(n + 1, 2) + math.comb(n + 2, 3) + math.comb(n + 3, 4)
    assert reports["associativity (objects)"].checked == n ** 3


def test_thin_category_composes_each_pair_once():
    C = nat_operad(22).component(1)
    calls = []

    def compose(g, f):
        calls.append((g, f))
        return C.compose(g, f)

    counted = FinCat(C.objects, C.morphisms(), {x: C.id_of(x) for x in C.objects}, compose)
    r = validate_category(counted)
    assert (r.status, r.checked) == (PASS, 17549)
    assert len(calls) == len(set(calls)) == math.comb(25, 3) == 2300


class CountingTable(dict):
    """A plain table that counts its reads by ``[]``."""
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def nat_with_table(M, patch=()):
    """nat:M with mu given by a counting plain table, ``patch`` applied."""
    P, g = nat_operad(M), identity_surjection(1)
    F, objects = P.mu[g], P.component(1).objects
    table = CountingTable({(c, b): F.obj_map[c, b] for c in objects for b in objects})
    table.update(patch)
    P.mu[g] = Functor(F._source, F.target, table, F.mor_map)
    return P, g, table


@pytest.mark.parametrize("M", [1, 6, 12])
def test_object_sweep_reads_each_shared_row_once(M):
    # f = g = id_1 on nat:M: heads (c, b), tails (a,); mu_g is read once per
    # head, the inner row mu(b, -) once per b, the outer row mu(v, -) once per
    # value v = min(c + b, M) (each of 0..M), and the right row mu(c, -) once
    # per c, at each inner value i (each of 0..M)
    n = M + 1
    P, g, table = nat_with_table(M)
    r = Report("associativity (objects)")
    assert _assoc_sweep(P, g, g, False, r)
    assert (r.status, r.checked) == (PASS, n ** 3)
    assert table.reads == 4 * n * n


def test_light_validation_checks_each_value_once(monkeypatch):
    # nat:22 has one pair, f = g = id_1: each of its 23 values of mu_g and of
    # its 23 inner values (the same 0..22) is checked once, not once per head
    # (23 * 23 + 23 = 552 calls)
    P, calls = nat_operad(22), []

    def check_objects(arities, args):
        calls.append(args)
        return TruncatedOperad.check_objects(P, arities, args)

    monkeypatch.setattr(P, "check_objects", check_objects, raising=False)
    assert all(r.ok for r in validate_operad(P))
    assert len(calls) == 46
    assert Counter(calls) == {(v,): 2 for v in range(23)}


def test_object_sweep_reads_the_right_row_of_its_own_outer_object():
    # mu(1, 0) = 0 instead of 1 on nat:6.  Heads (0, b) pass, reading row
    # mu(0, -) at every inner value.  Head (1, 0) has v = 0, so its left row
    # is mu(0, -) = (0..6), while its right row is mu(1, mu(0, a)) =
    # (0, 2, 3, ...): the loop fails at a = 1, 0 + 1 = 1 against 1 + 1 = 2.
    # Read from row mu(0, -), as by a row keyed on the inner value alone,
    # the right row would be (0..6) too, and head (1, 0) would pass
    P, g, _ = nat_with_table(6, {(1, 0): 0})
    r = Report("associativity (objects)")
    assert not _assoc_sweep(P, g, g, False, r)
    assert (r.status, r.checked) == (FAIL, 7 * 7 + 2)
    assert r.witness == ("1->1:[1]", "1->1:[1]", (1, 0, 1), 1, 2)


def test_object_sweep_fails_where_a_head_reuses_its_outer_row():
    # mu(1, 2) = 4 instead of 3 on nat:6.  Heads (0, b) pass (the outer and
    # inner rows agree), and so does (1, 0); head (1, 1) has v = 2, whose
    # outer row head (0, 2) read and passed, and fails at a = 1:
    # (1 + 1) + 1 = 3 but 1 + mu(1, 1 + 1) = 1 + 4 -> 4
    P, g, _ = nat_with_table(6, {(1, 2): 4})
    r = Report("associativity (objects)")
    assert not _assoc_sweep(P, g, g, False, r)
    assert (r.status, r.checked) == (FAIL, 58)
    assert r.witness == ("1->1:[1]", "1->1:[1]", (1, 1, 1), 3, 4)


def derived_nat(M):
    """nat:M through JSON, its morphism tables derived by the loader: RuleMaps."""
    from test_cli import nat_json_without_mor_graph
    return jsonio.operad_from_json(nat_json_without_mor_graph(M))


@pytest.mark.parametrize("build", [nat_operad, tree_operad, derived_nat],
                         ids=["nat", "trees", "derived-json"])
def test_rule_tables_refuse_what_is_no_operand_tuple(build):
    # a key of the wrong length, an entry outside its factor, or an object
    # where a morphism id belongs raises KeyError, and nothing is stored
    P = build(3)
    beyond = (4, T.corolla(4))   # neither an object nor a morphism id of P_1..P_3
    for g, F in P.mu.items():
        cats = [P.component(a) for a in P.arg_arities(g)]
        objects = tuple(C.objects[0] for C in cats)
        morphisms = tuple(C.id_of(x) for C, x in zip(cats, objects))
        for table, good in ((F.obj_map, objects), (F.mor_map, morphisms)):
            stored = dict(table)
            bad = [good[:-1], good + good[-1:]] + [good[:-1] + (x,) for x in beyond]
            for key in bad + [objects] * (table is F.mor_map):
                with pytest.raises(KeyError):
                    table[key]
                assert key not in table
            assert dict(table) == stored
        assert F.mor_map[morphisms] == P.component(g.dom).id_of(F.obj_map[objects])


def test_extracted_light_validation_walks_the_factors():
    # the extracted mu tables are plain, so each is validated as a functor
    # over the product of its factors, its composable pairs charged, not composed
    Q = extract_operad(canonical_fibration(integrate(tree_operad(4))))
    reports = [(r.name, r.status, r.checked) for r in validate_operad(Q)]
    assert reports == [
        ("category P_1", PASS, 4), ("category P_2", PASS, 4), ("category P_3", PASS, 24),
        ("category P_4", PASS, 204), ("mu coverage", PASS, 15), ("mu typing", PASS, 49),
        ("unitality", PASS, 108), ("associativity (objects)", PASS, 106),
        ("mu on morphisms", PASS, 378)]


def counting_chain(n, calls):
    """The chain 0..n whose composition records each call in ``calls``."""
    C = poset_category(range(n + 1), lambda a, b: a <= b)

    def compose(g, f):
        calls.append((g, f))
        return C.compose(g, f)

    return FinCat(C.objects, C.morphisms(), {x: C.id_of(x) for x in C.objects}, compose)


def test_functor_into_thin_target_charges_pairs_without_composing():
    # 3 objects, 6 morphisms, 3 identities and C(5, 3) = 10 composable pairs
    source_calls, target_calls = [], []
    C, D = counting_chain(2, source_calls), counting_chain(2, target_calls)
    F = Functor(C, D, {x: x for x in C.objects}, {m: m for m in C.morphism_ids()})
    source_calls.clear()
    r = validate_functor(F)
    assert (r.status, r.checked) == (PASS, 3 + 6 + 3 + 10)
    assert source_calls == target_calls == []


def test_functor_into_target_with_parallel_arrows_composes_each_pair():
    # Z/3 -> Z/3 sending 1 and 2 to 1: well typed and unital, but
    # F(1 + 1) = 1 while F1 + F1 = 2
    from test_integration import cyclic_operad
    C = cyclic_operad(1, 3).component(1)
    F = Functor(C, C, {"*": "*"}, {0: 0, 1: 1, 2: 1})
    r = validate_functor(F)
    assert (r.status, r.checked) == (FAIL, 1 + 3 + 1 + 9)
    assert r.witness[0] == "composition not preserved on (1, 1)"


def test_extracted_mu_functors_are_charged_every_composable_pair():
    # extract_operad returns plain mu tables, so light validation checks
    # each mu_g on morphisms; its targets are thin
    Q = extract_operad(canonical_fibration(integrate(tree_operad(4))))
    total = 0
    for mu in Q.mu.values():
        C = mu.source
        pairs = sum(len(C.hom(a, s)) for _, s, _ in C.morphisms() for a in C.objects)
        r = validate_functor(mu)
        assert mu.target.is_thin() and (r.status, r.checked) == \
            (PASS, 2 * len(C.objects) + len(C.morphism_ids()) + pairs)
        total += r.checked
    reports = {r.name: r for r in validate_operad(Q)}
    assert (reports["mu on morphisms"].status, reports["mu on morphisms"].checked) == \
        (PASS, total)


def test_is_thin():
    assert poset_category(range(3), lambda a, b: a <= b).is_thin()
    assert not FinCat([0], [("e", 0, 0), ("s", 0, 0)], {0: "e"}, {}).is_thin()
    # one arrow per pair of endpoints, but one endpoint is no object
    assert not FinCat([0], [("e", 0, 0), ("s", 0, 1)], {0: "e"}, {}).is_thin()


def test_arrow_to_a_missing_object_takes_the_sweeps():
    # every composite is kept and well typed, yet the left identity law of
    # s: 0 -> 1 cannot be evaluated, as 1 is no object
    C = FinCat([0], [("e", 0, 0), ("s", 0, 1)], {0: "e"}, {("e", "e"): "e", ("s", "e"): "s"})
    r = agrees(C)
    assert (r.status, r.witness) == (FAIL, ["identity laws cannot be evaluated at 's'"])
