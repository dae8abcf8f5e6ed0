"""Acceptance suite: one test per contracted criterion, at full scale.

Each test prints a ``criterion N: pass/FAIL`` line (visible with -s or
on failure) and asserts both the checked facts and the runtime bound.
Criterion 3 checks the integration of ``nat:20`` against its membership
rule: a 1-cell ``[1,a] -> [1,b]`` is a middle object ``p`` with a
component arrow ``min(b+p, M) -> a``, so ``hom([1,a],[1,b])`` is
``{p : min(b+p, M) >= a}`` and is never empty.  The cut subcategory
(cells whose component arrow is an identity) is one-directional: it has
no cell ``[1,2] -> [1,5]`` and exactly one, ``p = 3``, ``[1,5] -> [1,2]``.
"""

import time

from opint.fincat import terminal_object
from opint.integration import (
    ZeroCell, check_factorization, check_projection, check_two_category_laws,
    integrate,
)
from opint.operads import (
    check_associativity, check_unitality, nat_operad, terminal_operad, tree_operad,
)
from opint.operadic import (
    canonical_fibration, check_all_lifts_cartesian, check_full_faithfulness,
    check_operadic_axioms, check_splitting, check_trivial_subcategory,
    roundtrip_2cat, roundtrip_operad,
)
from opint.trees import enumerate_trees
from test_integration import in_m_subcategory


def announce(number, ok, elapsed, detail=""):
    verdict = "pass" if ok else "FAIL"
    print("criterion %d: %s (%.1fs)%s" % (number, verdict, elapsed,
                                          " " + detail if detail else ""))


def oracle_tree_count(n):
    """Brute-force recursion, independent of the enumerator under test:
    count planar rooted trees with all internal arities >= 2 by splitting
    the leaf count across at least two children."""
    if n == 1:
        return 1

    def compositions(total):
        if total == 0:
            yield ()
        for head in range(1, total + 1):
            for rest in compositions(total - head):
                yield (head,) + rest

    total = 0
    for parts in compositions(n):
        if len(parts) < 2:
            continue
        product = 1
        for p in parts:
            product *= oracle_tree_count(p)
        total += product
    return total


def test_criterion_1_tree_counts():
    t0 = time.perf_counter()
    counts = [len(enumerate_trees(n)) for n in (1, 2, 3, 4)]
    expected = [oracle_tree_count(n) for n in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - t0
    ok = counts == expected == [1, 1, 3, 11] and elapsed < 1.0
    announce(1, ok, elapsed, "counts=%s" % counts)
    assert counts == [1, 1, 3, 11]
    assert expected == [1, 1, 3, 11]
    assert elapsed < 1.0


def test_criterion_2_operad_axiom_suite():
    t0 = time.perf_counter()
    reports = []
    for P in (nat_operad(8), tree_operad(4)):
        reports.append((P.name, check_associativity(P, cap=None)))
        reports.append((P.name, check_unitality(P)))
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for _, r in reports) and elapsed < 60.0
    announce(2, ok, elapsed,
             " ".join("%s/%s:%s" % (n, r.name, r.status) for n, r in reports))
    for name, r in reports:
        assert r.ok, (name, r.line())
    assert elapsed < 60.0


def test_criterion_3_saturating_chain_fixed_points():
    t0 = time.perf_counter()
    I = integrate(nat_operad(20))
    problems = []

    hom52 = I.hom(ZeroCell(1, 5), ZeroCell(1, 2))
    members = sorted(c.args[0] for c in hom52.objects)
    if members != list(range(3, 21)):
        problems.append("hom(5,2) members %s" % members)
    term = terminal_object(hom52)
    if term is None or term[0].args != (3,):
        problems.append("terminal of hom(5,2) is not 3")

    hom25 = I.hom(ZeroCell(1, 2), ZeroCell(1, 5))
    members = sorted(c.args[0] for c in hom25.objects)
    if members != [p for p in range(21) if min(5 + p, 20) >= 2]:
        problems.append("hom(2,5) members %s" % members)
    cuts25 = [c.args for c in hom25.objects if in_m_subcategory(I, c)]
    if cuts25:
        problems.append("cut part of hom(2,5) is %s, claimed empty" % cuts25)
    cuts52 = [c.args for c in hom52.objects if in_m_subcategory(I, c)]
    if cuts52 != [(3,)]:
        problems.append("cut part of hom(5,2) is %s, claimed [(3,)]" % cuts52)

    first = next(c for c in hom52.objects if c.args == (3,))
    second = next(c for c in I.hom(ZeroCell(1, 2), ZeroCell(1, 0)).objects
                  if c.args == (2,))
    composite = I.h_compose(second, first)
    if composite.args != (5,) or composite.dst != ZeroCell(1, 0):
        problems.append("composite of 3 and 2 is %s" % composite)

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    announce(3, ok, elapsed, "; ".join(problems))
    assert elapsed < 1.0
    # Both homs follow the membership rule {p : min(b+p, M) >= a}, so
    # neither is empty; only the cut subcategory is one-directional, with
    # no cell 2 -> 5 and the single cell p = 3 from 5 to 2.
    assert not problems, problems


def test_criterion_4_two_category_laws():
    t0 = time.perf_counter()
    failures = []
    for P in (nat_operad(5), tree_operad(3)):
        I = integrate(P)
        for r in check_two_category_laws(I, cap=None) + [check_projection(I, cap=None)]:
            if not r.ok:
                failures.append((P.name, r.line()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    announce(4, ok, elapsed)
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_5_strict_factorization():
    t0 = time.perf_counter()
    r = check_factorization(integrate(tree_operad(3)), cap=None)
    elapsed = time.perf_counter() - t0
    ok = r.ok and elapsed < 120.0
    announce(5, ok, elapsed, "%d instances" % r.checked)
    assert r.ok, r.line()
    assert elapsed < 120.0


def test_criterion_6_split_fibration_structure():
    t0 = time.perf_counter()
    failures = []
    details = []
    for P in (nat_operad(5), tree_operad(3)):
        S = canonical_fibration(integrate(P))
        # exhaustive: on nat:5 axiom (v) one-cells has 15,401,150 instances
        for r in check_operadic_axioms(S.operadic, cap=None):
            if r.name == "axiom (v) one-cells":
                details.append("%s %s:%s@%d" % (P.name, r.name, r.status, r.checked))
            if not r.ok:
                failures.append((P.name, r.line()))
        for r in (check_splitting(S, cap=None),
                  check_all_lifts_cartesian(S, cap=None)):
            if not r.ok:
                failures.append((P.name, r.line()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    announce(6, ok, elapsed, "; ".join(details))
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_7_roundtrips():
    t0 = time.perf_counter()
    failures = []
    for P in (nat_operad(5), tree_operad(3), terminal_operad(3)):
        cert = roundtrip_operad(P, cap=None)
        if not cert.ok:
            failures.append((P.name, cert.line()))
        cert = roundtrip_2cat(canonical_fibration(integrate(P)), cap=None)
        if not cert.ok:
            failures.append((P.name, cert.line()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    announce(7, ok, elapsed)
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_8_full_faithfulness():
    t0 = time.perf_counter()
    r = check_full_faithfulness(nat_operad(3), nat_operad(3))
    elapsed = time.perf_counter() - t0
    ok = r.ok and elapsed < 120.0
    announce(8, ok, elapsed, "; ".join(r.notes))
    assert r.ok, r.line()
    assert elapsed < 120.0


def test_criterion_9_trivial_cell_properties():
    t0 = time.perf_counter()
    S = canonical_fibration(integrate(tree_operad(3)))
    r = check_trivial_subcategory(S.operadic, cap=None)
    elapsed = time.perf_counter() - t0
    ok = r.ok and elapsed < 120.0
    announce(9, ok, elapsed, "%d instances" % r.checked)
    assert r.ok, r.line()
    assert elapsed < 120.0
