import pytest

from opint.trees import (
    LEAF, contracts_to, corolla, enumerate_trees, graft, leaves,
    one_step_contractions, tree_from_json, tree_to_json,
)


def little_schroeder(n):
    """Independent oracle: s_1 = s_2 = 1, n*s_n = 3(2n-3)s_{n-1} - (n-3)s_{n-2}."""
    s = [0, 1, 1]
    while len(s) <= n:
        k = len(s)
        s.append((3 * (2 * k - 3) * s[k - 1] - (k - 3) * s[k - 2]) // k)
    return s[n]


def brute_force_trees(n):
    """Second enumeration, written independently: build trees bottom-up as
    sets, splitting the leaves across at least two children."""
    if n == 1:
        return {LEAF}
    found = set()

    def any_parts(total):
        yield (total,)
        for head in range(1, total):
            for tail in any_parts(total - head):
                yield (head,) + tail

    def splits(total):
        # compositions into at least two positive parts
        for head in range(1, total):
            for tail in any_parts(total - head):
                yield (head,) + tail

    for parts in splits(n):
        from itertools import product
        for kids in product(*[brute_force_trees(p) for p in parts]):
            found.add(tuple(kids))
    return found


def test_counts_match_oracles():
    for n in range(1, 7):
        ts = enumerate_trees(n)
        assert len(ts) == little_schroeder(n)
        assert set(ts) == brute_force_trees(n)
        assert len(set(ts)) == len(ts)


def test_small_cases():
    assert enumerate_trees(1) == (LEAF,)
    assert enumerate_trees(2) == (corolla(2),)
    three = enumerate_trees(3)
    assert len(three) == 3
    assert corolla(3) in three
    assert (LEAF, (LEAF, LEAF)) in three  # right comb
    assert ((LEAF, LEAF), LEAF) in three  # left comb
    assert len(enumerate_trees(4)) == 11


def test_leaf_counts():
    for n in range(1, 6):
        assert all(leaves(t) == n for t in enumerate_trees(n))


def test_one_step_contraction():
    left_comb = ((LEAF, LEAF), LEAF)
    assert list(one_step_contractions(left_comb)) == [corolla(3)]
    assert list(one_step_contractions(LEAF)) == []
    assert list(one_step_contractions(corolla(4))) == []


def test_contracts_to():
    left_comb = ((LEAF, LEAF), LEAF)
    assert contracts_to(left_comb, left_comb)
    assert contracts_to(left_comb, corolla(3))
    assert not contracts_to(corolla(3), left_comb)
    with pytest.raises(ValueError):
        contracts_to(corolla(3), corolla(4))


def contraction_oracle(s, t):
    """Transitive closure by plain breadth-first search, no caching."""
    frontier, seen = [s], {s}
    while frontier:
        u = frontier.pop()
        if u == t:
            return True
        for v in one_step_contractions(u):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return t in seen


def test_contraction_partial_order():
    for n in range(1, 5):
        ts = enumerate_trees(n)
        for s in ts:
            for t in ts:
                assert contracts_to(s, t) == contraction_oracle(s, t)
                # antisymmetry
                if s != t and contracts_to(s, t):
                    assert not contracts_to(t, s)
        # transitivity
        for a in ts:
            for b in ts:
                for c in ts:
                    if contracts_to(a, b) and contracts_to(b, c):
                        assert contracts_to(a, c)


def is_binary(t) -> bool:
    return t == LEAF or (len(t) == 2 and all(is_binary(c) for c in t))


def test_corolla_is_bottom_and_binaries_are_maximal():
    for n in range(2, 5):
        ts = enumerate_trees(n)
        bottom = corolla(n)
        assert all(contracts_to(s, bottom) for s in ts)
        maximal = [s for s in ts if all(not contracts_to(t, s) or t == s for t in ts)]
        assert sorted(map(repr, maximal)) == \
            sorted(repr(t) for t in ts if is_binary(t))


def test_grafting():
    c2 = corolla(2)
    assert graft(c2, [c2, LEAF]) == ((LEAF, LEAF), LEAF)
    assert graft(LEAF, [c2]) == c2
    assert graft(c2, [LEAF, LEAF]) == c2
    assert leaves(graft(corolla(3), [c2, LEAF, c2])) == 5
    with pytest.raises(ValueError, match="^need 2 subtrees, got 1$"):
        graft(c2, [LEAF])
    with pytest.raises(ValueError, match="^need 2 subtrees, got 3$"):
        graft(c2, [LEAF] * 3)


def test_grafting_preserves_contraction_order():
    c2 = corolla(2)
    for n in (2, 3):
        for b1 in enumerate_trees(n):
            for b2 in enumerate_trees(n):
                if contracts_to(b1, b2):
                    assert contracts_to(graft(c2, [b1, LEAF]), graft(c2, [b2, LEAF]))


def test_json_roundtrip():
    t = ((LEAF, LEAF, LEAF), LEAF, (LEAF, (LEAF, LEAF)))
    data = tree_to_json(t)
    assert data == [["L", "L", "L"], "L", ["L", ["L", "L"]]]
    assert tree_from_json(data) == t
    assert tree_to_json(LEAF) == "L"
    with pytest.raises(ValueError):
        tree_from_json(["L"])  # unary vertex is not reduced
