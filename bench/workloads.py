"""Workloads of the opint benchmark: seeded inputs, known answers, loops.

Two kinds of workload share this module.

* A *battery* runs a fixed list of checks on one builtin operad with
  ``cap=None``, from the operad spec to the last verdict.  Every verdict
  is known to be PASS.
* A *query stream* sends one-shot ``hom`` and ``factor`` queries through
  ``opint.cli.main(argv)`` in-process, one after another (a closed loop
  with one client).  Every query builds its operad from scratch, as an
  ``opint`` process would.  The stream is made of blocks; every block
  holds the same multiset of operad specs, so each seed yields the same
  mix of construction costs.  Verbs and the JSON-or-builtin choice take
  turns from block to block; the seed sets the order, the 0-cells and
  where the turns start.  That keeps the percentiles of one seed
  comparable with those of another.

Known answers come from outside the program: for ``nat:M`` from the
closed form of its homs, for ``trees:N`` from the lali property (every
hom into ``[1, "L"]`` has the canonical lift as terminal object) and from
``factor`` recomposing every cell.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import os
import random
import time
import traceback
from dataclasses import dataclass

clock = time.perf_counter

# The battery, in the order it runs.  Each entry: (name, module, function,
# what it is applied to).  All run with cap=None where they take a cap.
BATTERY = (
    ("check_unitality", "operads", "P"),
    ("check_associativity", "operads", "P"),
    ("check_two_category_laws", "integration", "I"),
    ("check_projection", "integration", "I"),
    ("check_factorization", "integration", "I"),
    ("check_operadic_axioms", "operadic", "O"),
    ("check_splitting", "operadic", "S"),
    ("check_all_lifts_cartesian", "operadic", "S"),
    ("check_trivial_subcategory", "operadic", "O"),
    ("roundtrip_operad", "operadic", "P"),
    ("roundtrip_2cat", "operadic", "S"),
)
TAKES_CAP = {"check_associativity", "check_two_category_laws", "check_projection",
             "check_factorization", "check_operadic_axioms", "check_splitting",
             "check_all_lifts_cartesian", "check_trivial_subcategory",
             "roundtrip_operad", "roundtrip_2cat"}


@dataclass(frozen=True)
class Battery:
    spec: str


@dataclass(frozen=True)
class Queries:
    """A query stream whose blocks each hold one query per entry of ``block``."""

    block: tuple
    blocks: int = 64        # distinct blocks generated; the stream cycles them
    trace_blocks: int = 2   # blocks run untraced and then traced by --trace 1


# One block of the cold query stream: 20 specs whose one-shot cost spans
# more than 100x (nat:2 and trees:3 take milliseconds, nat:22 about half a
# second).  The specs are grouped so that the median falls inside the
# trees:4 group and the 90th percentile inside the nat:16 group, not
# between two groups whose costs differ a lot.
QUERY_BLOCK = (
    ("nat", 2), ("nat", 3), ("nat", 4), ("nat", 5),
    ("trees", 3), ("trees", 3), ("trees", 3),
    ("trees", 4), ("trees", 4), ("trees", 4), ("trees", 4), ("trees", 4), ("trees", 4),
    ("nat", 10), ("nat", 12), ("trees", 5),
    ("nat", 16), ("nat", 16), ("nat", 16),
    ("nat", 22),
)
JSON_EVERY = 4      # one nat query in this many loads its operad from a JSON file

WORKLOADS = {
    "battery-trees5": Battery("trees:5"),
    "battery-nat3": Battery("nat:3"),
    "queries-cold": Queries(QUERY_BLOCK),
}
# Tiny versions of the same paths, for smoke.py.
SMOKE_WORKLOADS = {
    "smoke-trees3": Battery("trees:3"),
    "smoke-terminal3": Battery("terminal:3"),
    "smoke-queries": Queries((("nat", 2), ("nat", 3), ("trees", 2), ("trees", 3)),
                             blocks=2, trace_blocks=1),
}


# ---------------------------------------------------------------------------
# seeded inputs


@functools.lru_cache(maxsize=None)
def tree_shapes(n: int) -> tuple:
    """Reduced planar rooted trees with n leaves, in JSON form."""
    if n == 1:
        return ("L",)
    out = []
    for parts in _compositions(n):
        if len(parts) < 2:
            continue
        out.extend(_products([tree_shapes(p) for p in parts]))
    return tuple(out)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _products(choices):
    if not choices:
        return [[]]
    return [[head] + tail for head in choices[0] for tail in _products(choices[1:])]


def nat_operad_json(M: int) -> dict:
    """The operad nat:M as a JSON document, written from its definition."""
    values = range(M + 1)
    return {
        "bound": 1,
        "components": [{"poset": {"elements": list(values),
                                  "le": [[a, b] for a in values for b in values
                                         if a <= b]}}],
        "unit": 0,
        "mu": [{"g": "1->1:[1]",
                "graph": [[[c, b], min(c + b, M)] for c in values for b in values]}],
        "name": "nat:%d" % M,
    }


def nat_members(M: int, a: int, b: int) -> list:
    """Middle objects p of the 1-cells [1, a] -> [1, b] of nat:M, in order."""
    return [p for p in range(M + 1) if min(b + p, M) >= a]


def _nat_query(rng, M, verb, path):
    a, b = rng.randint(0, M), rng.randint(0, M)
    members = nat_members(M, a, b)
    cells = [{"f": "1->1:[1]", "args": [p], "alpha": [min(b + p, M), a],
              "src": [1, a], "dst": [1, b]} for p in members]
    expect = {"cells": cells}
    if verb == "hom":
        expect["terminal"] = cells[0]
    return {"argv": [verb, "--operad", path or "nat:%d" % M,
                     "--src", str(a), "--dst", str(b), "--json"],
            "family": "nat", "expect": expect}


def _trees_query(rng, N, verb):
    n = rng.randint(1, N)
    t = rng.choice(tree_shapes(n))
    src = [n, t]
    if verb == "hom":
        dst = [1, "L"]
        expect = {"src": src, "dst": dst,
                  "terminal": {"f": "%d->1:[%s]" % (n, ",".join(["1"] * n)),
                               "args": [t], "alpha": [t, t], "src": src, "dst": dst}}
    else:
        m = rng.randint(1, n)
        dst = [m, rng.choice(tree_shapes(m))]
        expect = {"src": src, "dst": dst}
    return {"argv": [verb, "--operad", "trees:%d" % N, "--src", json.dumps(src),
                     "--dst", json.dumps(dst), "--json"],
            "family": "trees", "expect": expect}


def make_queries(w: Queries, seed: int, json_dir: str) -> list:
    """The seeded query blocks, writing the JSON operad files they load.

    Returns a list of blocks, each a list of query dicts with the argv
    to pass to ``opint.cli.main`` and the known answer.
    """
    rng = random.Random(seed)
    paths = {}
    for family, size in w.block:
        if family == "nat" and size not in paths:
            paths[size] = os.path.join(json_dir, "nat-%d.json" % size)
            with open(paths[size], "w") as fh:
                json.dump(nat_operad_json(size), fh)
    # Each entry of the block takes turns from one block to the next: hom
    # and factor alternate, and one hom-factor pair in JSON_EVERY loads JSON.
    # The seed sets where each entry starts, so any run of whole blocks
    # holds nearly the same mix of verbs and loaders whatever the seed.
    phases = [rng.randrange(2 * JSON_EVERY) for _ in w.block]
    blocks = []
    for b in range(w.blocks):
        block = []
        for (family, size), phase in zip(w.block, phases):
            turn = b + phase
            verb = ("hom", "factor")[turn % 2]
            if family == "nat":
                path = paths[size] if turn // 2 % JSON_EVERY == 0 else None
                block.append(_nat_query(rng, size, verb, path))
            else:
                block.append(_trees_query(rng, size, verb))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# known answers


def check_answer(query: dict, rc: int, out: str) -> bool:
    """True when the query exited 0 and its output matches the known answer."""
    if rc != 0:
        return False
    payload = json.loads(out)
    expect = query["expect"]
    verb = query["argv"][0]
    if verb == "hom":
        cells = payload["one_cells"]
        term = payload["terminal"]
    else:
        if not all(entry["recomposes"] for entry in payload):
            return False
        cells = [entry["cell"] for entry in payload]
        term = None
    if "cells" in expect and cells != expect["cells"]:
        return False
    if "src" in expect and any(c["src"] != expect["src"] or c["dst"] != expect["dst"]
                               for c in cells):
        return False
    return "terminal" not in expect or term == expect["terminal"]


# ---------------------------------------------------------------------------
# runners


def build(spec: str):
    from opint import operads
    family, _, size = spec.partition(":")
    builder = {"nat": operads.nat_operad, "trees": operads.tree_operad,
               "terminal": operads.terminal_operad}[family]
    return builder(int(size))


def run_battery(spec: str, tracer=None, expected=None):
    """One battery from spec to last verdict.

    Returns ``(start, end, [(check, seconds, verdict_ok)])``.  ``expected``
    maps a check name to the status it should report (default "pass").
    """
    import opint
    from opint import integration, operadic
    expected = expected or {}
    begin = tracer.begin if tracer else (lambda name: None)
    end = tracer.end if tracer else (lambda: None)
    start = clock()
    begin("battery.prepare")
    P = build(spec)
    I = integration.integrate(P)
    S = operadic.canonical_fibration(I)
    end()
    targets = {"P": P, "I": I, "S": S, "O": S.operadic}
    results = []
    for name, module, arg in BATTERY:
        fn = getattr(getattr(opint, module), name)
        kwargs = {"cap": None} if name in TAKES_CAP else {}
        begin("check." + name)
        c0 = clock()
        try:
            out = fn(targets[arg], **kwargs)
            reports = out if isinstance(out, list) else [out]
            ok = all(r.status == expected.get(name, "pass") for r in reports)
        except Exception:       # a raising check is a failed check, not a crash
            traceback.print_exc()
            ok = False
        dt = clock() - c0
        end()
        results.append((name, dt, ok))
    return start, clock(), results


def run_query(query: dict, tracer=None):
    """One query through the CLI entry point; returns ``(start, end, ok)``.

    The garbage of earlier queries is collected first, untimed, so that each
    query starts from the same collector state, as a fresh process would.
    """
    from opint import cli
    buf = io.StringIO()
    gc.collect()
    if tracer:
        tracer.begin("query." + query["argv"][0])
    start = clock()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(query["argv"])
        ok = check_answer(query, rc, buf.getvalue())
    except Exception:           # a raising query is a failed query, not a crash
        traceback.print_exc()
        ok = False
    end = clock()
    if tracer:
        tracer.end()
    return start, end, ok


def run_block(block, tracer=None):
    """Queries of one block in order; returns ``[(start, end, ok)]``."""
    return [run_query(q, tracer) for q in block]
