"""DOT emitters: trees, hom-categories of an integration, factorizations.

Trees render root-at-top with a stub above the root vertex; when a tree
was assembled by grafting, the grafting joints can be drawn dashed,
which is how the cut line of a 1-cell is shown.  Node order is
deterministic, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import itertools

from . import trees as T
from .integration import Integration, OneCell, ZeroCell


def _quote(s) -> str:
    return '"%s"' % str(s).replace('"', '\\"')


def _walk_tree(t, parent: str, prefix: str, indent: str, lines: list, subs=None):
    """Emit the nodes of ``t`` below the node ``parent``, numbered in
    preorder.  With ``subs``, an iterator of trees, each leaf of ``t`` is
    replaced by the next tree of ``subs``, joined by a dashed edge."""
    counter = itertools.count()

    def walk(node, parent, subs, style):
        if node == T.LEAF and subs is not None:
            return walk(next(subs), parent, None, " [style=dashed]")
        name = "%s_n%d" % (prefix, next(counter))
        shape = 'none, label="", width=0.1' if node == T.LEAF else "point"
        lines.append('%s%s [shape=%s];' % (indent, name, shape))
        lines.append('%s%s -> %s%s;' % (indent, parent, name, style))
        if node != T.LEAF:
            for child in node:
                walk(child, name, subs, "")

    walk(t, parent, subs, "")


def tree_dot_body(t, prefix: str, lines: list) -> str:
    """Emit one tree; returns the id of its root stub node."""
    root = "%s_root" % prefix
    lines.append('  %s [shape=point, width=0.05];' % root)
    _walk_tree(t, root, prefix, "  ", lines)
    return root


def tree_to_dot(t) -> str:
    if not T.is_tree(t):
        raise ValueError("not a tree: %r" % (t,))
    lines = ["digraph tree {", "  rankdir=TB;"]
    tree_dot_body(t, "t0", lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cell_label(cell: OneCell) -> str:
    return "[%s; %s; %s]" % (cell.f, ",".join(map(str, cell.args)), cell.alpha)


def _tree_cell_cluster(cell: OneCell, prefix: str, lines: list):
    """A 1-cell of a tree integration as its grafted tree with a dashed cut.

    The total tree is the source object of the cell's component morphism;
    edges entering a grafted part are dashed, showing where the cut runs.
    """
    lines.append("  subgraph cluster_%s {" % prefix)
    lines.append('    label=%s;' % _quote(_cell_label(cell)))
    anchor = "%s_root" % prefix
    lines.append('    %s [shape=point, width=0.05];' % anchor)
    _walk_tree(cell.dst.obj, anchor, prefix, "    ", lines, iter(cell.args))
    lines.append("  }")
    return anchor


def hom_to_dot(I: Integration, src: ZeroCell, dst: ZeroCell) -> str:
    """One digraph per hom-category: nodes 1-cells, edges 2-cells."""
    H = I.hom(src, dst)
    is_tree_operad = all(T.is_tree(x.obj) for x in I.zero_cells())
    lines = ["digraph hom {", "  rankdir=TB;", "  compound=true;"]
    anchors = {}
    for idx, cell in enumerate(H.objects):
        if is_tree_operad:
            anchors[cell] = _tree_cell_cluster(cell, "c%d" % idx, lines)
        else:
            node = "c%d" % idx
            anchors[cell] = node
            lines.append("  %s [shape=box, label=%s];"
                         % (node, _quote(_cell_label(cell))))
    for t, s, d in H.morphisms():
        if s == d:
            continue  # identities clutter the picture
        lines.append("  %s -> %s [label=%s];"
                     % (anchors[s], anchors[d],
                        _quote(",".join(map(str, t.deltas)))))
    lines.append("}")
    return "\n".join(lines) + "\n"


def factorization_to_dot(I: Integration, phi: OneCell) -> str:
    """The component-then-cut factorization of one 1-cell."""
    e_part, m_part = I.factorize(phi)
    lines = ["digraph factorization {", "  rankdir=LR;"]
    nodes = {
        "src": str(phi.src),
        "mid": str(e_part.dst),
        "dst": str(phi.dst),
    }
    for key, label in nodes.items():
        lines.append("  %s [shape=ellipse, label=%s];" % (key, _quote(label)))
    lines.append("  src -> mid [label=%s];" % _quote(_cell_label(e_part)))
    lines.append("  mid -> dst [style=dashed, label=%s];"
                 % _quote(_cell_label(m_part)))
    lines.append("  src -> dst [label=%s, color=gray];"
                 % _quote(_cell_label(phi)))
    lines.append("}")
    return "\n".join(lines) + "\n"
