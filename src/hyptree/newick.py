"""Newick serialization of weighted trees.

Branch lengths are written with shortest round-trip float formatting, so a
write/parse cycle reproduces weights exactly.  Labels containing Newick
delimiters are single-quoted with ``''`` escaping.
"""

from __future__ import annotations

from .trees import TreeStructureError, WeightedTree, _walk

_NEEDS_QUOTES = set("()[]{}:;,'\" \t\n")


def _format_label(label: str) -> str:
    if not label or any(ch in _NEEDS_QUOTES for ch in label):
        return "'" + label.replace("'", "''") + "'"
    return label


def write_newick(tree: WeightedTree) -> str:
    """Serialize a tree; unrooted trees are anchored at an internal vertex."""
    if len(tree.vertices) == 1:
        label = tree.leaf_labels.get(tree.vertices[0], "")
        return _format_label(label) + ";"
    if tree.root is not None:
        anchor = tree.root
    else:
        adj = tree.adjacency()
        internal = sorted(v for v in tree.vertices if len(adj[v]) >= 2)
        # Two-leaf trees have no internal vertex; anchor at the smaller label.
        anchor = internal[0] if internal else min(
            tree.leaf_labels, key=tree.leaf_labels.get
        )
    # Walking the positions backwards renders every subtree before its
    # parent and meets each vertex's children in adjacency order.
    order, up, edge = _walk(tree, anchor)
    kids: list[list[str]] = [[] for _ in order]
    for k in range(len(order) - 1, -1, -1):
        v = order[k]
        label = _format_label(tree.leaf_labels[v]) if v in tree.leaf_labels else ""
        text = f"({','.join(kids[k])}){label}" if kids[k] else label
        if k:
            kids[up[k]].append(f"{text}:{tree.edges[edge[k]][2]!r}")
    return text + ";"


def parse_newick(text: str) -> WeightedTree:
    """Parse one Newick string into a WeightedTree.

    The outermost node is taken as the root when it has exactly two children;
    otherwise the tree is returned unrooted.  Labels on multi-child internal
    nodes are ignored.
    """
    s = text.strip()
    if not s.endswith(";"):
        raise TreeStructureError("Newick text must end with ';'")
    s = s[:-1]
    pos = 0

    def error(msg: str) -> TreeStructureError:
        return TreeStructureError(f"Newick parse error at offset {pos}: {msg}")

    def peek() -> str:
        return s[pos] if pos < len(s) else ""

    def parse_label() -> str:
        nonlocal pos
        if peek() == "'":
            pos += 1
            out = []
            while pos < len(s):
                if s[pos] == "'":
                    if pos + 1 < len(s) and s[pos + 1] == "'":
                        out.append("'")
                        pos += 2
                        continue
                    pos += 1
                    return "".join(out)
                out.append(s[pos])
                pos += 1
            raise error("unterminated quoted label")
        out = []
        while pos < len(s) and s[pos] not in "():;,":
            out.append(s[pos])
            pos += 1
        return "".join(out).strip()

    def parse_length() -> float:
        nonlocal pos
        if peek() != ":":
            return 0.0
        pos += 1
        start = pos
        while pos < len(s) and s[pos] not in "(),;:":
            pos += 1
        try:
            return float(s[start:pos])
        except ValueError:
            raise error(f"bad branch length {s[start:pos]!r}") from None

    # Vertex ids are handed out in text order, which is preorder, and a
    # child's edge is added once its subtree is complete.
    vertices: list[int] = []
    edges: list[tuple[int, int, float]] = []
    leaf_labels: dict[int, str] = {}
    open_ids: list[int] = []  # internal vertices whose ')' is still ahead
    while True:
        vid = len(vertices)
        vertices.append(vid)
        if peek() == "(":
            pos += 1
            open_ids.append(vid)
            continue
        label = parse_label()
        if label:
            leaf_labels[vid] = label
        # Attach the finished vertex, and every vertex its ')' finishes.
        while open_ids:
            edges.append((open_ids[-1], vid, parse_length()))
            if peek() == ",":
                pos += 1
                break
            if peek() != ")":
                raise error("expected ',' or ')'")
            pos += 1
            vid = open_ids.pop()
            label = parse_label()
        else:
            break
    if pos != len(s):
        raise error("trailing characters")

    top_kids = sum(u == 0 for u, _, _ in edges)
    # A labeled single-child top node is the anchored-leaf form used for
    # serializing two-leaf trees.
    if label and top_kids == 1:
        leaf_labels[0] = label
    root = 0 if top_kids == 2 else None
    return WeightedTree(tuple(vertices), tuple(edges), leaf_labels, root=root)
