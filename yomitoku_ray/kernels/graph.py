"""Tiny graph structures used by reading order and table parsing.

``Node`` matches the reference's spatial-DAG node (utils/graph.py:1-20);
``LabeledDiGraph`` is a minimal dependency-free stand-in for the networkx
digraphs the reference's table parsers use — workers should not need
networkx for a few BFS passes.
"""

from __future__ import annotations


class Node:
    """Spatial-DAG node; parity with utils/graph.py:1-20."""

    __slots__ = ("id", "prop", "parents", "children", "is_locked")

    def __init__(self, id, prop):
        self.id = id
        self.prop = prop
        self.parents = []
        self.children = []
        self.is_locked = False

    def add_link(self, node):
        if node in self.children:
            return
        self.children.append(node)
        node.parents.append(self)

    def __repr__(self):
        if "contents" in self.prop:
            return str(self.prop["contents"])
        return "node"


class _NodesView:
    """Mapping-ish view over a LabeledDiGraph's nodes: ``u in G.nodes``,
    ``G.nodes[u] -> attr dict``, iteration in insertion order."""

    __slots__ = ("_attrs",)

    def __init__(self, attrs):
        self._attrs = attrs

    def __contains__(self, u):
        return u in self._attrs

    def __getitem__(self, u):
        return self._attrs[u]

    def __iter__(self):
        return iter(self._attrs)

    def __len__(self):
        return len(self._attrs)

    def __call__(self):
        return list(self._attrs)


class LabeledDiGraph:
    """Directed graph whose edges carry ONE string label (``dir``).

    Purpose-built replacement for the networkx DiGraphs the semantic/table
    parsers used: same observable semantics (insertion-ordered nodes and
    successors, add_edge overwrites the label of an existing edge — the
    networkx attr-update behavior the parsers rely on) at a fraction of the
    per-operation cost. Node attrs live in one dict per node.
    """

    __slots__ = ("_succ", "_pred", "_attrs")

    def __init__(self):
        self._succ = {}  # u -> {v: label} (insertion-ordered)
        self._pred = {}  # v -> {u: label}
        self._attrs = {}  # u -> attr dict

    # -- nodes ----------------------------------------------------------
    @property
    def nodes(self):
        return _NodesView(self._attrs)

    def add_node(self, u, **attrs):
        if u not in self._attrs:
            self._attrs[u] = {}
            self._succ[u] = {}
            self._pred[u] = {}
        self._attrs[u].update(attrs)

    def remove_node(self, u):
        for v in self._succ.pop(u, {}):
            self._pred[v].pop(u, None)
        for p in self._pred.pop(u, {}):
            self._succ[p].pop(u, None)
        self._attrs.pop(u, None)

    # -- edges ----------------------------------------------------------
    def add_edge(self, u, v, dir=None):
        self.add_node(u)
        self.add_node(v)
        self._succ[u][v] = dir
        self._pred[v][u] = dir

    def remove_edge(self, u, v):
        self._succ.get(u, {}).pop(v, None)
        self._pred.get(v, {}).pop(u, None)

    def remove_edges_from(self, pairs):
        for u, v in pairs:
            self.remove_edge(u, v)

    def edge_dir(self, u, v):
        return self._succ.get(u, {}).get(v)

    # -- traversal ------------------------------------------------------
    def successors(self, u):
        return list(self._succ.get(u, ()))

    def succ_by(self, u, label):
        return [v for v, lab in self._succ.get(u, {}).items() if lab == label]

    def pred_by(self, u, label):
        return [p for p, lab in self._pred.get(u, {}).items() if lab == label]

    # -- components -----------------------------------------------------
    def weakly_connected_components(self):
        """Components over all edges, yielded as sets in node-insertion
        order (networkx iteration-order parity)."""
        seen = set()
        for start in self._attrs:
            if start in seen:
                continue
            comp = set()
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                comp.add(u)
                for v in self._succ.get(u, {}):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
                for p in self._pred.get(u, {}):
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
            yield comp

    def branches_by(self, label):
        """True iff some node has two or more out-edges labelled ``label``."""
        return any(list(nbrs.values()).count(label) > 1 for nbrs in self._succ.values())

    def heads_by(self, label):
        """Line heads of the ``label``-edge subgraph: for each undirected
        component (isolates included, in node-insertion order), its nodes
        with no incoming ``label`` edge, sorted, or its least node when
        every node has one (a cycle)."""
        adj = {u: [] for u in self._attrs}
        has_in = set()
        for u, nbrs in self._succ.items():
            for v, lab in nbrs.items():
                if lab == label:
                    adj[u].append(v)
                    adj[v].append(u)
                    has_in.add(v)
        seen = set()
        heads = []
        for start in self._attrs:
            if start in seen:
                continue
            comp = [start]
            stack = [start]
            seen.add(start)
            while stack:
                for v in adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
                        comp.append(v)
            roots = [n for n in comp if n not in has_in]
            heads.extend(sorted(roots) if roots else [min(comp)])
        return heads

