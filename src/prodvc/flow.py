"""Dinic max-flow with integer capacities.

All capacities are exact integers (callers scale rationals beforehand), so
min-cut comparisons are exact.  `max_flow` first pushes greedily along
every residual path source -> v -> u -> sink, the shape of a path in the
density layer's network, where each vertex has an arc from the source or
one to the sink, never both.  When this pre-pass saturates every arc out of
the source, the first level search labels the source alone and no Dinic
phase runs.  The level search that ends `max_flow`, the one that fails to
reach the sink, labels every node the source reaches in the residual graph,
so the minimal min-cut's source side is read off its levels with no second
search.  `min_cut_sink_side` is the set of nodes that reach the sink in the
residual graph; the rest is the maximal min-cut's source side.  Every
maximum flow has the same minimal and maximal sides, so the pre-pass moves
neither.
"""

from __future__ import annotations


class MaxFlow:
    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        # arcs stored flat: to[i], cap[i]; arc i^1 is the reverse arc
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int, reverse: int = 0) -> None:
        """Add the arc pair u -> v (`capacity`) and v -> u (`reverse`)."""
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(reverse)

    def _saturate_three_arc_paths(self, s: int, t: int) -> int:
        """Push greedily along every residual s -> v -> u -> t path, the
        shape of the density layer's paths; return the flow pushed.
        `into_t[u]` lists the arcs u -> t for u other than s: with s there,
        the walk s -> t -> s -> t could take one arc s -> t twice."""
        head, to, cap = self.head, self.to, self.cap
        into_t: dict[int, list[int]] = {}
        for i in head[t]:
            if to[i] != s:
                into_t.setdefault(to[i], []).append(i ^ 1)
        flow = 0
        for i in head[s]:
            for j in head[to[i]]:
                if not cap[i]:
                    break
                if not cap[j]:
                    continue
                for k in into_t.get(to[j], ()):
                    pushed = min(cap[i], cap[j], cap[k])
                    flow += pushed
                    for arc in (i, j, k):
                        cap[arc] -= pushed
                        cap[arc ^ 1] += pushed
        return flow

    def _bfs(self, s: int, t: int) -> bool:
        # a failing search labels all of s's residual reach: min_cut_source_side reads it
        head, to, cap = self.head, self.to, self.cap
        level = self.level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for v in queue:  # the queue grows while it is walked
            depth = level[v] + 1
            for i in head[v]:
                if cap[i] > 0 and level[to[i]] < 0:
                    level[to[i]] = depth
                    queue.append(to[i])
        return level[t] >= 0

    def _augment(self, s: int, t: int):
        """Push flow along one s-t path of the level graph; 0 once blocked.

        Iterative depth-first search: `path` holds the arcs from s to the
        current node, `it` the current-arc pointers, and a dead-end node
        leaves the level graph (`level[v] = -1`) for the rest of the phase.
        """
        head, to, cap, level, it = self.head, self.to, self.cap, self.level, self.it
        path: list[int] = []
        v = s
        while v != t:
            arcs = head[v]
            while it[v] < len(arcs):
                i = arcs[it[v]]
                if cap[i] > 0 and level[to[i]] == level[v] + 1:
                    path.append(i)
                    v = to[i]
                    break
                it[v] += 1
            else:
                if v == s:
                    return 0
                level[v] = -1
                v = to[path.pop() ^ 1]
                it[v] += 1
        pushed = min(cap[i] for i in path)
        for i in path:
            cap[i] -= pushed
            cap[i ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int):
        flow = self._saturate_three_arc_paths(s, t)
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                pushed = self._augment(s, t)
                if not pushed:
                    break
                flow += pushed
        return flow

    def min_cut_source_side(self) -> set[int]:
        """Nodes reachable from the source in the residual graph: those the
        last level search of `max_flow` labelled (call after max_flow)."""
        return {v for v, depth in enumerate(self.level) if depth >= 0}

    def min_cut_sink_side(self, t: int) -> set[int]:
        """Nodes that reach the sink t in the residual graph (call after
        max_flow): the complement of the maximal min-cut's source side."""
        head, to, cap = self.head, self.to, self.cap
        reach, queue = {t}, [t]
        for v in queue:  # the queue grows while it is walked
            for i in head[v]:  # arc i ^ 1 runs to[i] -> v
                if cap[i ^ 1] > 0 and to[i] not in reach:
                    reach.add(to[i])
                    queue.append(to[i])
        return reach
