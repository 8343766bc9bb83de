"""The structural checks as they were first written: an iterative Tarjan,
a predecessor search per cyclic class and a walk of the out-degree-1
vertices, all on the summed adjacency matrix.  The library's access-relation
version is compared with this copy."""

from typesemigroup.graphs import StructuralReport


def _sccs(n, succ):
    """Iterative Tarjan; components are emitted in a deterministic order."""
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    comps = []
    counter = [0]
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(sorted(succ[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(sorted(succ[w]))))
                    advanced = True
                    break
                elif onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def reference_structural_checks(vertices, A):
    """The report for named vertices and a summed adjacency matrix A."""
    n = len(vertices)
    succ = [set(w for w in range(n) if A[v][w] > 0) for v in range(n)]
    comps = _sccs(n, succ)
    cyclic = []
    for comp in comps:
        if len(comp) > 1 or A[comp[0]][comp[0]] > 0:
            cyclic.append(comp)
    preds = [set(v for v in range(n) if A[v][w] > 0) for w in range(n)]
    cofinal = True
    for comp in cyclic:
        reachers = set(comp)
        queue = list(comp)
        while queue:
            w = queue.pop()
            for v in preds[w]:
                if v not in reachers:
                    reachers.add(v)
                    queue.append(v)
        if len(reachers) != n:
            cofinal = False
            break
    # condition (L): walk the partial functional graph of out-degree-1 vertices
    outdeg = [sum(A[v]) for v in range(n)]
    single = {v: next(w for w in range(n) if A[v][w] > 0) for v in range(n) if outdeg[v] == 1}
    condition_l = True
    color = {v: 0 for v in single}
    for v0 in sorted(single):
        if color[v0]:
            continue
        path = []
        v = v0
        while v in single and color.get(v, 2) == 0:
            color[v] = 1
            path.append(v)
            v = single[v]
        if v in single and color.get(v) == 1:
            condition_l = False
            break
        for w in path:
            color[w] = 2
    return StructuralReport(
        cofinal=cofinal,
        condition_L=condition_l,
        strongly_connected=len(comps) == 1,
        cyclic_sccs=tuple(tuple(vertices[v] for v in comp) for comp in cyclic),
    )
