"""Output checks that do not trust the library's own reasoning.

Witnesses are re-verified from the definitions, on adjacency rebuilt from
the generated edge lists; the protocol is re-run from a trace's delivery log.
"""

from __future__ import annotations


def in_sets(n: int, edges) -> list[set[int]]:
    ins: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        ins[v].add(u)
    return ins


def partition_errors(n: int, edges, f: int, r: int, witness: dict) -> list[str]:
    """A violating partition: |F| <= f, F/L/C/R disjoint and covering every
    node, L and R non-empty, no L node with >= r in-edges from C|R and no R
    node with >= r in-edges from L|C."""
    sets = {k: set(witness.get(k, ())) for k in ("F", "L", "C", "R")}
    errs = []
    if len(sets["F"]) > f:
        errs.append(f"|F|={len(sets['F'])} exceeds f={f}")
    if sum(len(s) for s in sets.values()) != n or set().union(*sets.values()) != set(range(n)):
        errs.append("F, L, C, R do not partition the nodes")
    if not sets["L"] or not sets["R"]:
        errs.append("L or R is empty")
    ins = in_sets(n, edges)
    for side, cross in (("L", sets["C"] | sets["R"]), ("R", sets["L"] | sets["C"])):
        for v in sets[side]:
            if len(ins[v] & cross) >= r:
                errs.append(f"{side} node {v} has >= {r} cross in-edges")
    return errs


def _source_components(nodes: list[int], kept_edges) -> list[list[int]]:
    """Source components of the condensation, by brute-force reachability."""
    out = {v: set() for v in nodes}
    for u, w in kept_edges:
        out[u].add(w)
    reach = {}
    for v in nodes:
        seen, todo = {v}, [v]
        while todo:
            for w in out[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach[v] = seen
    # v lies in a source component iff everything that reaches v is reached by v.
    sources = [v for v in nodes if all(v not in reach[u] or u in reach[v] for u in nodes)]
    comps = {frozenset(u for u in sources if u in reach[v] and v in reach[u]) for v in sources}
    return sorted(sorted(c) for c in comps)


def reduction_errors(n: int, edges, f: int, min_source_size: int, witness: dict) -> list[str]:
    """A failing reduced graph: |F| <= f, kept edges drawn from the edges
    among survivors, at most f further in-edges dropped per survivor, and no
    unique source component of at least min_source_size nodes."""
    removed = set(witness["F"])
    kept = {tuple(e) for e in witness["kept_edges"]}
    errs = []
    if len(removed) > f or len(removed) >= n:
        errs.append(f"fault set {sorted(removed)} too large")
    survivors = [v for v in range(n) if v not in removed]
    base = {(u, v) for u, v in map(tuple, edges) if u not in removed and v not in removed}
    if not kept <= base:
        errs.append("kept edges not in the graph minus F")
    for v in survivors:
        lost = sum(1 for e in base - kept if e[1] == v)
        if lost > f:
            errs.append(f"node {v} lost {lost} > f in-edges")
    comps = _source_components(survivors, kept)
    if comps != sorted(sorted(c) for c in witness["source_components"]):
        errs.append("reported source components differ from the recomputed ones")
    if len(comps) == 1 and len(comps[0]) >= min_source_size:
        errs.append("reduced graph has a unique, large enough source component")
    return errs


def replay(protocol, trace) -> tuple[bool, int, int, int]:
    """Feed the delivery log to fresh fault-free node states through
    NodeState.ingest_message / apply_update, updating a node whenever it is
    ready and the trace holds that round.  Returns (values equal the
    trace's, updates, messages stored, messages ingested)."""
    cfg = trace.config
    require_all = cfg.scheduler.kind == "synchronous"
    states = {
        v: protocol.init_node(v, cfg.inputs[v], cfg.graph, cfg.f, require_all=require_all)
        for v in trace.values
    }
    values = {v: [st.value] for v, st in states.items()}
    updates = stored = ingested = 0

    def catch_up(v: int) -> None:
        nonlocal updates
        st, seq, limit = states[v], values[v], len(trace.values[v])
        while len(seq) < limit and st.round_ready():
            seq.append(st.apply_update())
            updates += 1

    for v in states:
        catch_up(v)
    message = protocol.RoundMessage
    for d in trace.deliveries:
        st = states.get(d.receiver)
        if st is None:
            continue
        ingested += 1
        stored += st.ingest_message(message(d.sender, d.tag, d.value))
        catch_up(d.receiver)
    return values == trace.values, updates, stored, ingested
