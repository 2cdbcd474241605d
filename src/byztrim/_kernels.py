"""Condition-check kernels.

These are the hot inner loops of the robustness checks over bitmask
graphs: the pruned depth-first partition search, behind an exact
fault-free screen, and the incremental reduced-graph sweep.  Both carry a
search budget and are cross-checked against the naive enumerations in the
test oracles.  `source_components` names the source components of a
failing reduction for its witness.  Each cut is stated where it is made:
the screen in violating_partition, the reach, mirror and twin cuts in
_search, the leaf-batch scoring in failing_reduction.

Graphs are passed as per-node in-neighbour bitmasks.  Search orders are
part of the contract:

* fault sets F by increasing size, then lexicographic on the sorted tuple;
* L/C/R assignments in the order of base-3 counters over the surviving
  nodes in node order (most significant digit = smallest node id; digit
  0=L, 1=C, 2=R), so the first violating partition is the canonical one
  (each cut skips only partitions with an equally violating one earlier);
* per-node in-edge removals in lexicographic combination order, with the
  last surviving node varying fastest.
"""

from __future__ import annotations

import itertools

# perfbench/run.py records this in every result; there is no other backend.
BACKEND = "pure"

# Search verdicts, as reports and the CLI print them.
PASS = "pass"
FAIL = "fail"
BUDGET_EXCEEDED = "budget-exceeded"


def _fault_masks(n: int, f: int, pred: list[int]) -> list[int]:
    """Fault sets of size <= f, by size then lexicographic, that hold
    pred[v], a bitmask of nodes before v, whenever they hold v.

    With pred all 0 this is every fault set.  With twin predecessors it is
    every fault set that is a prefix of each twin class.  The sets of size
    k are built from those of size k - 1, in their order, each grown by
    every larger node v whose pred[v] it holds, in increasing order.  That
    keeps lexicographic order and builds no other set.
    """
    masks = [0]
    # (fault set, the smallest node it may still grow by)
    level = [(0, 0)]
    for _ in range(min(f, n)):
        level = [
            (mask | 1 << v, v + 1)
            for mask, low in level
            for v in range(low, n)
            if not pred[v] & ~mask
        ]
        masks += [mask for mask, _ in level]
    return masks


def _twin_predecessors(n: int, in_masks: tuple[int, ...], out_masks: list[int]) -> list[int]:
    """Per node, the bit of the member before it in its twin class, or 0.

    Nodes a < b are twins when swapping them is an automorphism: the same
    in- and out-neighbours apart from each other, and a->b iff b->a.
    Twinness is transitive (swapping a, c is swapping a, b conjugated by
    swapping b, c), so each node joins the class of the first earlier node
    it is a twin of, and every transposition inside a class is an
    automorphism.
    """

    def twins(a: int, b: int) -> bool:
        ab, bb = 1 << a, 1 << b
        return (
            in_masks[a] & ~bb == in_masks[b] & ~ab
            and out_masks[a] & ~bb == out_masks[b] & ~ab
            and (in_masks[b] >> a & 1) == (in_masks[a] >> b & 1)
        )

    pred = [0] * n
    classes: list[list[int]] = []
    for b in range(n):
        for members in classes:
            if twins(members[0], b):
                pred[b] = 1 << members[-1]
                members.append(b)
                break
        else:
            classes.append([b])
    return pred


def violating_partition(
    n: int, in_masks: tuple[int, ...], f: int, r: int, budget: int
) -> tuple[str, int, tuple[int, int, int, int] | None]:
    """First partition (F, L, C, R) with |F| <= f, L and R non-empty, where
    no node of L has >= r in-neighbours in C|R and no node of R has >= r
    in-neighbours in L|C.

    For f >= 1 a fault-free screen, the search with F empty at threshold
    r + f, runs first when every node has in-degree >= r + f.  It is exact:
    if (F, L, C, R) violates at r, then (empty, L, C|F, R) violates at
    r + f, since a node of L or R gains at most |F| <= f in-neighbours
    outside its side when F joins C.  So the screen's PASS is the answer.
    Below the floor it cannot pass, since (empty, {v}, empty, V - {v})
    violates at r + f >= 2 for a node v under it.  Otherwise (skipped,
    failed or over the budget) the search over every fault set runs, with
    the full budget, and its report is returned unchanged; for f = 0 that
    search is the screen.  A screen-decided PASS counts the screen's nodes
    in `examined`, and where the search without the screen exceeds the
    budget it is a new verdict.  The worst case visits 2 * budget nodes.

    Returns (status, examined, witness) with witness = (F, L, C, R)
    bitmasks on FAIL; see _search.  The out-masks and twin predecessors are
    computed once for both searches.
    """
    out_masks = [0] * n
    for v in range(n):
        for u in _bits(in_masks[v]):
            out_masks[u] |= 1 << v
    pred = _twin_predecessors(n, in_masks, out_masks)
    if f and all(ins.bit_count() >= r + f for ins in in_masks):
        screen = _search(n, in_masks, out_masks, pred, [0], r + f, budget)
        if screen[0] == PASS:
            return screen
    return _search(n, in_masks, out_masks, pred, _fault_masks(n, f, pred), r, budget)


def _search(
    n: int,
    in_masks: tuple[int, ...],
    out_masks: list[int],
    pred: list[int],
    fault_masks: list[int],
    r: int,
    budget: int,
) -> tuple[str, int, tuple[int, int, int, int] | None]:
    """First violating partition at threshold r whose fault set is one of
    `fault_masks`, taken in their order.

    Depth-first search: per fault set, the surviving nodes are placed in id
    order, each trying L, C, then R, so complete assignments are reached in
    the canonical base-3 order.  Three cuts prune it.

    Reach: no violating partition lies below a placed L node with r placed
    in-neighbours in C|R, or a placed R node with r in L|C, since counts
    only grow.  Placing v can newly reach only v and the placed L and R
    nodes it feeds, so each placement runs two tests, one per side (as in
    the r-reachable sets of LeBlanc, Zhang, Koutsoukos and Sundaram, IEEE
    JSAC 2013): v's L out-neighbours against C|R|v and its R out-neighbours
    against L|C|v.  The R and C pushes read the L test, the C and L pushes
    the R test (so it is skipped when v must go to R), and the R and L
    pushes v's own in-count.

    Mirror: an R placement while L is still empty is cut, since the L/R
    mirror of any partition below it violates equally and comes first.

    Twins (see _twin_predecessors): a swap of twins maps a violating
    partition to one that violates equally, with the same |F|.  So the
    search visits only fault sets that are a prefix of each twin class
    (for any other the swap gives an earlier one; _fault_masks builds just
    these), and within each class's survivors it places digits that never
    decrease in node order: a node skips L after a twin placed in C and
    goes to R after a twin placed in R.

    Every placement tried is one examined search node; expanding a node
    tries all its placements at once.  Returns (status, examined, witness)
    with witness = (F, L, C, R) bitmasks on FAIL.  Once examined would
    exceed budget the search stops with BUDGET_EXCEEDED, reporting
    examined == budget + 1.
    """

    def reached(nodes: int, within: int) -> bool:
        # Does some node of `nodes` have >= r in-neighbours in `within`?
        while nodes:
            low = nodes & -nodes
            if (in_masks[low.bit_length() - 1] & within).bit_count() >= r:
                return True
            nodes ^= low
        return False

    examined = 0
    for f_mask in fault_masks:
        # Per survivor: its bit, in- and out-masks, and the bit of its
        # previous surviving twin (0 if none).
        nodes = [
            (1 << v, in_masks[v], out_masks[v], pred[v] & ~f_mask)
            for v in range(n)
            if not f_mask >> v & 1
        ]
        last = len(nodes)
        if last < 2:
            continue
        # Entries (next index, L, C, R); children are pushed R, C, L so that
        # L is expanded first.
        stack = [(0, 0, 0, 0)]
        while stack:
            i, lm, cm, rm = stack.pop()
            if i == last:
                if lm and rm:
                    return (FAIL, examined, (f_mask, lm, cm, rm))
                continue
            bit, ins, outs, twin = nodes[i]
            i += 1
            # The lowest digit this node may take (L=0, C=1, R=2).
            low = 0
            if twin and twin & (cm | rm):
                low = 2 if twin & rm else 1
            examined += (3 if lm else 2) - low
            if examined > budget:
                return (BUDGET_EXCEEDED, budget + 1, None)
            l_hit = reached(outs & lm, cm | rm | bit)
            r_hit = low < 2 and reached(outs & rm, lm | cm | bit)
            if lm and not l_hit and (ins & (lm | cm)).bit_count() < r:
                stack.append((i, lm, cm, rm | bit))
            if low < 2 and not (l_hit or r_hit):
                stack.append((i, lm, cm | bit, rm))
            if not low and not r_hit and (ins & (cm | rm)).bit_count() < r:
                stack.append((i, lm | bit, cm, rm))
    return (PASS, examined, None)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def failing_reduction(
    n: int,
    in_masks: tuple[int, ...],
    f: int,
    min_source_size: int,
    budget: int,
) -> tuple[str, int, tuple[int, dict[int, int]] | None]:
    """Search reduced graphs for one whose source components violate the
    requirement, examining only minimal reductions (exactly min(f, in-degree)
    extra in-edges removed per node).

    Source-component existence/size requirements are monotone in the edge
    set, so the minimal reductions decide the verdict for the whole family.

    Requirement: the reduction has a unique source component of size
    >= min_source_size (min_source_size=1 is the exactly-one-source check).
    That holds iff at least min_source_size nodes reach every survivor.

    Per fault set, the kept in-sets are chosen node by node in
    itertools.product order (last survivor fastest) as a depth-first
    search that carries desc[x], the bitmask of nodes x reaches so far.
    Giving node v the kept in-set K adds the edges K -> v, so exactly the
    nodes that reach K gain desc[v]; desc[v] itself cannot change.  Above
    the last survivor z, the nodes that can become roots are fixed, so the
    leaves (one per kept in-set of z) are scored without walking the graph.

    One loop scores a leaf batch for every min_source_size.  A node x != z
    is a root iff it reaches every survivor outside desc[z] (a candidate)
    and some node of z's kept in-set; z is one iff it reaches every
    survivor, leaving `need` roots to find.  A kept in-set that meets no candidate's reach
    fails; roots are counted only when need > 1.  When z reaches every
    survivor, each of the |in(z) - F| - min(f, |in(z) - F|) nodes of its
    kept in-set is a root, so when that covers `need` no leaf fails and the
    batch is counted without scoring its leaves.

    Every leaf is one examined reduction, skipped or scored, so examined,
    the budget and the first failing reduction do not depend on the
    shortcut.  Returns (status, examined, witness) where witness is
    (fault_mask, {node: kept in-mask}) for the first failing reduction.
    Once examined would exceed budget the search stops with
    BUDGET_EXCEEDED, reporting examined == budget + 1.
    """
    examined = 0
    for f_mask in _fault_masks(n, min(f, n - 1), [0] * n):
        survivors = [v for v in range(n) if not (f_mask >> v) & 1]
        options: list[list[int]] = []
        for v in survivors:
            base = in_masks[v] & ~f_mask
            nbrs = list(_bits(base))
            w = min(f, len(nbrs))
            kept_options = []
            for removal in itertools.combinations(nbrs, w):
                drop = 0
                for u in removal:
                    drop |= 1 << u
                kept_options.append(base & ~drop)
            options.append(kept_options)
        full = ((1 << n) - 1) & ~f_mask
        last = len(survivors) - 1
        last_options = options[last]
        # |kept in-set| of z, the same for each of its options.
        kept_z = last_options[0].bit_count()
        # Entries (index of the next survivor, desc by survivor index, kept
        # in-sets chosen so far as a linked list (kept, parent) in reverse).
        stack = [(0, [1 << v for v in survivors], None)]
        while stack:
            i, desc, chosen = stack.pop()
            if i < last:
                dv = desc[i]
                for kept in reversed(options[i]):
                    stack.append(
                        (i + 1, [d | dv if d & kept else d for d in desc], (kept, chosen))
                    )
                continue
            # Leaves: roots besides z still needed.
            dz = desc[last]
            need = min_source_size - (dz == full)
            hit = None
            if need > (kept_z if dz == full else 0):
                cand = [d for d in desc[:last] if d | dz == full]
                reach = 0
                for d in cand:
                    reach |= d
                for j, kept in enumerate(last_options):
                    if not kept & reach or need > 1 and sum(1 for d in cand if d & kept) < need:
                        hit = j
                        break
            leaves = len(last_options) if hit is None else hit + 1
            if examined + leaves > budget:
                return (BUDGET_EXCEEDED, budget + 1, None)
            examined += leaves
            if hit is not None:
                combo = [last_options[hit]]
                while chosen is not None:
                    kept, chosen = chosen
                    combo.append(kept)
                combo.reverse()
                return (FAIL, examined, (f_mask, dict(zip(survivors, combo))))
    return (PASS, examined, None)


def source_components(kept_in: dict[int, int]) -> list[int]:
    """Source components of the graph on the nodes of `kept_in`, whose
    in-neighbours are given as bitmasks, as member bitmasks ordered by
    smallest member.

    anc[v], the nodes that reach v, is computed as a fixpoint over the
    in-masks.  Nothing outside a source component reaches it, so anc[v] is a
    source component exactly when every node in it has the same anc.
    """
    anc = {v: 1 << v for v in kept_in}
    changed = True
    while changed:
        changed = False
        for v, ins in kept_in.items():
            a = anc[v]
            for u in _bits(ins):
                a |= anc[u]
            if a != anc[v]:
                anc[v] = a
                changed = True
    sources = {a for a in anc.values() if all(anc[u] == a for u in _bits(a))}
    return sorted(sources, key=lambda m: m & -m)
