"""Condition-check kernels.

These are the hot inner loops of the robustness checks over bitmask
graphs: the pruned depth-first partition search, behind an exact
fault-free screen, and the incremental reduced-graph sweep.  Both carry a
search budget and are cross-checked against the naive enumerations in the
test oracles.  `source_components` names the source components of a
failing reduction for its witness.

Graphs are passed as per-node in-neighbour bitmasks.  Search orders are
part of the contract:

* fault sets F by increasing size, then lexicographic on the sorted tuple;
* L/C/R assignments in the order of base-3 counters over the surviving
  nodes in node order (most significant digit = smallest node id; digit
  0=L, 1=C, 2=R), so the first violating partition is the canonical one;
* within each twin class (nodes any two of which can be swapped without
  changing the graph) the partition search visits only fault sets that are
  a prefix of the class, and only digits that never decrease in node order
  over the class's survivors.  The canonical first violating partition has
  both properties, since a swap would otherwise give an earlier one, so
  the rule changes what is visited, never what is found;
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

    For f >= 1 a fault-free screen runs first: the search with F empty at
    threshold r + f.  It is exact.  If (F, L, C, R) violates at r, then
    (empty, L, C|F, R) violates at r + f: a node of L or R gains at most
    |F| <= f in-neighbours outside its side when F joins C.  So when the
    screen finds no violating partition, none exists at r for any F, and
    its PASS is the answer.  Otherwise (it fails or exceeds the budget) the
    search over every fault set runs, with the full budget, and its result
    is returned unchanged.  For f = 0 the screen is that search, so it runs
    once.  Every FAIL and BUDGET_EXCEEDED report, and every PASS the
    screen does not decide, is the one the search without the screen gives.
    A screen-decided PASS counts the screen's nodes in `examined`; where
    the search without the screen exceeds the budget, it is a new verdict.
    The worst case visits 2 * budget nodes.

    Returns (status, examined, witness) with witness = (F, L, C, R)
    bitmasks on FAIL; see _search.  The out-masks and twin predecessors are
    computed once for both searches.
    """
    out_masks = [0] * n
    for v in range(n):
        for u in _bits(in_masks[v]):
            out_masks[u] |= 1 << v
    pred = _twin_predecessors(n, in_masks, out_masks)
    if f:
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
    the canonical base-3 order.  A placement is cut as soon as a placed L
    node has r placed in-neighbours in C|R, or a placed R node has r placed
    in-neighbours in L|C: counts only grow as nodes are placed, so no
    violating partition lies below.  An R placement while L is still empty
    is cut too: the L/R mirror of any partition below it violates equally
    and comes first in canonical order.

    Twin classes (see _twin_predecessors) cut the rest.  A swap of twins
    maps a violating partition to one that violates equally, with the same
    |F|.  So the search visits only fault sets that are a prefix of each
    twin class (for any other the swap gives an earlier one; _fault_masks
    builds just these), and within each class's survivors it places digits
    that never decrease in node order: a node skips L after a twin placed
    in C and goes to R after a twin placed in R.  No cut can skip the
    first violating partition, since each removes only partitions with an
    equally violating partition earlier.

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
        # L is expanded first.  After placing v only v itself and the placed
        # L/R nodes it feeds can newly reach r.
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
            if lm and (ins & (lm | cm)).bit_count() < r and not reached(outs & lm, cm | rm | bit):
                stack.append((i, lm, cm, rm | bit))
            if (
                low < 2
                and not reached(outs & lm, cm | rm | bit)
                and not reached(outs & rm, lm | cm | bit)
            ):
                stack.append((i, lm, cm | bit, rm))
            if not low and (ins & (cm | rm)).bit_count() < r and not reached(outs & rm, lm | cm | bit):
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

    Counting alone can decide a leaf batch.  When z reaches every
    survivor, z is a root, and so is each node of z's kept in-set, since it
    reaches z.  Every kept in-set of z has |in(z) - F| - min(f, |in(z) - F|)
    nodes, one count per fault set, so each leaf of the batch has at least
    1 + that many roots; when this reaches min_source_size no leaf fails,
    and the batch is counted without scoring its leaves.

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
            # Leaves: x != z becomes a root iff it reaches every survivor
            # outside desc[z] and reaches z's kept in-set.  When z reaches
            # every survivor, z and each node of its kept in-set are roots,
            # so no leaf fails unless need > kept_z.
            dz = desc[last]
            need = min_source_size - (dz == full)
            hit = None
            if need > (kept_z if dz == full else 0):
                cand = [d for d in desc[:last] if d | dz == full]
                if need == 1:
                    reach = 0
                    for d in cand:
                        reach |= d
                    for j, kept in enumerate(last_options):
                        if not kept & reach:
                            hit = j
                            break
                else:
                    for j, kept in enumerate(last_options):
                        if sum(1 for d in cand if d & kept) < need:
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
