"""Independent reference implementations used to cross-check the engines.

Everything here favors obviousness over speed: edge tables are rebuilt
straight from the scenario records, enumeration scans whole permutation
spaces with no pruning, and optimization scans every defense subset. None
of it shares code with the engine modules beyond the plain data types.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, permutations

from stratagraph.defense import DefensePlan, RiskRow
from stratagraph.model import Grant, InfeasibleCutError

EPS = 1e-9


def oracle_edges(doc) -> dict[str, tuple]:
    """edge id -> (attack record, from object, to object, permission)."""
    out = {}
    for a in doc.attacks:
        for i, res in enumerate(a.a_results):
            out[f"{a.id}#{i}"] = (a, a.object, res.object, res.permission)
    return out


def replay(doc, edges, seq, semantics="accumulated", entry=None):
    """Replay an edge-id sequence by definition.

    Returns (final grants frozenset, fired attack ids tuple) or None when
    the sequence is not a valid chain.
    """
    entry = frozenset(entry if entry is not None else doc.entry_grants)
    grants = set(entry)
    fired: list = []
    affected: set[str] = set()
    last = None  # (to object, permission)
    for eid in seq:
        record, from_obj, to_obj, perm = edges[eid]
        if last is not None and last[0] != from_obj:
            return None
        if to_obj in affected:
            return None
        if record.entry_only and last is not None:
            return None
        if semantics == "strict":
            pool = set(entry)
            if last is not None:
                pool.add(Grant(last[0], last[1]))
        else:
            pool = grants
        if any(need not in pool for need in record.condition):
            return None
        if record.id not in fired:
            fired.append(record.id)
        grants.update(record.a_results)
        affected.add(to_obj)
        last = (to_obj, perm)
    return frozenset(grants), tuple(fired)


def chain_cost(doc, fired) -> float:
    by_id = {a.id: a for a in doc.attacks}
    return sum(by_id[a].cost for a in fired)


def chain_threat(doc, fired, agg="sum") -> float:
    by_id = {a.id: a for a in doc.attacks}
    sevs = [by_id[a].severity for a in fired]
    return max(sevs, default=0.0) if agg == "max" else sum(sevs)


def brute_chains(doc, max_len, semantics="accumulated", targets=None, entry=None, agg="sum"):
    """All valid chains as (edge tuple, cost, threat, final grants) records.

    Scans every k-permutation of the edge-id set for k = 1..max_len. A
    sequence repeating an edge repeats that edge's affected object and is
    invalid by the simple-chain rule, so distinct-edge permutations cover
    the full sequence space (brute_chains_product proves that on demand).
    agg ("sum" or "max") aggregates each chain's threat.
    """
    edges = oracle_edges(doc)
    ids = sorted(edges)
    found = []
    target_set = frozenset(targets) if targets is not None else None
    for k in range(1, max_len + 1):
        for seq in permutations(ids, k):
            result = replay(doc, edges, seq, semantics, entry=entry)
            if result is None:
                continue
            if target_set is not None and edges[seq[-1]][2] not in target_set:
                continue
            grants, fired = result
            found.append((seq, chain_cost(doc, fired), chain_threat(doc, fired, agg), grants))
    found.sort(key=lambda f: (len(f[0]), f[0]))
    return found


def brute_chains_product(doc, max_len, semantics="accumulated"):
    """Like brute_chains but over ALL sequences with repetition (tiny inputs only)."""
    from itertools import product

    edges = oracle_edges(doc)
    ids = sorted(edges)
    found = []
    for k in range(1, max_len + 1):
        for seq in product(ids, repeat=k):
            result = replay(doc, edges, seq, semantics)
            if result is None:
                continue
            grants, fired = result
            found.append((seq, chain_cost(doc, fired), chain_threat(doc, fired), grants))
    found.sort(key=lambda f: (len(f[0]), f[0]))
    return found


def chain_signature(doc, edge_ids) -> int:
    """Mask of the defenses that break the chain: bit k for the k-th defense in id order.

    A defense breaks a chain when it neutralizes an attack of one of its edges.
    """
    edges = oracle_edges(doc)
    attacks = {edges[eid][0].id for eid in edge_ids}
    sig = 0
    for k, d in enumerate(sorted(doc.defenses, key=lambda d: d.id)):
        if attacks & set(d.d_results):
            sig |= 1 << k
    return sig


def brute_potential(doc, src, dst, max_len):
    """generate_potential_chains by definition, as (path, missing hops, suggestions) tuples.

    A path is src, then distinct intermediate objects in any order, then
    dst, of at most max_len hops, each hop along a relationship (a directed
    one only from its from object). A hop (f, t) is covered when some
    attack on f has a result on t; a path with no uncovered hop is left
    out. Each uncovered hop suggests the attacks, by id, on any object of
    f's category; when the path's next hop (t, n) is covered, only those
    whose results hold every permission that some attack covering (t, n)
    needs on t. The results' objects are not compared: a suggestion is a
    catalog record to copy onto the missing hop. Sorted by the number of
    uncovered hops, then path.
    """
    joined = set()
    for r in doc.relationships:
        joined.add((r.from_id, r.to_id))
        if not r.directed:
            joined.add((r.to_id, r.from_id))
    category = {o.id: o.category for o in doc.objects}

    def covering(f, t):
        return [a for a in doc.attacks if a.object == f and any(g.object == t for g in a.a_results)]

    if src == dst:
        return []  # a simple path never comes back to its start
    others = [o.id for o in doc.objects if o.id not in (src, dst)]
    found = []
    for k in range(max_len):
        for middle in permutations(others, k):
            path = (src, *middle, dst)
            hops = list(zip(path, path[1:]))
            if any(hop not in joined for hop in hops):
                continue
            missing, suggestions = [], []
            for i, (f, t) in enumerate(hops):
                if covering(f, t):
                    continue
                needs = covering(*hops[i + 1]) if i + 1 < len(hops) else []
                suggested = []
                for a in sorted(doc.attacks, key=lambda a: a.id):
                    if category[a.object] != category[f]:
                        continue
                    perms = {g.permission for g in a.a_results}
                    if needs and not any(all(c.permission in perms for c in n.condition if c.object == t) for n in needs):
                        continue
                    suggested.append(a.id)
                missing.append((f, t))
                suggestions.append(tuple(suggested))
            if missing:
                found.append((path, tuple(missing), tuple(suggestions)))
    found.sort(key=lambda p: (len(p[1]), p[0]))
    return found


def reference_distance(doc, start, goal, blocked=frozenset(), via=None):
    """Fewest edges (at least one) from start to a goal object, or None when no edge walk gets there.

    A forward breadth-first search over (object, via step taken) states,
    along the edges of the attacks not in blocked. With via, a set of
    grants, the walk must take an edge whose attack's condition holds one
    of them. Conditions, entry_only and repeated objects are ignored.
    """
    hops = [
        (src, dst, via is None or bool(set(record.condition) & via))
        for record, src, dst, _ in oracle_edges(doc).values()
        if record.id not in blocked
    ]
    frontier, seen, steps = {(start, False)}, set(), 0
    while frontier:
        steps += 1
        reached = {(dst, took or opens) for obj, took in frontier for src, dst, opens in hops if src == obj}
        if any(took and obj in goal for obj, took in reached):
            return steps
        frontier = reached - seen
        seen |= reached
    return None


def reference_distances(doc, goal, blocked=frozenset(), via=None, limit=None):
    """Object id -> its reference_distance, for each object that reaches a goal within limit edges (None: any)."""
    out = {}
    for o in doc.objects:
        steps = reference_distance(doc, o.id, goal, blocked, via)
        if steps is not None and (limit is None or steps <= limit):
            out[o.id] = steps
    return out


def brute_min_cost(doc, max_len, semantics="accumulated", targets=None):
    """(edge tuple, cost) of the cheapest target-reaching chain, or None."""
    chains = brute_chains(doc, max_len, semantics, targets=targets)
    if not chains:
        return None
    best = min(chains, key=lambda f: (f[1], len(f[0]), f[0]))
    return best[0], best[1]


def brute_max_threat(doc, max_len, semantics="accumulated", targets=None):
    chains = brute_chains(doc, max_len, semantics, targets=targets)
    if not chains:
        return None
    best = min(chains, key=lambda f: (-f[2], len(f[0]), f[0]))
    return best[0], best[2]


def reference_risk(doc, max_len, semantics="accumulated", agg="sum"):
    """Per-object exposure over the brute-force chains, as RiskRows.

    The engine's original risk_assess: group the chains by the object
    their last edge affects, then take max threat and min cost over each
    group in canonical chain order, so of tied values the first chain's
    (int or float) wins. Rows sort by descending threat, then object id.
    """
    chains = brute_chains(doc, max_len, semantics, agg=agg) if doc.entry_grants else []
    edges = oracle_edges(doc)
    ending: dict[str, list] = {}
    for seq, cost, threat, _ in chains:
        ending.setdefault(edges[seq[-1]][2], []).append((cost, threat))
    rows = []
    for o in doc.objects:
        found = ending.get(o.id, [])
        rows.append(
            RiskRow(
                object=o.id,
                chain_count=len(found),
                max_chain_threat=max((t for _, t in found), default=0.0),
                min_chain_cost=min((c for c, _ in found), default=None),
            )
        )
    rows.sort(key=lambda r: (-r.max_chain_threat, r.object))
    return tuple(rows)


def _chain_attack_sets(doc, chains):
    edges = oracle_edges(doc)
    return [frozenset(edges[eid][0].id for eid in seq) for seq, *_ in chains]


def brute_budget(doc, chains, budget, objective="threat"):
    """Best defense subset within budget: (value, cost, sorted id tuple)."""
    attack_sets = _chain_attack_sets(doc, chains)
    weights = [1.0 if objective == "count" else threat for _, _, threat, _ in chains]
    best = None
    n = len(doc.defenses)
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            cost = sum(doc.defenses[i].cost for i in combo)
            if cost > budget + EPS:
                continue
            covered = set()
            for i in combo:
                covered.update(doc.defenses[i].d_results)
            value = sum(w for s, w in zip(attack_sets, weights) if s & covered)
            key = (-value, cost, tuple(sorted(doc.defenses[i].id for i in combo)))
            if best is None or key < best:
                best = key
    return (-best[0], best[1], best[2])


def brute_kernel_budget(defenses, rows, budget):
    """The ids of the affordable defense subset with the smallest key (-value, cost, ids).

    defenses are in id order; rows are (signature, weight) kernel rows, bit
    k standing for defenses[k]. A subset adds up in id order: each defense
    adds its cost and the weights of the rows it newly breaks, summed in
    row order. That is the order in which the exact budget search sums a
    plan, so both compute the same float key for it, and every subset is
    tried here.
    """
    best = None
    for r in range(len(defenses) + 1):
        for combo in combinations(range(len(defenses)), r):
            cost = value = 0.0
            live = rows
            for k in combo:
                value += sum(w for sig, w in live if sig >> k & 1)
                live = [row for row in live if not row[0] >> k & 1]
                cost += defenses[k].cost
            if cost > budget + EPS:
                continue
            key = (-value, cost, tuple(defenses[k].id for k in combo))
            if best is None or key < best:
                best = key
    return best[2]


def reference_plan_budgeted(doc, chains, budget, objective="threat", exact_limit=20, sample=5):
    """The budget planner searched per chain instead of per signature.

    The same search contract as the engine's plan_budgeted: exact
    branch-and-bound over the defenses in id order up to exact_limit
    defenses, keyed (-value, cost, id tuple), else greedy by gain per cost,
    ties by (cost, id). Each defense carries a bitmask of the chains it
    breaks, and every node re-sums the weight of every broken chain.
    Returns the whole DefensePlan, built here from the scenario records.
    """
    edges = oracle_edges(doc)
    attack_sets = [frozenset(edges[eid][0].id for eid in c.edges) for c in chains]
    weights = [1.0 if objective == "count" else c.total_threat for c in chains]
    defenses = sorted(doc.defenses, key=lambda d: d.id)
    masks = []
    for d in defenses:
        covered = frozenset(d.d_results)
        masks.append(sum(1 << i for i, s in enumerate(attack_sets) if s & covered))

    def broken_value(mask):
        return sum(w for i, w in enumerate(weights) if mask >> i & 1)

    if len(defenses) <= exact_limit:
        suffix = [0] * (len(defenses) + 1)
        for k in reversed(range(len(defenses))):
            suffix[k] = suffix[k + 1] | masks[k]
        best = None

        def walk(k, chosen, cost, mask):
            nonlocal best
            key = (-broken_value(mask), cost, chosen)
            if best is None or key < best:
                best = key
            if k == len(defenses):
                return
            if broken_value(mask | suffix[k]) < -best[0]:
                return
            d = defenses[k]
            if cost + d.cost <= budget + EPS:
                walk(k + 1, chosen + (d.id,), cost + d.cost, mask | masks[k])
            walk(k + 1, chosen, cost, mask)

        walk(0, (), 0.0, 0)
        chosen, optimal = best[2], True
    else:
        picked, mask, spent = [], 0, 0.0
        available = dict(zip((d.id for d in defenses), zip(defenses, masks)))
        while True:
            best = None
            for did in sorted(available):
                d, m = available[did]
                if spent + d.cost > budget + EPS:
                    continue
                gain = broken_value(mask | m) - broken_value(mask)
                if gain <= 0:
                    continue
                ratio = gain / d.cost if d.cost > 0 else float("inf")
                key = (-ratio, d.cost, did)
                if best is None or key < best[0]:
                    best = (key, did)
            if best is None:
                break
            d, m = available.pop(best[1])
            picked.append(d.id)
            spent += d.cost
            mask |= m
        chosen, optimal = picked, False

    chosen = tuple(sorted(chosen))
    by_id = {d.id: d for d in defenses}
    blocked = set()
    for did in chosen:
        blocked.update(by_id[did].d_results)
    survivors = [c for c, s in zip(chains, attack_sets) if not s & blocked]
    return DefensePlan(
        chosen=chosen,
        total_cost=sum(by_id[did].cost for did in chosen),
        neutralized_edges=tuple(sorted(eid for eid, e in edges.items() if e[0].id in blocked)),
        surviving_count=len(survivors),
        surviving_sample=tuple(survivors[:sample]),
        optimal=optimal,
    )


def reference_plan_cut(doc, chains, exact_chain_limit=64, exact_defense_limit=20):
    """The cut planner searched over per-chain option sets instead of signatures.

    chains are records whose first field is a chain's edge-id tuple, as in
    brute_chains, for the chains to the targets in canonical order.
    Each chain's option set is the frozenset of the defense ids that break
    it, read from the scenario records. A chain with no option raises
    InfeasibleCutError (the first such chain in canonical order). Within
    both limits, branch-and-bound over the option sets: branch on the
    uncovered chain with the fewest options (ties by chain index), try its
    options cheapest first (ties by id), bound by the cheapest option of
    the hardest uncovered chain, keyed (cost, set size, id tuple). Beyond
    them, greedy: count each option's hits over the uncovered chains and
    take the best hits per cost, ties by (cost, id). Returns the whole
    DefensePlan; every chain is cut, so no chain survives.
    """
    edges = oracle_edges(doc)
    by_id = {d.id: d for d in doc.defenses}
    option_sets = []
    for seq, *_ in chains:
        attacks = {edges[eid][0].id for eid in seq}
        options = frozenset(d.id for d in doc.defenses if attacks & set(d.d_results))
        if not options:
            raise InfeasibleCutError(
                f"chain {list(seq)} contains no defensible attack; cut impossible", uncut_chains=(seq,)
            )
        option_sets.append(options)

    # No chain to cut is the empty plan, optimal on either path.
    exact = not chains or len(chains) <= exact_chain_limit and len(doc.defenses) <= exact_defense_limit
    if exact:
        best = None

        def lower_bound(uncovered):
            return max((min(by_id[o].cost for o in option_sets[i]) for i in uncovered), default=0.0)

        def walk(chosen, cost, uncovered):
            nonlocal best
            if not uncovered:
                key = (cost, len(chosen), tuple(sorted(chosen)))
                if best is None or key < best:
                    best = key
                return
            if best is not None and cost + lower_bound(uncovered) > best[0] + EPS:
                return
            pivot = min(uncovered, key=lambda i: (len(option_sets[i]), i))
            for option in sorted(option_sets[pivot], key=lambda o: (by_id[o].cost, o)):
                still = frozenset(i for i in uncovered if option not in option_sets[i])
                walk(chosen + (option,), cost + by_id[option].cost, still)

        walk((), 0.0, frozenset(range(len(option_sets))))
        chosen = best[2]
    else:
        uncovered = list(option_sets)
        chosen = []
        while uncovered:
            counts = {}
            for s in uncovered:
                for o in s:
                    counts[o] = counts.get(o, 0) + 1
            pick = min(
                counts,
                key=lambda o: (-(counts[o] / by_id[o].cost) if by_id[o].cost > 0 else float("-inf"), by_id[o].cost, o),
            )
            chosen.append(pick)
            uncovered = [s for s in uncovered if pick not in s]

    chosen = tuple(sorted(chosen))
    blocked = set()
    for did in chosen:
        blocked.update(by_id[did].d_results)
    return DefensePlan(
        chosen=chosen,
        total_cost=sum(by_id[did].cost for did in chosen),
        neutralized_edges=tuple(sorted(eid for eid, e in edges.items() if e[0].id in blocked)),
        surviving_count=0,
        surviving_sample=(),
        optimal=exact,
    )


def brute_cut(doc, chains):
    """Cheapest defense subset breaking every chain, or None when impossible.

    Ties resolve by (cost, size, id tuple), mirroring the planner contract.
    """
    attack_sets = _chain_attack_sets(doc, chains)
    if not attack_sets:
        return 0.0, ()
    best = None
    n = len(doc.defenses)
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            covered = set()
            for i in combo:
                covered.update(doc.defenses[i].d_results)
            if all(s & covered for s in attack_sets):
                cost = sum(doc.defenses[i].cost for i in combo)
                key = (cost, r, tuple(sorted(doc.defenses[i].id for i in combo)))
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[0], best[2]


def counterpart_warnings(doc) -> list[tuple[str, str]]:
    """(attack id, message) of every effect no relationship backs, sorted.

    The quadratic definition: for each effect from the attacked object to a
    different existing object, scan every relationship for one that links
    the pair in either direction, honoring each edge's directedness.
    """

    def touches(r, a, b):
        if r.from_id == a and r.to_id == b:
            return True
        return not r.directed and r.from_id == b and r.to_id == a

    ids = {o.id for o in doc.objects}
    out = []
    for a in doc.attacks:
        for g in a.a_results:
            if g.object in ids and a.object in ids and g.object != a.object:
                if not any(touches(r, a.object, g.object) or touches(r, g.object, a.object) for r in doc.relationships):
                    out.append((a.id, f"edge {a.object}->{g.object} has no relationship counterpart in the base graph"))
    return sorted(out)


def _reference_format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be rendered canonically")
    if x == 0.0:
        x = 0.0  # fold -0.0
    return format(x, ".6g")


def _reference_render(value, level: int, parts: list[str]) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, float):
        parts.append(_reference_format_float(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON requires string keys, got {key!r}")
            parts.append(pad)
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(": ")
            _reference_render(value[key], level + 1, parts)
            parts.append(",\n" if i + 1 < len(keys) else "\n")
        parts.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        if hasattr(value, "_fields"):
            # A named tuple (such as a Grant) is a record; render its as_dict().
            raise TypeError(f"cannot render {type(value).__name__} canonically")
        if not value:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(value):
            parts.append(pad)
            _reference_render(item, level + 1, parts)
            parts.append(",\n" if i + 1 < len(value) else "\n")
        parts.append(close_pad + "]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} canonically")


def reference_dumps(value) -> str:
    """Canonical JSON by the original one-value-at-a-time renderer.

    One recursive call and one json.dumps per value, no memo: the referee
    for the engine's canon.dumps, which must match it byte for byte.
    """
    parts: list[str] = []
    _reference_render(value, 0, parts)
    return "".join(parts)
