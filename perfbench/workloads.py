"""Case lists for the benchmark workloads.

A case is one CLI invocation: a stable key, the argv handed to
``groupoid_card.cli.main`` and, for ``--functor`` cases, the JSON file the
argv names. Every workload has a fixed universe of cases; the workload seed
picks which of them run and in what order, so every seed does the same kind
and amount of work and every case has a recorded reference digest.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from groupoid_card.groups import make_cyclic, make_product, make_symmetric, to_cayley_json
from groupoid_card.permutations import iter_pvectors, weight

WORKLOADS = ("mc-sampling", "categorified-sweep", "elements-theorem", "exact-moments")

# Monte Carlo: criterion 11's pattern (n = 100, one cycle length per run) at a
# reduced sample count. The --seed values come from a fixed pool whose every
# report lies within 4 standard errors, so the statistical check cannot fail
# by chance on some workload seed.
MC_N = 100
MC_SAMPLES = 1000
MC_K_VALUES = (1, 2, 3, 5)
MC_PAIR = (1, 2)  # the --p case: one fixed point and one 2-cycle
MC_SEED_POOL = tuple(20260810 + 7919 * i for i in range(32))
MC_SEEDS_PER_K = 6

# Cayley tables for --functor cases: products of small cyclic and symmetric
# groups, relabelled by one of a few seeded permutations of their elements.
CAYLEY_SHAPES = (("Z2xS4", (("Z", 2), ("S", 4))), ("Z4xS3", (("Z", 4), ("S", 3))), ("S3xS3", (("S", 3), ("S", 3))))
CAYLEY_VARIANTS = 8


def _pvec(n: int, entries: dict[int, int]) -> str:
    return ",".join(str(entries.get(k, 0)) for k in range(1, n + 1))


def _pvectors(n: int, min_weight: int) -> list[str]:
    """Every p-vector with entries <= 2 and min_weight <= weight <= n."""
    return [",".join(map(str, p)) for p in iter_pvectors(n, max_entry=2) if weight(p) >= min_weight]


def _case(argv: list[str], key: str | None = None, functor: dict | None = None) -> dict:
    return {"key": key or " ".join(argv), "argv": argv, "functor": functor}


def _mc_case(k: int | None, seed: int) -> dict:
    if k is None:
        target = ["--p", _pvec(MC_N, {m: 1 for m in MC_PAIR})]
    else:
        target = ["--p-one", f"k={k}"]
    return _case(["montecarlo", "--n", str(MC_N), *target, "--samples", str(MC_SAMPLES), "--seed", str(seed)])


def _group(factors):
    makers = {"Z": make_cyclic, "S": make_symmetric}
    group = None
    for kind, size in factors:
        factor = makers[kind](size)
        group = factor if group is None else make_product(group, factor)
    return group


def centralizer_functor(table: list[list[int]], name: str) -> dict:
    """F(g) = the centralizer of g, transported by conjugation.

    The average fiber size is the number of conjugacy classes, so the
    theorem check has a known exact answer for every group."""
    m = len(table)
    identity = next(e for e in range(m) if all(table[e][g] == g for g in range(m)))
    inverse = [next(h for h in range(m) if table[g][h] == identity) for g in range(m)]
    cent = [[x for x in range(m) if table[g][x] == table[x][g]] for g in range(m)]
    position = [{x: i for i, x in enumerate(c)} for c in cent]

    def conj(h: int, x: int) -> int:
        return table[table[h][x]][inverse[h]]

    transports = {
        str(h): {str(g): [position[conj(h, g)][conj(h, x)] for x in cent[g]] for g in range(m)}
        for h in range(m)
    }
    return {
        "name": name,
        "group": {"order": m, "table": table},
        "fibers": {str(g): len(cent[g]) for g in range(m)},
        "transports": transports,
    }


def _cayley_case(shape: str, variant: int) -> dict:
    factors = dict(CAYLEY_SHAPES)[shape]
    table = to_cayley_json(_group(factors))["table"]
    m = len(table)
    relabel = list(range(m))
    random.Random(f"{shape}/{variant}").shuffle(relabel)
    relabelled = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            relabelled[relabel[a]][relabel[b]] = relabel[table[a][b]]
    name = f"centralizers({shape}#{variant})"
    return _case(["theorem-general", "--functor"], key=f"theorem-general --functor {name}",
                 functor=centralizer_functor(relabelled, name))


def _builtin_theorem(builtin: str, n: int, p: str | None = None) -> dict:
    argv = ["theorem-general", "--builtin", builtin, "--n", str(n)]
    return _case(argv + (["--p", p] if p else []))


def _fixed_cases(workload: str) -> list[dict]:
    if workload == "categorified-sweep":
        return [
            _case(["verify-categorified", "--n", str(n), "--p", p])
            for n, min_weight in ((5, 3), (6, 5))
            for p in _pvectors(n, min_weight)
        ]
    if workload == "elements-theorem":
        return (
            [_builtin_theorem("fixed-points", n) for n in (1, 2, 3, 4, 6)]
            + [_builtin_theorem("cycle-tuples", n, p) for n in (3, 4) for p in _pvectors(n, 1)]
            + [_builtin_theorem("cycle-tuples", 5, p) for p in (_pvec(5, {2: 1, 3: 1}), _pvec(5, {1: 1, 2: 2}), _pvec(5, {1: 2, 3: 1}))]
            + [_builtin_theorem("cycle-tuples", 6, _pvec(6, {3: 1}))]
        )
    if workload == "exact-moments":
        # Single n=8 p-vectors that all start with p_1 = 2, so each sum over the
        # cached cycle vectors stops early equally often: the median case falls
        # among these and they cost the same.
        n8 = [_pvec(8, {1: 2})] + [_pvec(8, {1: 2, k: 1}) for k in range(2, 8)] + [_pvec(8, {1: 2, 2: 2}), _pvec(8, {1: 2, 2: 1, 3: 1}), _pvec(8, {1: 2, 3: 2})]
        cycle_type = [(n, _pvec(n, {1: 1, k: 1})) for n, k in ((12, 2), (16, 3), (20, 4), (24, 5))]
        return (
            [_case(["verify-lemma", "--n", "8", "--all-p", "--method", m]) for m in ("brute", "cycle-type")]
            + [_case(["verify-lemma", "--n", "9", "--p", _pvec(9, {2: 1, 3: 1})])]
            + [_case(["verify-lemma", "--n", "8", "--p", p]) for p in n8]
            + [_case(["verify-lemma", "--n", str(n), "--p", p, "--method", "cycle-type"]) for n, p in cycle_type]
            + [_case(["stats", "--n", str(n)]) for n in (10, 15, 20, 25)]
            + [_case(["skeleton", "--n", str(n)]) for n in (10, 20, 30, 40)]
        )
    return []


def universe(workload: str) -> list[dict]:
    """Every case some seed can select; the reference digests cover these."""
    if workload == "mc-sampling":
        return [_mc_case(k, s) for k in (*MC_K_VALUES, None) for s in MC_SEED_POOL]
    if workload == "elements-theorem":
        cayley = [_cayley_case(shape, v) for shape, _ in CAYLEY_SHAPES for v in range(CAYLEY_VARIANTS)]
        return _fixed_cases(workload) + cayley
    return _fixed_cases(workload)


def cases(workload: str, seed: int) -> list[dict]:
    """The seeded case list of one round: same composition for every seed,
    seed-dependent Monte Carlo seeds, relabellings and order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    if workload == "mc-sampling":
        picked = rng.sample(MC_SEED_POOL, MC_SEEDS_PER_K + 1)
        chosen = [_mc_case(k, s) for k in MC_K_VALUES for s in picked[:MC_SEEDS_PER_K]]
        chosen.append(_mc_case(None, picked[-1]))
    elif workload == "elements-theorem":
        chosen = _fixed_cases(workload) + [
            _cayley_case(shape, rng.randrange(CAYLEY_VARIANTS)) for shape, _ in CAYLEY_SHAPES
        ]
    else:
        chosen = _fixed_cases(workload)
    rng.shuffle(chosen)
    return chosen


def write_case_files(case_list: list[dict], directory: Path) -> list[dict]:
    """Write each --functor JSON into directory and return the worker's view
    of the cases: key plus the complete argv."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for index, case in enumerate(case_list):
        argv = list(case["argv"])
        if case["functor"] is not None:
            path = directory / f"functor-{index}.json"
            path.write_text(json.dumps(case["functor"]), encoding="utf-8")
            argv.append(str(path))
        out.append({"key": case["key"], "argv": argv})
    return out
