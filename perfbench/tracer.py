"""Spans and counters for the traced benchmark run.

Everything here wraps the package's functions and methods from the
outside, in the worker process only; no file of the package is changed.
A span has a name ``<layer>.<step>``, a start, an end, the span that caused
it and the case it belongs to. Spans around calls that happen once per draw,
per permutation or per sample ("hot" spans) are folded into per-name totals
instead of being stored one by one. Self time is a span's duration minus
the time its child spans cover; it is kept per span name and summed per layer.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter, defaultdict

# The package modules whose self time is reported; the CLI's is cli.overhead_s.
LAYERS = ("rng", "permutations", "groups", "groupoids", "cycle_stats", "categorified", "functors")
# SplitMix64 adds this odd constant per draw, so the number of draws between
# two states is their difference times its inverse mod 2^64.
_GAMMA_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)
_MASK64 = (1 << 64) - 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[list] = []
        self.active: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.cells: defaultdict = defaultdict(lambda: [0])
        self.generators: list = []
        self.case: int | None = None

    def timed(self, name: str, fn, record: bool = True):
        """Wrap fn in a span. Nested spans of the same name count once in
        the per-name total; every span counts in its layer's self time."""
        stack, spans, active, inclusive, self_s = self.stack, self.spans, self.active, self.inclusive, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if record:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                active[name] -= 1
                if not active[name]:
                    inclusive[name] += duration
                if record:
                    spans[span_id] = (name, start, end, parent, self.case)

        return wrapper

    def timed_iter(self, name: str, fn):
        """Wrap a function returning an iterator: each step is a hot span."""
        step = self.timed(name, next, record=False)

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)

            def steps():
                while True:
                    try:
                        item = step(iterator)
                    except StopIteration:
                        return
                    yield item

            return steps()

        return wrapper

    def first_call(self, name: str, method):
        """Span only the first call per instance (a lazy table build); later
        calls go straight to the original method bound on the instance."""
        timed = self.timed(name, method)

        def wrapper(obj):
            setattr(obj, method.__name__, types.MethodType(method, obj))
            return timed(obj)

        return wrapper

    def validation(self, layer: str, name: str, fn, cached):
        """Span a law check only when it runs (results are cached on the
        object) and read its check count and mode from the report."""
        timed = self.timed(name, fn)
        checks, runs, sampled = (self.cells[f"{layer}.{c}"] for c in ("validate_checks", "validations", "sampled_runs"))

        def wrapper(obj, *args, **kwargs):
            if cached(obj) is not None:
                return fn(obj, *args, **kwargs)
            report = timed(obj, *args, **kwargs)
            checks[0] += report.checks
            runs[0] += 1
            sampled[0] += report.mode != "exhaustive"
            return report

        return wrapper

    def install(self) -> None:
        from groupoid_card import categorified, cli, cycle_stats, functors, groupoids, groups, permutations, rng

        coarse = {
            cycle_stats: {
                "monte_carlo_moment": "cycle_stats.monte_carlo",
                "expected_product_brute": "cycle_stats.brute",
                "expected_product_by_type": "cycle_stats.by_type",
                "verify_cll": "cycle_stats.verify",
                "cll_rhs": "cycle_stats.closed_form",
                "expected_total_cycles": "cycle_stats.harmonic",
            },
            groups: {"from_cayley_table": "groups.cayley_validate"},
            groupoids: {
                "orbit_decomposition": "groupoids.orbits",
                "perm_groupoid_skeleton": "groupoids.skeleton",
                "cardinality": "groupoids.cardinality",
                "cardinality_via_outdegrees": "groupoids.outdegrees",
            },
            categorified: {
                "categorified_rhs_skeleton": "categorified.rhs",
                "verify_categorified": "categorified.verify",
            },
            functors: {
                "make_fixed_point_functor": "functors.build",
                "make_cycle_tuple_functor": "functors.build",
                "functor_from_json": "functors.build",
                "category_of_elements": "functors.elements",
                "verify_general_theorem": "functors.theorem",
            },
        }
        for module, names in coarse.items():
            for attr, name in names.items():
                self._replace(getattr(module, attr), self.timed(name, getattr(module, attr)))

        hot = self.timed("permutations.cycle_types", permutations.cycle_counts, record=False)
        self._replace(permutations.cycle_counts, hot)
        for attr, name in (
            ("enumerate_permutations", "permutations.enumerate"),
            ("all_cycle_types", "permutations.cycle_types"),
            ("list_cycle_tuples", "permutations.cycle_tuples"),
            ("iter_pvectors", "permutations.pvectors"),
        ):
            self._replace(getattr(permutations, attr), self.timed_iter(name, getattr(permutations, attr)))

        build = self.timed("categorified.build", categorified.cycle_tuple_action)
        q_size = self.cells["categorified.q_size"]

        def cycle_tuple_action(*args, **kwargs):
            action = build(*args, **kwargs)
            q_size[0] += action.carrier_size
            return action

        self._replace(categorified.cycle_tuple_action, cycle_tuple_action)
        self._replace(
            functors.validate_functor,
            self.validation("functors", "functors.validate", functors.validate_functor, lambda f: f._validation),
        )
        GroupAction = groupoids.GroupAction
        GroupAction.validate = self.validation(
            "groupoids", "groupoids.validate", GroupAction.validate, lambda a: a._validation
        )
        GroupAction.__init__ = self._counting_init(GroupAction.__init__, "act", "groupoids.act_evals")
        functors.EquivariantFunctor.__post_init__ = self._counting_init(
            functors.EquivariantFunctor.__post_init__, "transport", "functors.transport_evals"
        )
        groups.SymmetricGroup._tables = self.first_call("groups.sym_tables", groups.SymmetricGroup._tables)
        groups.FiniteGroup._conjugation_table = self.first_call(
            "groups.conj_table", groups.FiniteGroup._conjugation_table
        )

        perms_built = self.cells["permutations.perms_built"]
        post_init = permutations.Permutation.__post_init__

        def counted_post_init(perm):
            perms_built[0] += 1
            post_init(perm)

        permutations.Permutation.__post_init__ = counted_post_init

        SplitMix64 = rng.SplitMix64
        generators = self.generators
        init = SplitMix64.__init__

        def registered_init(gen, seed):
            init(gen, seed)
            generators.append((gen, gen._state))

        SplitMix64.__init__ = registered_init
        shuffle = self.timed("rng.shuffle", SplitMix64.shuffle, record=False)
        shuffle_draws = self.cells["rng.shuffle_draws"]

        def counted_shuffle(gen, items):
            before = gen._state
            shuffle(gen, items)
            shuffle_draws[0] += ((gen._state - before) * _GAMMA_INV) & _MASK64

        SplitMix64.shuffle = counted_shuffle
        self.run_case = self.timed("cli.case", cli.main)

    def _counting_init(self, original, attr: str, counter: str):
        """Wrap the callable stored in attr by the constructor with a counter."""
        cell = self.cells[counter]

        def wrapped_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            inner = getattr(obj, attr)

            def counted(a, b):
                cell[0] += 1
                return inner(a, b)

            setattr(obj, attr, counted)

        return wrapped_init

    @staticmethod
    def _replace(original, wrapper) -> None:
        """Rebind every package-level name that refers to original, so calls
        through other modules' imports are wrapped too."""
        for module_name, module in list(sys.modules.items()):
            if module_name == "groupoid_card" or module_name.startswith("groupoid_card."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def end_case(self) -> None:
        draws = self.cells["rng.draws"]
        for gen, initial in self.generators:
            draws[0] += ((gen._state - initial) * _GAMMA_INV) & _MASK64
        self.generators.clear()

    def summary(self) -> dict:
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_s),
            "counts": {name: cell[0] for name, cell in sorted(self.cells.items())},
        }

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "case")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans], **self.summary()}, fh)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced round, all from spans and counters."""
    t = defaultdict(float, summary["inclusive"])
    own = defaultdict(float, summary["self"])
    layer_self = defaultdict(float)
    for name, seconds in own.items():
        layer_self[name.partition(".")[0]] += seconds
    c = defaultdict(int, summary["counts"])

    def share(part: int, base: int) -> float:
        return part / base if base else 0.0

    metrics = {
        "rng.shuffle_s": t["rng.shuffle"],
        "rng.ns_per_draw": 1e9 * share(t["rng.shuffle"], c["rng.shuffle_draws"]),
        "rng.draws": c["rng.draws"],
        "cycle_stats.monte_carlo_s": t["cycle_stats.monte_carlo"],
        "cycle_stats.cycle_count_s": max(t["cycle_stats.monte_carlo"] - t["rng.shuffle"], 0.0),
        "cycle_stats.brute_s": t["cycle_stats.brute"],
        "cycle_stats.by_type_s": t["cycle_stats.by_type"],
        "permutations.enumerate_s": t["permutations.enumerate"],
        "permutations.cycle_types_s": t["permutations.cycle_types"],
        "permutations.perms_built": c["permutations.perms_built"],
        "groups.sym_tables_s": t["groups.sym_tables"],
        "groups.conj_table_s": t["groups.conj_table"],
        "groups.cayley_validate_s": t["groups.cayley_validate"],
        "groupoids.validate_s": t["groupoids.validate"],
        "groupoids.validate_checks": c["groupoids.validate_checks"],
        "groupoids.checks_per_s": share(c["groupoids.validate_checks"], t["groupoids.validate"]),
        "groupoids.act_evals": c["groupoids.act_evals"],
        "groupoids.validate_sampled": share(c["groupoids.sampled_runs"], c["groupoids.validations"]),
        "groupoids.validations": c["groupoids.validations"],
        "groupoids.orbits_s": own["groupoids.orbits"],
        "categorified.build_s": t["categorified.build"],
        "categorified.rhs_s": t["categorified.rhs"],
        "categorified.q_size": c["categorified.q_size"],
        "functors.build_s": t["functors.build"],
        "functors.validate_s": t["functors.validate"],
        "functors.validate_checks": c["functors.validate_checks"],
        "functors.validate_sampled": share(c["functors.sampled_runs"], c["functors.validations"]),
        "functors.validations": c["functors.validations"],
        "functors.transport_evals": c["functors.transport_evals"],
        "functors.elements_s": t["functors.elements"],
        "cli.overhead_s": layer_self["cli"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


# Counters that must repeat exactly between traced runs of the same cases.
EXACT_COUNTS = (
    "rng.draws",
    "groupoids.act_evals",
    "groupoids.validate_checks",
    "functors.transport_evals",
    "functors.validate_checks",
    "permutations.perms_built",
    "categorified.q_size",
)
