"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the library's public functions and methods
with timing or counting wrappers, in every ``tamari_balance`` module that
holds them (so ``intervals.tamari_leq`` and ``cli.series`` are covered as
well as their home modules), and ``uninstall`` puts the originals back.

A span is one call of a timed function.  Spans are kept in memory as they
close, aggregated by (parent span, name): calls, wall time and self time,
where self time is the span's duration minus the time its child spans
cover.  A call made while a span of the same name is open (recursion) is
not a span of its own: only the outermost call is counted and timed.
``profile`` returns these records plus the counters, and
``layer_metrics`` turns summed profiles into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time

# Timed functions: metric prefix -> (module, attribute).
SPANS = {
    "cli.main": ("cli", "main"),
    "trees.all_trees": ("trees", "all_trees"),
    "tamari.tamari_poset": ("tamari", "tamari_poset"),
    "tamari.tamari_leq": ("tamari", "tamari_leq"),
    "tamari.interval": ("tamari", "interval"),
    "balance.balanced_trees": ("balance", "balanced_trees"),
    "grammars.series": ("grammars", "series"),
    "patterns.classify_balanced": ("patterns", "classify_balanced"),
    "intervals.rotation_root_set": ("intervals", "rotation_root_set"),
    "intervals.count_balanced_intervals": ("intervals", "count_balanced_intervals"),
    "intervals.count_maximal_balanced_intervals": (
        "intervals", "count_maximal_balanced_intervals"),
    "intervals.verify_hypercube": ("intervals", "verify_hypercube"),
    "families.closure_check": ("families", "closure_check"),
    "families.imbalance_family": ("families", "imbalance_family"),
    "families.narayana_row": ("families", "narayana_row"),
}
# Timed methods: metric prefix -> (module, class, attribute).
METHOD_SPANS = {
    "polynomials.mul": ("polynomials", "Polynomial", "__mul__"),
    "polynomials.substitute": ("polynomials", "Polynomial", "substitute"),
    "polynomials.truncate": ("polynomials", "Polynomial", "truncate"),
}
# Functions and methods whose calls are only counted.
COUNTED = {
    "trees.serialize": ("trees", "serialize"),
    "tamari.covers": ("tamari", "covers"),
    "balance.is_balanced": ("balance", "is_balanced"),
    "balance.classify_rotation": ("balance", "classify_rotation"),
}
METHOD_COUNTED = {
    "tamari.reach_masks": ("tamari", "TamariPoset", "_reach_mask"),
    "polynomials.monomials_built": ("polynomials", "Monomial", "__init__"),
}


def _modules():
    return [
        m for name, m in sys.modules.items()
        if m is not None and (name == "tamari_balance" or name.startswith("tamari_balance."))
    ]


def _size(poly) -> int:
    return sum(1 for _ in poly.items())


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child time]
        self.active: set[str] = set()
        self.spans: dict[tuple[str, str], list[float]] = {}
        self.counts: dict[str, int] = {}
        self.free_leq = 0  # open poset-free tamari_leq spans
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def _timed(self, name: str, fn, after=None):
        stack, active, spans, clock = self.stack, self.active, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                active.discard(name)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += took
                rec = spans.setdefault((parent[0] if parent else "", name), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for derived metrics --------------------------------------

    def _leq(self, fn):
        timed = self._timed("tamari.tamari_leq", fn)

        def wrapper(t0, t1, poset=None):
            if poset is not None:
                return timed(t0, t1, poset)
            self.free_leq += 1
            self.count("tamari.tamari_leq.free_calls")
            try:
                return timed(t0, t1)
            finally:
                self.free_leq -= 1

        return wrapper

    def _covers(self, fn):
        counted = self._counted("tamari.covers", fn)

        def wrapper(t):
            if self.free_leq:
                self.count("tamari.covers.in_free_leq")
            return counted(t)

        return wrapper

    def _after_balanced(self, fn):
        def around(n):
            tested = self.counts.get("balance.is_balanced", 0)
            result = fn(n)
            tested = self.counts.get("balance.is_balanced", 0) - tested
            if tested:
                self.count("balance.tested", tested)
                self.count("balance.returned", len(result))
            return result

        return self._timed("balance.balanced_trees", around)

    # -- installing -----------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        original = cls.__dict__[attr]
        for name, value in list(cls.__dict__.items()):
            if value is original:
                self._undo.append((cls, name, value))
                setattr(cls, name, wrapper)

    def install(self) -> None:
        """Wrap the library's layers; ``tamari_balance.cli`` must be
        imported, which loads every module."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        special = {
            "tamari.tamari_leq": self._leq,
            "balance.balanced_trees": self._after_balanced,
        }
        afters = {
            "grammars.series": lambda a, k, r: self.count("grammars.series.terms", _size(r)),
            "families.imbalance_family": lambda a, k, r: self.count(
                "families.imbalance_family.trees", len(r)),
        }
        for name, (mod, attr) in SPANS.items():
            fn = getattr(mods[mod], attr)
            wrap = special.get(name)
            self._replace(fn, wrap(fn) if wrap else self._timed(name, fn, afters.get(name)))
        for name, (mod, attr) in COUNTED.items():
            fn = getattr(mods[mod], attr)
            wrapper = self._covers(fn) if name == "tamari.covers" else self._counted(name, fn)
            self._replace(fn, wrapper)
        for name, (mod, cls_name, attr) in METHOD_SPANS.items():
            cls = getattr(mods[mod], cls_name)
            fn = cls.__dict__[attr]
            after = None
            if name == "polynomials.truncate":
                def after(args, kwargs, result):
                    self.count("polynomials.truncate.terms_in", _size(args[0]))
                    self.count("polynomials.truncate.terms_kept", _size(result))
            self._replace_method(cls, attr, self._timed(name, fn, after))
        for name, (mod, cls_name, attr) in METHOD_COUNTED.items():
            cls = getattr(mods[mod], cls_name)
            self._replace_method(cls, attr, self._counted(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ---------------------------------------------------------

    def profile(self) -> dict:
        """Span records and counters of this process, in JSON types."""
        # Truncations made directly by series, less its first one, are
        # its substitution rounds.
        rounds = self.spans.get(("grammars.series", "polynomials.truncate"), [0])[0]
        series_calls = sum(
            rec[0] for (_, name), rec in self.spans.items() if name == "grammars.series"
        )
        counts = dict(self.counts)
        counts["grammars.series.rounds"] = rounds - series_calls
        counts["trees.intern_size"] = len(sys.modules["tamari_balance.trees"]._INTERN)
        return {
            "spans": [
                {"parent": p, "name": n, "calls": c, "s": s, "self_s": own}
                for (p, n), (c, s, own) in sorted(self.spans.items())
            ],
            "counts": counts,
        }


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def layer_metrics(profiles: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round, from the profiles of its jobs."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, int] = {}
    for prof in profiles:
        for rec in prof["spans"]:
            name = rec["name"]
            calls[name] = calls.get(name, 0) + rec["calls"]
            own[name] = own.get(name, 0.0) + rec["self_s"]
            total[name] = total.get(name, 0.0) + rec["s"]
        for name, value in prof["counts"].items():
            counts[name] = counts.get(name, 0) + value
    c = counts.get
    return {
        "cli.main.self_s": own.get("cli.main", 0.0),
        "trees.all_trees.s": total.get("trees.all_trees", 0.0),
        "trees.intern_size": c("trees.intern_size", 0),
        "trees.serialize.calls": c("trees.serialize", 0),
        "tamari.tamari_poset.s": total.get("tamari.tamari_poset", 0.0),
        "tamari.reach_masks": c("tamari.reach_masks", 0),
        "tamari.covers.calls": c("tamari.covers", 0),
        "tamari.tamari_leq.calls": calls.get("tamari.tamari_leq", 0),
        "tamari.tamari_leq.self_s": own.get("tamari.tamari_leq", 0.0),
        "tamari.interval.self_s": own.get("tamari.interval", 0.0),
        "tamari.covers_per_leq": _ratio(
            c("tamari.covers.in_free_leq", 0), c("tamari.tamari_leq.free_calls", 0), 0.0),
        "balance.balanced_trees.s": total.get("balance.balanced_trees", 0.0),
        "balance.is_balanced.calls": c("balance.is_balanced", 0),
        "balance.balanced_yield": _ratio(
            c("balance.returned", 0), c("balance.tested", 0), 1.0),
        "balance.classify_rotation.calls": c("balance.classify_rotation", 0),
        "polynomials.mul.calls": calls.get("polynomials.mul", 0),
        "polynomials.mul.self_s": own.get("polynomials.mul", 0.0),
        "polynomials.substitute.self_s": own.get("polynomials.substitute", 0.0),
        "polynomials.truncate.self_s": own.get("polynomials.truncate", 0.0),
        "polynomials.monomials_built": c("polynomials.monomials_built", 0),
        "polynomials.kept_share": _ratio(
            c("polynomials.truncate.terms_kept", 0), c("polynomials.truncate.terms_in", 0), 1.0),
        "grammars.series.calls": calls.get("grammars.series", 0),
        "grammars.series.self_s": own.get("grammars.series", 0.0),
        "grammars.series.rounds": c("grammars.series.rounds", 0),
        "grammars.series.terms": c("grammars.series.terms", 0),
        "patterns.classify_balanced.calls": calls.get("patterns.classify_balanced", 0),
        "patterns.classify_balanced.self_s": own.get("patterns.classify_balanced", 0.0),
        "intervals.rotation_root_set.calls": calls.get("intervals.rotation_root_set", 0),
        "intervals.rotation_root_set.self_s": own.get("intervals.rotation_root_set", 0.0),
        "intervals.count_balanced_intervals.self_s": own.get(
            "intervals.count_balanced_intervals", 0.0),
        "intervals.count_maximal_balanced_intervals.self_s": own.get(
            "intervals.count_maximal_balanced_intervals", 0.0),
        "intervals.verify_hypercube.self_s": own.get("intervals.verify_hypercube", 0.0),
        "families.closure_check.self_s": own.get("families.closure_check", 0.0),
        "families.imbalance_family.self_s": own.get("families.imbalance_family", 0.0),
        "families.narayana_row.self_s": own.get("families.narayana_row", 0.0),
        "families.imbalance_family.trees": c("families.imbalance_family.trees", 0),
    }
