"""Per-layer spans recorded from outside the program.

The tracer rebinds the module attributes that callers look up at call time
(for example ``sudokugraph.sn.prune_subset``) to wrappers that record a span
(name, start, end, parent) around each call. No program file is edited. A
hooked name that the program no longer has is recorded as absent and its
metrics read zero.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# (module, attribute, span name, is a generator). A generator's span covers
# one next() call, so the caller's work between items is not charged to it.
HOOKS = [
    ("sn", "sn_exact", "sn", False),
    ("sn", "prune_subset", "prune", False),
    ("sn", "canonical_colorings", "canon", True),
    ("sn", "count_extensions", "extension", False),
    ("cli", "count_extensions", "extension", False),
    ("sn", "chromatic_number", "chromatic", False),
    ("extension", "chromatic_number", "chi_nbhd", False),
    ("extension", "is_proper", "is_proper", False),
    ("cli", "is_proper", "is_proper", False),
    ("sn", "connected_graphs_up_to_iso", "iso", True),
    ("cli", "main", "cli", False),
    ("generators", "generate", "generators", False),
]

# Counters that must repeat exactly between two traced passes.
COUNT_METRICS = [
    "sn.subsets",
    "sn.pruned",
    "sn.colorings",
    "extension.calls",
    "extension.unique",
    "extension.multiple",
    "extension.not_extendable",
    "extension.chi_nbhd_calls",
    "extension.forced_color_dominating",
    "extension.forced_near_color_dominating",
    "extension.forced_attractive",
    "extension.branch_steps",
    "coloring.is_proper_calls",
    "sn.iso_classes",
    "chromatic.calls",
    "cli.calls",
]

_now = time.perf_counter


class Tracer:
    """Span store plus the hooks that fill it. Spans stay in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.kind.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        i = self.open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def _wrap_call(self, name_id: int, fn, on_result):
        def wrapper(*args, **kwargs):
            i = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            on_result(result)
            return result

        return wrapper

    def _wrap_gen(self, name_id: int, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                counts[name] += 1
                yield item

        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, is_gen in HOOKS:
            mod = self.modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            name_id = self._id(name)
            if is_gen:
                wrapper = self._wrap_gen(name_id, fn, name)
            else:
                wrapper = self._wrap_call(name_id, fn, self._observer(name))
            self.saved.append((mod, attr, fn))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.saved):
            setattr(mod, attr, fn)
        self.saved.clear()

    def reset(self) -> None:
        for arr in (self.kind, self.parent, self.start, self.end):
            del arr[:]
        self.stack = [-1]
        self.counts.clear()

    def _observer(self, name: str):
        counts = self.counts
        if name == "sn":

            def seen(report):
                counts["sn.subsets"] += getattr(report, "subsets_examined", 0)
                counts["sn.pruned"] += sum(getattr(report, "pruned_by", {}).values())

        elif name == "extension":

            def seen(outcome):
                kind = getattr(getattr(outcome, "kind", None), "value", "unknown")
                kind = kind.replace("-", "_")
                counts[f"extension.{kind}"] += 1
                if kind == "unique":
                    for step in getattr(outcome, "trace", ()):
                        counts[f"rule.{getattr(step, 'rule', 'unknown')}"] += 1

        else:

            def seen(result):
                pass

        return seen

    def summary(self) -> dict:
        """Span totals per name: calls, inclusive seconds, self seconds."""
        n = len(self.start)
        start, end, parent, kind = self.start, self.end, self.parent, self.kind
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = kind[i]
            d = end[i] - start[i]
            calls[k] += 1
            incl[k] += d
            own[k] += d - child[i]
        return {
            name: {"calls": calls[k], "s": incl[k], "self_s": own[k]}
            for k, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: id, parent, name, start, end (s)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.kind[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass whose items ran in "item" spans."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    subsets = counts["sn.subsets"]
    calls = get("extension", "calls")
    m = {
        "sn.self_s": get("sn", "self_s"),
        "sn.subsets": subsets,
        "sn.prune_s": get("prune", "s"),
        "sn.pruned": counts["sn.pruned"],
        "sn.prune_ratio": counts["sn.pruned"] / subsets if subsets else 0.0,
        "extension.calls": calls,
        "extension.s": get("extension", "s"),
        "extension.unique": counts["extension.unique"],
        "extension.multiple": counts["extension.multiple"],
        "extension.not_extendable": counts["extension.not_extendable"],
        "sn.win_ratio": counts["extension.unique"] / calls if calls else 0.0,
        "extension.chi_nbhd_calls": get("chi_nbhd", "calls"),
        "extension.chi_nbhd_s": get("chi_nbhd", "s"),
        "sn.canon_s": get("canon", "s"),
        "sn.colorings": counts["canon"],
        "coloring.is_proper_calls": get("is_proper", "calls"),
        "coloring.is_proper_s": get("is_proper", "s"),
        "sn.iso_s": get("iso", "s"),
        "sn.iso_classes": counts["iso"],
        "chromatic.calls": get("chromatic", "calls"),
        "chromatic.s": get("chromatic", "s"),
        "extension.forced_color_dominating": counts["rule.color-dominating"],
        "extension.forced_near_color_dominating": counts["rule.near-color-dominating"],
        "extension.forced_attractive": counts["rule.attractive"],
        "extension.branch_steps": counts["rule.branch"],
        "cli.calls": get("cli", "calls"),
        "cli.self_s": get("cli", "self_s"),
    }
    # Shares of the traced pass, on the spans' own clock. extension.s
    # includes its chi_nbhd and is_proper children, so the engine share adds
    # only canon to it.
    wall_s = get("item", "s")
    m["share.sn_search"] = (m["sn.prune_s"] + m["sn.self_s"]) / wall_s
    m["share.engine"] = (m["extension.s"] + m["sn.canon_s"]) / wall_s
    m["share.iso"] = m["sn.iso_s"] / wall_s
    m["share.extension"] = m["extension.s"] / wall_s
    return m
