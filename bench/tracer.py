"""Spans and per-name aggregates for the traced run, recorded from outside.

install() rebinds the public names each caller looks up (module
attributes for verify and cli, the names bijections imported from paths
and trees, and the BiSeries methods on the class) to wrappers that open a
span per call; generator wrappers open one per `next`.  A span's self time
is its duration minus the time of its children.  Per-name aggregates hold
every call; span records are kept up to a cap and written when the run
ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

LAYERS = ("cli", "verify", "paths", "trees", "bijections", "series", "counting")
SPAN_CAP = 20000
# functions returning iterators: a span per `next`
GENERATORS = frozenset({"paths.generate_skew_dyck", "paths.generate_dyck",
                        "paths.generate_k_box", "trees.generate_trees"})


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def enter(self, name: str) -> None:
        parent = self._stack[-1][2] if self._stack else -1
        idx = -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        start = time.perf_counter()
        if idx >= 0:
            self.spans[idx][1] = start
        self._stack.append([name, start, idx, 0.0])

    def exit(self, count: bool = True) -> float:
        end = time.perf_counter()
        name, start, idx, child = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.spans[idx][2] = end
        if self._stack:
            self._stack[-1][3] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += count
        st.total += dur
        st.self_time += dur - child
        return dur

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    # ------------------------------------------------------------- wrappers

    def wrap(self, name: str, fn):
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return tracer._timed_iter(name, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _timed_iter(self, name: str, it):
        """Yield from `it`, one span per item; the span of the final,
        exhausting `next` adds time but no call."""
        while True:
            self.enter(name)
            try:
                item = next(it)
            except StopIteration:
                self.exit(count=False)
                return
            except BaseException:
                self.exit(count=False)
                raise
            self.exit()
            yield item

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        """Wrap the public names of every layer where its callers find them."""
        from boxpaths import bijections, cli, counting, paths, series, trees, verify

        for module, layer in ((paths, "paths"), (trees, "trees"), (counting, "counting"),
                              (series, "series"), (bijections, "bijections")):
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                self.patch(module, attr, f"{layer}.{attr}")
        # bijections calls these through names bound at its import
        for attr, layer in (("classify", "paths"), ("box_ascents", "paths"),
                            ("path_of_composition", "paths"), ("kdyck_to_tree", "trees"),
                            ("tree_to_kdyck", "trees")):
            self.patch(bijections, attr, f"{layer}.{attr}")
        self.patch(series.BiSeries, "__mul__", "series.mul")
        self.patch(series.BiSeries, "__rmul__", "series.mul")
        self.patch(series.BiSeries, "reciprocal", "series.reciprocal")
        self.patch(verify, "run_suite", "verify.run_suite")
        self.patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- queries

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def by_layer(self) -> dict[str, Stat]:
        """Calls and self time summed over the names of each layer (the
        part of a name before its first dot)."""
        out: dict[str, Stat] = {}
        for name, st in self.stats.items():
            agg = out.setdefault(name.split(".")[0], Stat())
            agg.calls += st.calls
            agg.total += st.total
            agg.self_time += st.self_time
        return out

    def dump(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        table = [{"name": name, "calls": st.calls, "total_s": st.total, "self_s": st.self_time}
                 for name, st in sorted(self.stats.items())]
        spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps({"summary": summary, "stats": table, "spans": spans}))


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.enter(self.name)

    def __exit__(self, *exc):
        self.tracer.exit()
