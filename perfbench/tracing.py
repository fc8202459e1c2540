"""Per-module tracing of topkat from outside the package.

Every public function of every `topkat` module is wrapped, and the
wrapper is installed at each module attribute bound to that function,
i.e. at the names where callers look it up (`reduction.equivalent`,
`domain.topkat_leq`, `cli.topkat_equivalent`, ...).  A wrapper records a
span only for the outermost active call of its function, so recursive
functions (`evaluate`, `light_normalize`, `render`) cost one span per
top-level call.  Self time is a span's duration minus the time covered
by its child spans.  Spans are aggregated in memory per function:
calls, inclusive seconds and self seconds.

Counting hooks (term nodes, atoms, witness actions, countermodel states)
run after their span has closed, and their time is excluded from the
enclosing span's self time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from types import ModuleType

MODULES = ("syntax", "semantics", "reduction", "decide", "domain", "logic",
           "relmodel", "gen", "errors", "cli")
# Modules on the timed path; `gen` and `errors` hold no timed functions.
LAYERS = ("cli", "syntax", "semantics", "reduction", "decide", "domain", "logic",
          "relmodel")


def term_nodes(t) -> int:
    """Node count of a topkat term, iteratively."""
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        for name in ("arg", "left", "right"):
            child = getattr(node, name, None)
            if child is not None:
                stack.append(child)
    return count


def _modules() -> dict[str, ModuleType]:
    found = {name: importlib.import_module(f"topkat.{name}") for name in MODULES}
    found["__init__"] = importlib.import_module("topkat")
    return found


def public_functions(module: ModuleType) -> dict[str, object]:
    """Public plain functions defined in the module (generators excluded:
    their work runs after the call returns, so a span would miss it)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)}


class Tracer:
    """Install with `with tracer:`; every replaced attribute is restored on exit."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._patched: list[tuple[ModuleType, str, object]] = []
        self._hooks = {
            "syntax.parse": lambda r: self.counts.update({"syntax.term_nodes": term_nodes(r)}),
            "reduction.reduce": lambda r: self.counts.update(
                {"reduction.reduct_nodes": term_nodes(r)}),
            # all_atoms is called on the timed path only by decide.equivalent
            "semantics.all_atoms": lambda r: self.counts.update({"decide.atoms": len(r)}),
            "decide.equivalent": self._witness_hook,
            "domain.build_cod_countermodel": self._countermodel_hook,
            "domain.build_dom_countermodel": self._countermodel_hook,
        }

    def _witness_hook(self, verdict) -> None:
        string = getattr(verdict, "string", None)
        if string is not None:
            self.counts["decide.witness_actions"] += string.num_actions

    def _countermodel_hook(self, model) -> None:
        self.counts["domain.countermodel_states"] += len(model.carrier)

    def reset(self) -> None:
        for table in (self.calls, self.incl, self.self_s, self.counts):
            table.clear()

    def _wrap(self, key: str, fn):
        stack, calls, incl, self_s = self._stack, self.calls, self.incl, self.self_s
        hook = self._hooks.get(key)
        clock = time.perf_counter
        active = [False]

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[key] += 1
                incl[key] += elapsed
                self_s[key] += elapsed - child
                active[0] = False
            if hook is not None:
                hook_start = clock()
                hook(result)
                if stack:
                    stack[-1] += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> Tracer:
        modules = _modules()
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            if short == "__init__":
                continue
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        try:
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patched.append((module, name, value))
                        setattr(module, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Seconds per layer metric (suffix `_ms` names; scaled by the caller)
    and exact counts (every other name), for one traced round."""
    calls, incl, self_s, counts = tracer.calls, tracer.incl, tracer.self_s, tracer.counts
    times = {
        "syntax.parse_ms": incl["syntax.parse"],
        "reduction.reduce_ms": incl["reduction.reduce"],
        "reduction.prune_ms": incl["reduction.prune_alphabet"],
        "decide.equivalent_self_ms": self_s["decide.equivalent"],
        "decide.light_normalize_ms": incl["decide.light_normalize"],
        "decide.member_ms": incl["decide.member"],
        "domain.cod_geq_self_ms": self_s["domain.cod_geq"],
        "domain.dom_geq_self_ms": self_s["domain.dom_geq"],
        "domain.countermodel_ms": (incl["domain.build_cod_countermodel"]
                                   + incl["domain.build_dom_countermodel"]),
        "logic.check_triple_self_ms": self_s["logic.check_triple"],
        "relmodel.search_ms": incl["relmodel.search_countermodel"],
        "relmodel.falsify_ms": incl["relmodel.falsify_implication"],
        "relmodel.evaluate_ms": incl["relmodel.evaluate"],
    }
    for short in LAYERS:
        times[f"{short}.self_ms"] = sum(v for k, v in self_s.items()
                                        if k.startswith(short + "."))
    exact = {
        "syntax.parse_calls": calls["syntax.parse"],
        "syntax.term_nodes": counts["syntax.term_nodes"],
        "reduction.calls": calls["reduction.reduce"],
        "reduction.reduct_nodes": counts["reduction.reduct_nodes"],
        "decide.equivalent_calls": calls["decide.equivalent"],
        "decide.atoms": counts["decide.atoms"],
        "decide.member_calls": calls["decide.member"],
        "decide.witness_actions": counts["decide.witness_actions"],
        "domain.countermodel_states": counts["domain.countermodel_states"],
        "logic.triples": calls["logic.check_triple"],
        "relmodel.evaluate_calls": calls["relmodel.evaluate"],
    }
    return {**times, **exact}


TIME_METRICS = ("syntax.parse_ms", "reduction.reduce_ms", "reduction.prune_ms",
                "decide.equivalent_self_ms", "decide.light_normalize_ms",
                "decide.member_ms", "domain.cod_geq_self_ms", "domain.dom_geq_self_ms",
                "domain.countermodel_ms", "logic.check_triple_self_ms",
                "relmodel.search_ms", "relmodel.falsify_ms", "relmodel.evaluate_ms",
                ) + tuple(f"{m}.self_ms" for m in LAYERS)
