"""Per-layer call timing for gkval, installed from outside the package.

``LayerTrace.install`` replaces the public functions of each gkval module
with timing wrappers and ``remove`` puts the originals back; nothing under
``src/`` changes.  A wrapped function is also replaced in every gkval module
that imported it with ``from . import``, and the ``RelativeRootSystem``
methods are replaced on the class.  Modules are reached through
``importlib.import_module`` because ``gkval/__init__.py`` re-exports the
function ``constant_term`` under the name of its submodule.

Self time is a call's inclusive time minus the inclusive time of the wrapped
calls it made.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# layer (= module of gkval) -> wrapped names; "Class.method" is patched on the class
LAYERS = {
    "roots": (
        "restrict_roots",
        "RelativeRootSystem.normalize",
        "RelativeRootSystem.inversion_set",
        "RelativeRootSystem.longest_element",
        "RelativeRootSystem.coroot_pairing_vector",
    ),
    "characters": ("pair", "compose_with_coroot"),
    "lfactors": ("r_alpha", "poles_positive", "evaluate_finite"),
    "constant_term": ("constant_term", "pole_profile", "multiplicativity_check"),
    "oracles": (
        "gk_integral_sl2",
        "gk_integral_su21_inert",
        "gk_integral_sl3",
        "s_independence_check",
        "legendre_check",
    ),
    "cli": ("load_spec", "main"),
}

# exact work counts recorded by the wrappers' result hooks
COUNTS = (
    "roots.restrict_roots.distinct_folds",
    "roots.restrict_roots.abs_roots_folded",
    "constant_term.constant_term.factors",
    "lfactors.atoms_out",
    "oracles.shell_terms",
)


def _span_name(layer: str, name: str) -> str:
    return f"{layer}.{name.rpartition('.')[2]}"


SPANS = tuple(_span_name(layer, name) for layer, names in LAYERS.items() for name in names)

# every per-layer metric a snapshot reports, with its unit
UNITS = {
    **{f"{span}.calls": "count" for span in SPANS},
    **{f"{span}.self_s": "s" for span in SPANS},
    **{name: "count" for name in COUNTS},
    "roots.restrict_roots.useful_ratio": "ratio",
}


class LayerTrace:
    """Call counts, self times and work counts for the wrapped functions."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.folds: set = set()

    def snapshot(self) -> dict[str, float]:
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out.update({name: self.counts[name] for name in COUNTS})
        out["roots.restrict_roots.distinct_folds"] = len(self.folds)
        calls = self.calls["roots.restrict_roots"]
        # no fold at all reads as 0: nothing was wasted and nothing was useful
        out["roots.restrict_roots.useful_ratio"] = len(self.folds) / calls if calls else 0.0
        return out

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer trace is already installed")
        layer_modules = {layer: importlib.import_module(f"gkval.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gkval" or n.startswith("gkval.")]
        hooks = self._hooks()
        for layer, names in LAYERS.items():
            module = layer_modules[layer]
            for name in names:
                span = _span_name(layer, name)
                cls_name, _, attr = name.rpartition(".")
                if cls_name:
                    owner = getattr(module, cls_name)
                    wrapper = self._wrap(span, getattr(owner, attr), hooks.get(span))
                    self._patch(owner, attr, wrapper)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span, original, hooks.get(span))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.calls[span] += 1
                self.self_s[span] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook_start = clock()
                hook(args, kwargs, result)
                if stack:
                    # the hook's cost is charged to no layer's self time
                    stack[-1] += clock() - hook_start
            return result

        return functools.wraps(fn)(wrapper)

    def _hooks(self) -> dict:
        oracles = importlib.import_module("gkval.oracles")
        counts = self.counts

        def fold(args, kwargs, system):
            datum = args[0] if args else kwargs["datum"]
            self.folds.add((datum.cartan, datum.automorphism))
            counts["roots.restrict_roots.abs_roots_folded"] += sum(
                len(r.orbit) for r in system.positive_roots
            )

        def factors(args, kwargs, report):
            counts["constant_term.constant_term.factors"] += len(report.factors)

        def atoms(args, kwargs, product):
            counts["lfactors.atoms_out"] += len(product)

        def depth(args, kwargs) -> int:
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg", oracles.DEFAULT_CONFIG)
            return cfg.depth

        # computed from the depth, not counted inside the shell loops
        def sl2_terms(args, kwargs, value):
            counts["oracles.shell_terms"] += depth(args, kwargs)

        def su21_terms(args, kwargs, value):
            counts["oracles.shell_terms"] += (depth(args, kwargs) + 1) ** 2

        return {
            "roots.restrict_roots": fold,
            "constant_term.constant_term": factors,
            "lfactors.r_alpha": atoms,
            "oracles.gk_integral_sl2": sl2_terms,
            "oracles.gk_integral_su21_inert": su21_terms,
        }
