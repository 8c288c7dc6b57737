"""Per-layer spans around the public functions of the `cobweb` package.

The tracer patches each target function, wherever a `cobweb` module binds
it, with a wrapper that opens a span named after the target's layer.  A
layer's self time is the time inside its spans minus the time inside the
spans they caused, so the self times of all layers add up to the time inside
`cli.main`.  Counters are read from arguments and results at the same
boundaries.  Spans are aggregated as they close rather than stored.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types
from collections import defaultdict

class Tracer:
    """Self time per layer and named work counters for one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        # Cleared by the caller around operations whose output depends on
        # the workload seed, so that render.bytes is the same for every seed.
        self.count_bytes = True

    # spans -----------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        layer, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, layer: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Worker threads of the search call no wrapped function today;
            # if one ever does, its time stays with the calling span.
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                result = on_result(self, args, kwargs, result)
            return result
        return traced

    def counted(self, layer: str, counter: str, items):
        """Iterate `items`, timing each step in `layer` and counting it."""
        iterator = iter(items)
        while True:
            self._enter(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit()
            self.counts[counter] += 1
            yield item

    # patching --------------------------------------------------------------

    def install(self, package: str = "cobweb") -> list[str]:
        """Patch every target; returns the targets that were not found."""
        missing = []
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for module_name, attr, layer, on_result in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, name, None) if holder is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(layer, original, on_result)
            if owner:
                self._set(holder, name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        json_proxy = types.ModuleType("json")
        json_proxy.__dict__.update(vars(json))
        json_proxy.dumps = self._wrap("render", json.dumps, _text_bytes)
        for mod in modules:
            if vars(mod).get("json") is json:
                self._set(mod, "json", json_proxy)
        return missing

    def _set(self, holder, name, value) -> None:
        self._patched.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def uninstall(self) -> None:
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    # report ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in SELF_LAYERS}
        counts = self.counts
        search_s = self.self_s.get("tiling.search", 0.0)
        nodes = counts["tiling.search.nodes"]
        out.update({
            "fseq.fnomial.calls": self.calls.get("fseq.fnomial", 0),
            "fseq.max_bits": counts["fseq.max_bits"],
            "poset.chains": counts["poset.chains"],
            "poset.placements": counts["poset.placements"],
            "tiling.search.nodes": nodes,
            "tiling.search.solutions": counts["tiling.search.solutions"],
            "tiling.search.nodes_per_s": nodes / search_s if nodes else 0.0,
            "tiling.search.yield": counts["tiling.search.solutions"] / nodes if nodes else 0.0,
            "tiling.search.node_cap_used": counts["tiling.search.node_cap_used"],
            "tiling.construct.blocks": counts["tiling.construct.blocks"],
            "tiling.verify.chains": counts["tiling.verify.chains"],
            "tiling.count.cells": counts["tiling.count.cells"],
            "render.bytes": counts["render.bytes"],
        })
        return out


# ---------------------------------------------------------------------------
# counters read at span boundaries

def _bits(tracer: Tracer, value: int) -> None:
    if value.bit_length() > tracer.counts["fseq.max_bits"]:
        tracer.counts["fseq.max_bits"] = value.bit_length()


def _int_bits(tracer, args, kwargs, result):
    _bits(tracer, result)
    return result


def _list_bits(tracer, args, kwargs, result):
    for value in result:
        _bits(tracer, value)
    return result


def _fnomial_bits(tracer, args, kwargs, result):
    _bits(tracer, result.value.numerator)
    _bits(tracer, result.value.denominator)
    return result


def _chains(tracer, args, kwargs, result):
    return tracer.counted("poset", "poset.chains", result)


def _placements(tracer, args, kwargs, result):
    return tracer.counted("poset", "poset.placements", result)


def _search(tracer, args, kwargs, result):
    counts = tracer.counts
    counts["tiling.search.nodes"] += result.nodes
    counts["tiling.search.solutions"] += result.count
    cap = kwargs.get("node_cap") or sys.modules["cobweb.tiling"].DEFAULT_NODE_CAP
    counts["tiling.search.node_cap_used"] = max(
        counts["tiling.search.node_cap_used"], result.nodes / cap
    )
    return result


def _blocks(tracer, args, kwargs, result):
    tracer.counts["tiling.construct.blocks"] += len(result.blocks)
    return result


def _verified_chains(tracer, args, kwargs, result):
    tracer.counts["tiling.verify.chains"] += args[0].layer.chain_count
    return result


def _cells(tracer, args, kwargs, result):
    tracer.counts["tiling.count.cells"] += len(result.cells) + len(result.notes)
    return result


def _text_bytes(tracer, args, kwargs, result):
    if tracer.count_bytes:
        tracer.counts["render.bytes"] += len(result)
    return result


# (module, attribute, layer, counter hook).  `Class.method` attributes are
# patched on the class; plain functions wherever a cobweb module binds them.
TARGETS = (
    ("cli", "main", "cli", None),
    ("fseq", "is_admissible_prefix", "fseq.admissible", None),
    ("fseq", "fnomial", "fseq.fnomial", _fnomial_bits),
    ("fseq", "prefix", "fseq.prefix", _list_bits),
    ("fseq", "f_factorial", "fseq.prefix", _int_bits),
    ("fseq", "check_identity_1", "fseq.identity", None),
    ("fseq", "check_identity_2", "fseq.identity", None),
    ("poset", "build_layer", "poset", None),
    ("poset", "placement_count", "poset", None),
    ("poset", "enumerate_chains", "poset", _chains),
    ("poset", "enumerate_placements", "poset", _placements),
    ("poset", "tiling_to_dict", "render", None),
    ("poset", "to_dot", "render", _text_bytes),
    ("tiling", "enumerate_tilings", "tiling.search", _search),
    ("tiling", "detect_variant", "tiling.construct", None),
    ("tiling", "tile_additive", "tiling.construct", _blocks),
    ("tiling", "tile_fibonacci", "tiling.construct", _blocks),
    ("tiling", "verify_tiling", "tiling.verify", _verified_chains),
    ("tiling", "triangle", "tiling.count", _cells),
    ("tiling", "count_tilings_additive", "tiling.count", None),
    ("tiling", "count_tilings_fibonacci", "tiling.count", None),
    ("tiling", "equal_block_bound", "tiling.count", None),
    ("tiling", "Triangle.to_csv", "render", _text_bytes),
    ("tiling", "Triangle.to_text", "render", _text_bytes),
    ("seqalg", "h_general", "seqalg.h_general", None),
    ("seqalg", "reconstruct", "seqalg.reconstruct", None),
)
SELF_LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))
