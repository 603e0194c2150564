"""Outside-in tracing of rislink's public functions.

Each hooked function is wrapped wherever a caller looks it up: every
``rislink`` module namespace that binds the original object, plus dict
values one level down (``montecarlo._RUNNERS`` stores ``run_ds`` and
``run_db`` directly).  Wrapping the binding a caller reads, instead of
the definition, keeps spans correct when a module imports a function by
value.  A name that no longer exists is reported as absent.

Spans (name, start, end, parent) are kept in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

import numpy as np


def _composite_bytes(args: dict, result) -> int:
    """Hop matrices materialized: 16 * N_s * (n_tx + n_rx) bytes per surface."""
    return sum(
        16 * up.n_in * (down.n_in + up.n_out)
        for down, up in zip(args["tx_ris"], args["ris_rx"])
    )


def _sm_tuples(args: dict, result) -> int:
    n_ris, n_paths = np.shape(args["candidates"])
    return math.comb(n_ris, args["n_rx"]) * n_paths ** args["n_rx"]


def _bf_tuples(args: dict, result) -> int:
    return np.shape(args["candidates"])[1] ** len(result.active_ris)


def _diversity_tuples(args: dict, result) -> int:
    """Whole search of the call, its slot-0 search included (that search is
    also counted under the ``select_paths_sm``/``_bf`` call it makes)."""
    n_paths = np.shape(args["candidates"])[1]
    n_active = len(result.active_ris)
    first = _sm_tuples(args, result) if args["scheme"] == "ds" else n_paths**n_active
    return first + sum((n_paths - m) ** n_active for m in range(1, args["n_slots"]))


# Hooked function -> (count name, counter) or None.  Counters read bound
# arguments by parameter name and the return value, so they repeat exactly
# for the same inputs.
HOOKS = {
    "config.place_deployment": None,
    "channel.draw_tx_ris_channel": None,
    "channel.draw_ris_rx_channel": None,
    "channel.redraw_fading": None,
    "channel.assemble_composite": ("computed_bytes", _composite_bytes),
    "montecarlo.substream": None,
    "montecarlo.inject_angle_error": None,
    "montecarlo.estimate_ergodic_se": None,
    "montecarlo.estimate_ber": None,
    "customize.select_paths_sm": ("tuples", _sm_tuples),
    "customize.select_paths_bf": ("tuples", _bf_tuples),
    "customize.select_paths_diversity": ("tuples", _diversity_tuples),
    "customize.build_customized_channel": None,
    "transceive.run_sm": None,
    "transceive.run_bf": None,
    "transceive.run_ds": None,
    "transceive.run_db": None,
    "transceive.ber_trial": ("bits", lambda args, result: result.bits_sent),
    "analysis.exp_integral_ei": ("points", lambda args, result: int(np.size(args["x"]))),
    "analysis.se_sm_approx": None,
    "analysis.se_sm_upper": None,
    "analysis.se_bf_upper": None,
    "analysis.se_db_upper": None,
    "analysis.crossing_point": None,
    "analysis.crossing_point_two_stream": None,
    "analysis.crossing_point_three_stream": None,
    "cli.write_csv": ("bytes", lambda args, result: os.path.getsize(args["path"])),
}

MODULES = sorted({name.split(".")[0] for name in HOOKS})


def count_names() -> list[str]:
    return [f"{name}.{spec[0]}" for name, spec in HOOKS.items() if spec]


class Tracer:
    """Span recorder plus the bindings it replaced, for exact restore."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {name: 0 for name in count_names()}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._replaced: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn, spec):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if spec else None
        count_key = f"{name}.{spec[0]}" if spec else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if spec and count_key not in self.absent:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.counts[count_key] += int(spec[1](bound, result))
                except (TypeError, KeyError, AttributeError, ValueError, OSError):
                    # The function's signature or result changed shape:
                    # the count no longer means what it did.
                    self.absent.add(count_key)
            return result

        return traced

    def install(self) -> None:
        namespaces = [
            vars(module)
            for mod_name, module in list(sys.modules.items())
            if module is not None and (mod_name == "rislink" or mod_name.startswith("rislink."))
        ]
        for name, spec in HOOKS.items():
            module_name, attr = name.split(".")
            try:
                module = importlib.import_module(f"rislink.{module_name}")
            except ImportError:
                self.absent.add(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.add(name)
                continue
            traced = self._wrap(name, original, spec)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._bind(namespace, key, traced)
                    elif isinstance(value, dict):
                        for inner_key, inner in list(value.items()):
                            if inner is original:
                                self._bind(value, inner_key, traced)
        for count_key in count_names():
            if count_key.rsplit(".", 1)[0] in self.absent:
                self.absent.add(count_key)

    def _bind(self, container: dict, key, traced) -> None:
        self._replaced.append((container, key, container[key]))
        container[key] = traced

    def uninstall(self) -> None:
        for container, key, original in reversed(self._replaced):
            container[key] = original
        self._replaced.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per hooked function: (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: (0, 0.0) for name in HOOKS}
        for (name, start, end, _), children in zip(self.spans, child_time):
            calls, total = out[name]
            out[name] = (calls + 1, total + (end - start - children))
        return out

    def covered_seconds(self) -> float:
        """Wall time inside any span (root spans do not overlap)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
