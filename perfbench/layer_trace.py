"""Per-layer tracing for the session benchmark, installed from outside ``src/``.

The program has no spans of its own yet, so the traced run wraps the public
callables of each layer module (and the few methods sessions reach them
through) with timing wrappers, runs the same sessions again, and removes the
wrappers. A layer is a ``repro`` module; a span's *self* time is its duration
minus the time its child spans cover, so the self times of all spans add up to
the traced wall time without double counting.

Functions imported by name (``from repro.core.identification import
identify``) live in several module namespaces at once, so a function is
replaced in every loaded ``repro`` module that holds it. Methods are replaced
on the class that resolves them. The wrappers draw no random numbers and
return the wrapped result unchanged, so RNG order, and with it every
simulated result, is the same traced and untraced; the benchmark checks this.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

__all__ = ["LayerTracer"]


def _layer(span: str) -> str:
    """``core.rateless.add_slot`` → ``core.rateless``: a span is ``<module>.<call>``."""
    return span.rsplit(".", 1)[0]


class LayerTracer:
    """Span and counter recorder; :meth:`installed` patches for a ``with`` block.

    Spans and counters accumulate across ``with`` blocks.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        # One entry per open span: the time its finished children took.
        self._stack: List[float] = []
        self._undo: List[Callable[[], None]] = []

    # ---- spans -------------------------------------------------------------
    def _wrap(self, span: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch_function(self, module: str, name: str, span: str,
                       after: Optional[Callable] = None) -> None:
        """Wrap ``module.name`` in every ``repro`` namespace that imported it."""
        original = getattr(sys.modules[module], name)
        wrapper = self._wrap(span, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def patch_method(self, cls: type, name: str, span: str,
                     after: Optional[Callable] = None) -> None:
        """Wrap ``cls.name`` (own or inherited) for every instance."""
        own = name in cls.__dict__
        original = cls.__dict__[name] if own else getattr(cls, name)
        setattr(cls, name, self._wrap(span, original, after))
        if own:
            self._undo.append(functools.partial(setattr, cls, name, original))
        else:
            self._undo.append(functools.partial(delattr, cls, name))

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap the layer boundaries for the block, then restore every one."""
        try:
            self._install()
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    # ---- the repro layers ----------------------------------------------------
    def _install(self) -> None:
        """Wrap the layer boundaries the benchmark reports on."""
        from repro.core.bp_decoder import resolve_kernel
        from repro.core.rateless import RatelessDecoder
        from repro.engine.cache import CampaignCache
        from repro.engine.session import DataStage, IdentificationStage
        from repro.nodes.reader import ReaderFrontEnd
        from repro.phy.channel import ChannelTrajectory, ZoneTrajectory
        from repro.sim.scheduler import EventScheduler

        fn, meth = self.patch_function, self.patch_method
        fn("repro.engine.campaign", "run_cell", "engine.campaign.run_cell")
        fn("repro.engine.plan", "plan_campaign", "engine.plan.plan_campaign")
        meth(CampaignCache, "store_key", "engine.cache.store")
        meth(CampaignCache, "load_key", "engine.cache.load")
        meth(IdentificationStage, "run", "engine.session.ident_stage")
        meth(DataStage, "run", "engine.session.data_stage")

        fn("repro.core.identification", "identify", "core.identification.identify",
           self._after_identify)
        fn("repro.core.identification", "candidate_matrix",
           "core.identification.candidate_matrix", self._after_candidates)
        fn("repro.core.kestimate", "estimate_k", "core.kestimate.estimate_k")
        fn("repro.core.bucketing", "run_bucketing", "core.bucketing.run_bucketing")
        fn("repro.sensing.recovery", "recover_sparse", "sensing.recovery.recover_sparse")
        fn("repro.sensing.basis_pursuit", "basis_pursuit_complex",
           "sensing.basis_pursuit.complex")
        fn("repro.sensing.basis_pursuit", "basis_pursuit", "sensing.basis_pursuit.real")
        fn("repro.sensing.basis_pursuit", "linprog", "sensing.basis_pursuit.linprog",
           self._after_linprog)

        kernel = resolve_kernel()
        meth(kernel, "decode_best_of", "core.bp_decoder.kernel")
        meth(kernel, "decode_best_of_state", "core.bp_decoder.kernel")
        meth(RatelessDecoder, "add_slot", "core.rateless.add_slot")
        meth(RatelessDecoder, "try_decode", "core.rateless.try_decode", self._after_try)
        fn("repro.core.rateless", "run_rateless_uplink", "core.rateless.uplink",
           self._after_static_data)
        fn("repro.core.silencing", "run_rateless_with_silencing",
           "core.silencing.run", self._after_static_data)
        fn("repro.core.mobile", "run_mobile_data_segment", "core.mobile.segment",
           self._after_mobile_segment)

        for name in ("observe", "observe_block", "observe_empty"):
            meth(ReaderFrontEnd, name, "nodes.reader.observe")
        for name in ("slot_decision", "slot_decision_matrix",
                     "transmit_pattern", "transmit_pattern_matrix"):
            fn("repro.coding.prng", name, "coding.prng.draw")
        for name in ("channels_at", "active_at", "correlation"):
            meth(ChannelTrajectory, name, "phy.channel.trajectory")
        for name in ("home_at", "coverage_at", "handoff_count"):
            meth(ZoneTrajectory, name, "phy.channel.trajectory")

        meth(EventScheduler, "run", "sim.scheduler.run", self._after_scheduler)
        fn("repro.sim.interference", "resolve_slot", "sim.interference.resolve_slot",
           self._after_resolve)
        fn("repro.sim.multireader", "simulate_multi_reader",
           "sim.multireader.simulate", self._after_multi_reader)

    # ---- counters read off the wrapped results -------------------------------
    def _after_linprog(self, result, args, kwargs) -> None:
        self.counters["lp.iterations"] += int(getattr(result, "nit", 0))
        cost = args[0] if args else kwargs["c"]
        self.samples["lp.vars"].append(float(np.size(cost)))

    def _after_identify(self, result, args, kwargs) -> None:
        self.counters["identify.attempts"] += result.attempts
        self.counters["identify.exact"] += bool(result.exact)
        self.samples["identify.khat_ratio"].append(
            result.k_estimate.k_hat / max(1, len(args[0]))
        )

    def _after_candidates(self, result, args, kwargs) -> None:
        self.samples["identify.candidates"].append(float(result.shape[1]))
        self.samples["identify.cs_slots"].append(float(result.shape[0]))

    def _after_try(self, result, args, kwargs) -> None:
        self.counters["decoder.newly_decoded"] += result.newly_decoded

    def _false_accepts(self, accepted: np.ndarray, messages: np.ndarray,
                       truth: np.ndarray) -> None:
        wrong = np.any(messages != truth, axis=1)
        self.counters["decoder.false_accepts"] += int(np.count_nonzero(accepted & wrong))

    def _after_static_data(self, result, args, kwargs) -> None:
        truth = np.stack([tag.message for tag in args[0]])
        self._false_accepts(result.decoded_mask, result.messages, truth)

    def _after_mobile_segment(self, result, args, kwargs) -> None:
        truth = np.stack([tag.message for tag in args[0]])
        self._false_accepts(result.verified, result.messages, truth)

    def _after_multi_reader(self, result, args, kwargs) -> None:
        self._false_accepts(result.delivered, result.messages, args[0].messages)
        self.counters["sim.handoffs"] += result.handoffs
        self.counters["sim.dropped_slots"] += result.dropped_slots
        self.counters["sim.degraded_slots"] += result.degraded_slots
        self.counters["sim.total_slots"] += result.total_slots

    def _after_scheduler(self, result, args, kwargs) -> None:
        self.counters["sim.events"] += args[0].events_fired

    def _after_resolve(self, result, args, kwargs) -> None:
        self.counters["sim.resolved_kept"] += bool(result.kept)

    # ---- read-out --------------------------------------------------------------
    def ms(self, span: str) -> float:
        return 1e3 * self.total_s.get(span, 0.0)

    def self_ms(self, span: str) -> float:
        return 1e3 * self.self_s.get(span, 0.0)

    def median(self, sample: str) -> float:
        values = self.samples.get(sample)
        return float(statistics.median(values)) if values else 0.0

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer (module)."""
        shares: Dict[str, float] = defaultdict(float)
        for span, seconds in self.self_s.items():
            shares[_layer(span)] += seconds
        return dict(shares)
