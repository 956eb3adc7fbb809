"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: each layer's public
functions are wrapped where their callers look them up (a module that
imports a function by name holds its own binding, so every such binding is
patched), plus ``numpy.linalg.svd`` and ``numpy.linalg.qr`` as the
``kernel`` layer.  A span records calls, inclusive time and self time
(inclusive time minus the time of the spans it encloses).  Nothing is
wrapped in an untraced run, so end-to-end figures carry no tracing cost.

"""

import time
from collections import Counter

SOURCE_NAMES = {"identity-start": "identity", "ascent": "ascent", "sampling": "sampling"}


class Tracer:
    """In-memory span and counter store; only records while ``active``."""

    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []          # [span name, seconds covered by child spans]

    def reset(self):
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()

    def snapshot(self):
        return {"calls": Counter(self.calls), "total": Counter(self.total),
                "self": Counter(self.self_time), "counts": Counter(self.counts)}

    def parent_span(self):
        return self._stack[-1][0] if self._stack else None

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, name, start):
        elapsed = time.perf_counter() - start
        _, child = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child

    def wrap(self, name, fn, on_call=None):
        """A recording wrapper around ``fn``; ``on_call(result)`` may add
        counters after each recorded call."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
            if on_call is not None:
                on_call(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn, yielded_key):
        """Like ``wrap`` for a generator function: the span is open only while
        the generator runs, and each yielded item is counted."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not tracer.active:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                else:
                    start = tracer._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, start)
                    tracer.counts[yielded_key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owners, attribute, make_wrapper):
        """Replace ``attribute`` on the first owner (where it is defined) and
        on every further owner that holds the same object."""
        original = vars(owners[0]).get(attribute)
        if original is None:
            raise RuntimeError(f"{owners[0].__name__} no longer defines {attribute!r}")
        wrapper = make_wrapper(original)
        for owner in owners:
            if vars(owner).get(attribute) is original:
                setattr(owner, attribute, wrapper)


def install(tracer, fd):
    """Wrap every traced entry point of fourierdist and numpy.linalg."""
    import numpy as np
    from fourierdist import fourier, homs, irreps, lemmas, optim, search

    def count_table_miss(result):
        if tracer.parent_span() == "irreps.irrep_table_for":
            tracer.counts["irreps.table_misses"] += 1

    def count_source(result):
        source = result[2].get("best_source")
        tracer.counts["optim.best_source." + SOURCE_NAMES.get(source, "other")] += 1

    spans = [
        ("irreps.irreps_of", (irreps, fd), "irreps_of", count_table_miss),
        ("irreps.irrep_table_for", (irreps, fd, search), "irrep_table_for", None),
        ("homs.hom_norm_report", (homs, fd, search), "hom_norm_report", None),
        ("homs.level_k_norm", (homs, fd), "level_k_norm", None),
        ("homs.cb_norm", (homs, fd), "cb_norm", None),
        ("homs.jordan_defect", (homs, fd, lemmas), "jordan_defect", None),
        ("homs.kernels", (homs.InducedHom,), "kernels", None),
        ("optim.linmap_build", (optim.BlockLinearMap,), "__init__", None),
        ("optim.maximize", (optim, homs), "maximize_block_image", count_source),
        ("lemmas.verify_invmult", (lemmas, fd), "verify_invmult", None),
        ("lemmas.verify_unitmult", (lemmas, fd), "verify_unitmult", None),
        ("lemmas.verify_norm_gap", (lemmas, fd), "verify_norm_gap", None),
        ("fourier.a_norm", (fourier, fd), "a_norm", None),
        ("fourier.dual_norm_witness", (fourier, fd), "dual_norm_witness", None),
        ("kernel.svd", (np.linalg,), "svd", None),
        ("kernel.qr", (np.linalg,), "qr", None),
    ]
    for name, owners, attribute, on_call in spans:
        tracer.patch(owners, attribute,
                     lambda fn, name=name, on_call=on_call: tracer.wrap(name, fn, on_call))
    tracer.patch((search, fd), "enumerate_bijections",
                 lambda fn: tracer.wrap_generator("search.enumerate", fn,
                                                  "search.enumerate.bijections"))
