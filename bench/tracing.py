"""Per-layer counters and spans, recorded from outside the package.

``Tracer.install`` replaces each listed function by a wrapper in every
``measure_lab`` module namespace that holds it, because modules call each
other by imported name (``fourier`` calls ``frac_beta_power`` as its own
global).  The layers are the package's modules; a counter is named
``<module>.<function>.<counter>``.  ``uninstall`` puts the originals back,
so traced and untraced rounds can alternate in one process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function, timed).  A timed function gets calls and inclusive
# seconds; the hot ring operation gets calls only, since timing it would
# cost more than the operation itself.
TARGETS = (
    ("algebraic", "make_pisot", True),
    ("algebraic", "refined_enclosures", True),
    ("algebraic", "frac_beta_power", True),
    ("algebraic", "bint_embed", True),
    ("algebraic", "qbeta_embed", True),
    ("algebraic", "bint_mul_beta", False),
    ("zero_automaton", "state_within_bounds", True),
    ("zero_automaton", "build_zero_automaton", True),
    ("zero_automaton", "verify_zero_language", True),
    ("classify", "finite_image_test", True),
    ("classify", "atoms", True),
    ("classify", "classify", True),
    ("parry", "perron", True),
    ("fourier", "build_weight_cache", True),
    ("fourier", "WeightMatrixCache.weight", True),
    ("fourier", "nu_hat", True),
    ("fourier", "nu_hat_initial", True),
    ("fourier", "psi_hat", True),
    ("fourier", "rajchman_scan", True),
    ("distribution", "value_bounds", True),
    ("distribution", "cdf_bracket", True),
    ("distribution", "depth_cloud", True),
    ("automaton", "parse_automaton", True),
    ("automaton", "primitivity_check", True),
    ("automaton", "ambiguous_word_count", True),
    ("automaton", "transition_matrices", True),
    ("cli", "main", True),
)

# Counters read off return values, per wrapped function.
RESULT_COUNTERS = {
    "zero_automaton.state_within_bounds": {"accepted": lambda r: int(bool(r))},
    "fourier.psi_hat": {"head_terms": lambda r: r.head_terms, "tail_terms": lambda r: r.tail_terms},
    "distribution.depth_cloud": {"entries": lambda r: len(r.entries)},
}


def _key(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class Tracer:
    """Calls, inclusive seconds and self seconds per wrapped function."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        # Inclusive time of the wrapped calls made directly by each open
        # span; a span's self time is its duration minus that.
        self._child_time: list[float] = []
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()
        self.self_seconds.clear()

    def _timed(self, key: str, fn):
        counts, child_time = self.counts, self._child_time
        seconds, self_seconds = self.seconds, self.self_seconds
        tallies = RESULT_COUNTERS.get(key, {})
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                seconds[key] += elapsed
                self_seconds[key] += elapsed - inner
            for name, tally in tallies.items():
                counts[f"{key}.{name}"] += tally(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "measure_lab" or name.startswith("measure_lab."))
        ]
        for module_name, qualname, timed in TARGETS:
            module = sys.modules[f"measure_lab.{module_name}"]
            key = _key(module_name, qualname)
            make = self._timed if timed else self._counted
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._installed.append((owner, attr, original))
                setattr(owner, attr, make(key, original))
                continue
            original = getattr(module, qualname)
            wrapper = make(key, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._installed.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def snapshot(self) -> dict[str, float]:
        """This round's counters, zero for functions not called:
        ``<key>.calls``, ``<key>.s`` for timed functions, the counters read
        off return values, ``cli.main.self_s`` and the ratio
        ``algebraic.recertify_per_frac``."""
        out: dict[str, float] = {}
        for module_name, qualname, timed in TARGETS:
            key = _key(module_name, qualname)
            out[key + ".calls"] = self.counts[key + ".calls"]
            if timed:
                out[key + ".s"] = self.seconds[key]
            for name in RESULT_COUNTERS.get(key, {}):
                out[f"{key}.{name}"] = self.counts[f"{key}.{name}"]
        out["cli.main.self_s"] = self.self_seconds["cli.main"]
        frac = self.counts["algebraic.frac_beta_power.calls"]
        refined = self.counts["algebraic.refined_enclosures.calls"]
        out["algebraic.recertify_per_frac"] = refined / frac if frac else 0.0
        return out
