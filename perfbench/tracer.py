"""Span tracer that wraps the library's module entry points from outside.

Nothing in the library knows about tracing.  ``Tracer.install`` replaces each
entry point listed in ``ENTRY_POINTS`` with a wrapper in every ``wiretap``
module that binds it (so ``harness``'s own import of ``partition_svd`` is
wrapped too), and ``Tracer.uninstall`` puts the originals back.  A span is
keyed by the module that defines the wrapped function.  An entry point that
no longer exists is reported in ``absent`` rather than raising, so a library
refactor that renames one does not break the benchmark.

Spans (name, start, end, parent, op, error) are kept in memory in flat
arrays, which the garbage collector does not scan, and are reduced and
written out once the run ends.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# Calls that cross into each layer.  "Class.method" entries wrap that method
# on the class; "__init__" wraps construction, including validation.
ENTRY_POINTS = {
    "channels": (
        "generate_channels", "complex_gaussian", "partition_svd", "perturb_ecsi",
        "sample_csi_error", "ChannelMatrix.__init__", "ChannelSet.__init__",
        "CsiErrorModel.iid", "CsiErrorModel.full",
    ),
    "perturbation": (
        "compute_moments", "naive_sinr_terms", "predict_naive_sinr", "naive_trial",
        "simulate_naive", "first_vector_leak", "PerturbMoments.scaled",
    ),
    "transmit": (
        "design_artificial_noise", "design_known_ecsi", "bob_matched_beamformer",
        "eve_mmse_beamformer", "evaluate_sinr", "link_sinr", "perfect_csi_trial",
        "secure_goodput", "secrecy_capacity_full", "required_rho",
        "noise_covariance_for", "noise_factor_for", "TxScheme.__init__",
        "RxBeamformer.__init__",
    ),
    # The harness reaches robust only through the two private trial entry
    # points, which it imports by name.
    "robust": ("_fdd_trial", "_tdd_trial", "fdd_receiver", "tdd_receiver", "_rank1_gain"),
    # _rng and _seed are the helpers every harness random stream goes through.
    "harness": ("run_experiment", "_rng", "_seed"),
}

# Spans whose time counts as seeding when the harness calls them directly.
SEED_KEYS = frozenset({
    "harness._rng", "harness._seed", "channels.complex_gaussian", "channels.perturb_ecsi",
})
PREDICT_KEYS = frozenset({"perturbation.predict_naive_sinr", "perturbation.naive_sinr_terms"})


def _moments_key(args, kwargs) -> str:
    err = args[1] if len(args) > 1 else kwargs["err"]
    if err.kind == "full":
        return "perturbation.compute_moments_correlated"
    return "perturbation.compute_moments"


def _tdd_loaded(result) -> bool:
    """Whether a ``_tdd_trial`` result (beam, report, ctx, ...) was loaded."""
    ctx = result[2] if isinstance(result, tuple) and len(result) > 2 else None
    return bool(getattr(ctx, "loaded", False))


# Entry points whose span key depends on the arguments.
_SPLIT_KEYS = {"perturbation.compute_moments": _moments_key}
# Entry points whose results are counted: key -> (count key, predicate).
_RESULT_COUNTS = {"robust._tdd_trial": ("robust.tdd_loaded", _tdd_loaded)}


class Tracer:
    """Collects spans from wrapped library calls while ``active``."""

    def __init__(self):
        self.names: list[str] = []  # span name by id
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.errors: dict[int, str] = {}  # span index -> exception type
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"wiretap.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.absent.append(key)
                    continue
                if owner_name:
                    self._wrap_method(owner, attr, raw, key)
                else:
                    self._wrap_function(raw, key)

    def _wrap_function(self, fn, key: str) -> None:
        wrapped = self._traced(fn, key)
        if key == "robust._rank1_gain":
            wrapped = self._counting_factory(wrapped, "robust.gain_eval")
        if key in _RESULT_COUNTS:
            wrapped = self._counting_results(wrapped, *_RESULT_COUNTS[key])
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wiretap" or mod_name.startswith("wiretap.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _wrap_method(self, cls, attr: str, raw, key: str) -> None:
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._traced(raw.__func__, key))
        else:
            wrapped = self._traced(raw, key)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers ----------------------------------------------------------

    def _traced(self, fn, key: str):
        stack = self._stack
        clock = time.perf_counter
        span_name, start, end = self.span_name, self.start, self.end
        parent, op, errors = self.parent, self.op, self.errors
        split = _SPLIT_KEYS.get(key)
        key_id = self._name_id(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(self._name_id(split(args, kwargs)) if split else key_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self._op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _counting_factory(self, factory, count_key: str):
        """Wrap a function that returns a callable so each call of the
        returned callable is counted (no span: it is too cheap to time)."""
        counts = self.counts

        @functools.wraps(factory)
        def wrapped_factory(*args, **kwargs):
            inner = factory(*args, **kwargs)

            def counted(*a, **k):
                if self.active:
                    counts[count_key] += 1
                return inner(*a, **k)

            return counted

        return wrapped_factory

    def _counting_results(self, fn, count_key: str, predicate):
        """Wrap ``fn`` so each result that satisfies ``predicate`` is counted."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active and predicate(result):
                counts[count_key] += 1
            return result

        return counted

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.clear()
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "absent": self.absent, "counts": dict(self.counts)}, fh)
            fh.write("\n")
            for i in range(len(self.start)):
                json.dump([self.names[self.span_name[i]], self.start[i], self.end[i],
                           self.parent[i], self.op[i], self.errors.get(i)], fh)
                fh.write("\n")


class SpanStats:
    """Per-key totals derived from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        names, parent = tracer.names, tracer.parent
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        child_time = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += dur[i]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.seed_time = 0.0
        self.predict_calls = 0
        self.predict_rejects = 0
        for i, name_id in enumerate(tracer.span_name):
            name = names[name_id]
            error = tracer.errors.get(i)
            self.calls[name] += 1
            self.total[name] += dur[i]
            if error is not None:
                self.errors[name] += 1
            self.layer_self[name.split(".", 1)[0]] += dur[i] - child_time[i]
            parent_name = names[tracer.span_name[parent[i]]] if parent[i] >= 0 else None
            if name in SEED_KEYS and parent_name == "harness.run_experiment":
                self.seed_time += dur[i]
            if name in PREDICT_KEYS and parent_name not in PREDICT_KEYS:
                self.predict_calls += 1
                self.predict_rejects += error == "ValidityRangeError"
        self.counts = tracer.counts

    def us_per_call(self, name: str) -> float:
        n = self.calls[name]
        return 1e6 * self.total[name] / n if n else 0.0

    def fail_frac(self, name: str) -> float:
        n = self.calls[name]
        return self.errors[name] / n if n else 0.0
