"""Per-layer tracing of qfock from outside the package.

The layers are the package modules.  Modules bind each other's functions
with ``from .x import y``, so a function is reachable under several names
(``cli.nbar_series``, ``squeezed.nbar_series``, ``qfock.nbar_series``).
``Tracer`` wraps every public function of every layer at every name that
binds it, and puts the originals back on exit.

Each wrapped call is a span; its self time is its duration minus the time
spent in wrapped calls it made.  A span runs from the wrapper's entry to
its exit, so the wrapper's own bookkeeping is charged to the boundary it
wraps and not to the caller; on the hot boundaries (``eval_d`` and
``evaluate_tree``, 10^5-10^6 calls per pass) that bookkeeping is a large
part of their self time.  Spans are aggregated per boundary, never stored.

Wrappers pass arguments, results and exceptions through unchanged, so a
traced run renders byte-identical output.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import statistics
import time

LAYERS = (
    "cli",
    "expressions",
    "deformation",
    "geometric",
    "paired_state",
    "squeezed",
    "thermal",
    "fock_matrix",
)
HOT = ("deformation.eval_d", "expressions.evaluate_tree")
LADDER_BUILDERS = (
    "annihilation_matrix",
    "creation_matrix",
    "number_matrix",
    "identity_matrix",
    "deformation_diagonal",
)
# Exceptions that attribute a failed op: (boundary prefix, exception type
# name, counter).  Counted once, at the first boundary the exception leaves;
# a DivergenceError only where the reference says the series converges.
FAILURE_COUNTERS = (
    ("deformation.eval_d", "OverflowError", "deformation.overflow"),
    ("deformation.DeformationScheme.custom", "ValueError", "deformation.scheme_rejected"),
    ("geometric.", "DivergenceError", "geometric.divergence_raised"),
)
# Result sizes counted at a boundary: boundary -> (counter, size of the result).
RESULT_SIZES = {
    "cli.render_csv": ("cli.render.bytes", len),
    "cli.render_json": ("cli.render.bytes", len),
    "squeezed.squeezed_probabilities": ("squeezed.probability_terms", len),
    "thermal.thermal_probabilities": ("thermal.probability_terms", len),
    "geometric.geometric_state": ("geometric.state_terms", lambda state: len(state.coeffs)),
}


class Tracer:
    """Context manager that installs the wrappers; one per traced pass.

    ``converges(scheme, ratio)`` is the reference's verdict on the series
    sum d(n) ratio^n; a DivergenceError on a series it calls divergent is
    the correct answer and is not counted as a failure.
    """

    def __init__(self, converges):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self.converges = converges
        self._eval_d_keys = set()
        self._children = [0.0]  # time in wrapped callees, per open call
        self._last_failure = None
        self._patches = []

    # ------------------------------------------------------------ install

    def __enter__(self):
        package = importlib.import_module("qfock")
        modules = {layer: importlib.import_module(f"qfock.{layer}") for layer in LAYERS}
        names = {}
        for layer, module in modules.items():
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not attr.startswith("_"):
                    names[fn] = f"{layer}.{attr}"
        sites = [("qfock", package)] + list(modules.items())
        try:
            for site, module in sites:
                for attr, value in list(vars(module).items()):
                    name = names.get(value) if inspect.isfunction(value) else None
                    if name is not None:
                        self._patch(module, attr, self._wrap(value, name, site))
            scheme_cls = modules["deformation"].DeformationScheme
            custom = scheme_cls.__dict__["custom"]
            wrapped = self._wrap(custom.__func__, "deformation.DeformationScheme.custom", "deformation")
            self._patch(scheme_cls, "custom", classmethod(wrapped))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, name, site):
        if name == "deformation.eval_d":
            return self._wrap_eval_d(fn, f"{site}.eval_d_calls")
        clock = time.perf_counter
        children = self._children
        calls, self_s, counts = self.calls, self.self_s, self.counts
        sized = RESULT_SIZES.get(name)

        def traced(*args, **kwargs):
            entry = clock()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if sized is not None:
                    counts[sized[0]] += sized[1](result)
                return result
            except BaseException as exc:
                self._note_failure(name, exc, args)
                raise
            finally:
                inner = children.pop()
                calls[name] += 1
                elapsed = clock() - entry
                self_s[name] += elapsed - inner
                children[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def _wrap_eval_d(self, fn, site_counter):
        clock = time.perf_counter
        children = self._children
        calls, self_s, counts = self.calls, self.self_s, self.counts
        keys = self._eval_d_keys
        name = "deformation.eval_d"

        def traced(scheme, n):
            entry = clock()
            children.append(0.0)
            keys.add((scheme.kind, scheme.q, scheme.source, n))
            counts[site_counter] += 1
            try:
                value = fn(scheme, n)
                if value <= 0.0 and n > 0:
                    counts["deformation.nonpositive"] += 1
                return value
            except BaseException as exc:
                self._note_failure(name, exc, (scheme, n))
                raise
            finally:
                inner = children.pop()
                calls[name] += 1
                elapsed = clock() - entry
                self_s[name] += elapsed - inner
                children[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def _note_failure(self, name, exc, args):
        if exc is self._last_failure:  # already seen by an inner boundary
            return
        kind = type(exc).__name__
        for prefix, exc_name, counter in FAILURE_COUNTERS:
            if name.startswith(prefix) and kind == exc_name:
                self._last_failure = exc
                if kind == "DivergenceError" and not self.converges(*args[:2]):
                    return  # the reference diverges too: a correct answer
                self.counts[counter] += 1
                return

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        layer_self = collections.defaultdict(float)
        for name, seconds in self.self_s.items():
            layer_self[name.split(".")[0]] += seconds
        calls, self_s, counts = self.calls, self.self_s, self.counts
        eval_d_calls = calls["deformation.eval_d"]
        return {
            "cli.self_s": layer_self["cli"],
            "cli.resolve_scheme.calls": calls["cli.resolve_scheme"],
            "cli.resolve_scheme.s": self_s["cli.resolve_scheme"],
            "cli.render.s": self_s["cli.render_csv"] + self_s["cli.render_json"],
            "cli.render.bytes": counts["cli.render.bytes"],
            "expressions.parse_deformation.calls": calls["expressions.parse_deformation"],
            "expressions.parse_deformation.s": self_s["expressions.parse_deformation"],
            "expressions.evaluate_tree.calls": calls["expressions.evaluate_tree"],
            "expressions.evaluate_tree.s": self_s["expressions.evaluate_tree"],
            "deformation.eval_d.calls": eval_d_calls,
            "deformation.eval_d.s": self_s["deformation.eval_d"],
            "deformation.eval_d.distinct_ratio": (
                len(self._eval_d_keys) / eval_d_calls if eval_d_calls else 0.0
            ),
            "deformation.overflow": counts["deformation.overflow"],
            "deformation.scheme_rejected": counts["deformation.scheme_rejected"],
            "deformation.nonpositive": counts["deformation.nonpositive"],
            "geometric.weighted_series.s": self_s["geometric.weighted_series"],
            "geometric.weighted_cutoff.s": self_s["geometric.weighted_cutoff"],
            "geometric.geometric_state.s": self_s["geometric.geometric_state"],
            "geometric.state_terms": counts["geometric.state_terms"],
            "geometric.eval_d_calls": counts["geometric.eval_d_calls"],
            "geometric.divergence_raised": counts["geometric.divergence_raised"],
            "paired_state.from_probabilities.s": self_s["paired_state.from_probabilities"],
            "paired_state.moments.s": self_s["paired_state.moments"],
            "paired_state.eval_d_calls": counts["paired_state.eval_d_calls"],
            "paired_state.shannon_entropy_bits.s": self_s["paired_state.shannon_entropy_bits"],
            "paired_state.reduced_entropy_bits.calls": calls["paired_state.reduced_entropy_bits"],
            "paired_state.reduced_entropy_bits.s": self_s["paired_state.reduced_entropy_bits"],
            "squeezed.s": layer_self["squeezed"],
            "squeezed.probability_terms": counts["squeezed.probability_terms"],
            "thermal.s": layer_self["thermal"],
            "thermal.probability_terms": counts["thermal.probability_terms"],
            "fock_matrix.verify_algebra.calls": calls["fock_matrix.verify_algebra"],
            "fock_matrix.verify_algebra.s": self_s["fock_matrix.verify_algebra"],
            "fock_matrix.ladder_build.s": sum(
                self_s[f"fock_matrix.{name}"] for name in LADDER_BUILDERS
            ),
            "fock_matrix.eval_d_calls": counts["fock_matrix.eval_d_calls"],
        }


def median_metrics(snapshots: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in snapshots) for key in snapshots[0]}
