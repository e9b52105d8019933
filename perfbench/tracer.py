"""Per-layer tracing of gspest from outside the package.

The tracer replaces public functions of the gspest modules with thin
wrappers that record a span (name, parent span, start, end) and a few
counts. A function is wrapped at every name its callers look it up by: each
module-level binding in the gspest modules and the package namespace that
refers to the same function object. ``numpy.linalg.eigh`` and ``eigvalsh``
are wrapped too, and each call is charged to the layer of the innermost open
span.

Counts are kept per phase: the workload's set-up, then one phase per round
of timed rows. The reported figure for a count is set-up plus the first
round; busy and self times are set-up plus the median over rounds.
"""

import hashlib
import os
import statistics
import time

import numpy as np

LAYERS = ("graph", "sampling", "noise", "estimators", "theory", "harness", "io", "cli")

# (layer, function, timed). A timed function opens a span; the others are
# only counted, so the eig calls they make are charged to the layer that
# called them (rls_gain_matrix's eigvalsh, through check_recoverability, to
# the estimators span of the trajectory that asked for the gain).
REPORTED = (
    ("graph", "build_knn_graph", True),
    ("graph", "gft_basis", True),
    ("sampling", "greedy_max_lambda_min", True),
    ("sampling", "random_sampling", True),
    ("sampling", "check_recoverability", False),
    ("noise", "build_cw", True),
    ("estimators", "lms_msd_trajectory", True),
    ("estimators", "rls_msd_trajectory", True),
    ("estimators", "rls_gain_matrix", False),
    ("theory", "lms_theory_paper", True),
    ("theory", "lms_theory_exact", True),
    ("theory", "rls_theory_paper", True),
    ("theory", "rls_theory_exact", True),
    ("harness", "run_experiment", True),
    ("harness", "compare", True),
    ("io", "write_results_csv", True),
    ("io", "write_manifest", True),
    ("io", "read_station_csv", True),
    ("cli", "main", True),
)

# Wrapped for their counters (and so that their time is not charged to the
# caller's self time), but not reported on their own.
COUNTED_ONLY = (
    ("io", "load_graph_cache"),
    ("io", "save_graph_cache"),
    ("io", "write_station_csv"),
    ("io", "write_node_list"),
    ("io", "write_edge_list"),
)

SELF_TIMES = ("harness.run_experiment", "cli.main")

# Bindings left alone: theory's two gain-matrix calls per row belong to the
# theory curve spans, so only the name estimators looks up is counted.
EXCLUDED_NAMESPACES = {"estimators.rls_gain_matrix": ("theory",)}

TRAJECTORIES = ("estimators.lms_msd_trajectory", "estimators.rls_msd_trajectory")

# Files whose size is counted in io.bytes_written. Manifests are left out:
# their duration field changes length from run to run.
BYTE_WRITERS = ("io.write_results_csv", "io.write_station_csv", "io.write_node_list",
                "io.write_edge_list", "io.save_graph_cache")


class Phase:
    """Counters of one phase (set-up or one round of timed rows)."""

    def __init__(self):
        self.calls = {}
        self.busy = {}
        self.self_time = {}
        self.eig_calls = dict.fromkeys(LAYERS, 0)
        self.greedy_keys = set()
        self.steps = 0
        self.bytes_written = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def counts(self) -> dict:
        return {"calls": dict(sorted(self.calls.items())), "eig_calls": self.eig_calls,
                "greedy_keys": len(self.greedy_keys), "steps": self.steps,
                "bytes_written": self.bytes_written, "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses}


class Tracer:
    """Installs the wrappers on construction; ``enabled`` pauses recording."""

    def __init__(self, gspest_modules: dict):
        self.modules = gspest_modules  # name -> module, "gspest" is the package
        self.enabled = True
        self.phases = {"setup": Phase()}
        self.phase_name = "setup"
        self.phase = self.phases["setup"]
        self.stack = []  # open spans: [key, start, child seconds, span index]
        self.spans = []  # (key, parent index or -1, phase, start, end)
        self.measured = set()
        for layer, func, timed in REPORTED:
            self._install(layer, func, timed)
        for layer, func in COUNTED_ONLY:
            self._install(layer, func, True)
        self._install_eig()

    # -- installation -------------------------------------------------------

    def _install(self, layer: str, func: str, timed: bool) -> None:
        key = f"{layer}.{func}"
        original = getattr(self.modules.get(layer), func, None)
        if original is None:
            return  # the name is gone: the metric is reported as unmeasured
        wrapper = self._wrap(key, original) if timed else self._count(key, original)
        skip = EXCLUDED_NAMESPACES.get(key, ())
        for name, module in self.modules.items():
            if name in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
        self.measured.add(key)

    def _wrap(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._open(key)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer._observe(key, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count(self, key: str, fn):
        tracer = self

        def counter(*args, **kwargs):
            if tracer.enabled:
                calls = tracer.phase.calls
                calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        counter.__wrapped__ = fn
        counter.__name__ = fn.__name__
        counter.__doc__ = fn.__doc__
        return counter

    def _install_eig(self) -> None:
        tracer = self
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _fn=original, **kwargs):
                if tracer.enabled and tracer.stack:
                    layer = tracer.stack[-1][0].split(".", 1)[0]
                    tracer.phase.eig_calls[layer] += 1
                return _fn(*args, **kwargs)

            counting.__wrapped__ = original
            setattr(np.linalg, name, counting)

    # -- spans --------------------------------------------------------------

    def _open(self, key: str) -> None:
        self.stack.append([key, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)  # filled on close, keeps parents before children

    def _close(self) -> None:
        end = time.perf_counter()
        key, start, child, index = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        ph = self.phase
        ph.calls[key] = ph.calls.get(key, 0) + 1
        if not any(open_span[0] == key for open_span in self.stack):
            ph.busy[key] = ph.busy.get(key, 0.0) + duration
        ph.self_time[key] = ph.self_time.get(key, 0.0) + duration - child
        self.spans[index] = (key, parent[3] if parent else -1, self.phase_name, start, end)

    def _observe(self, key, args, kwargs, out) -> None:
        ph = self.phase
        if key == "sampling.greedy_max_lambda_min":
            band = args[0] if args else kwargs["band"]
            m = args[1] if len(args) > 1 else kwargs["m"]
            digest = hashlib.sha256(np.ascontiguousarray(band.u_f).tobytes()).hexdigest()
            ph.greedy_keys.add((digest, int(m)))
        elif key in TRAJECTORIES:
            ph.steps += int(args[2] if len(args) > 2 else kwargs["n_iter"])
        elif key == "io.load_graph_cache":
            if out is None:
                ph.cache_misses += 1
            else:
                ph.cache_hits += 1
        elif key in BYTE_WRITERS:
            path = out if key == "io.save_graph_cache" else (args[0] if args else kwargs["path"])
            ph.bytes_written += os.path.getsize(path)

    # -- phases and results ---------------------------------------------------

    def begin_round(self, index: int) -> None:
        self.phase_name = f"round{index}"
        self.phase = self.phases.setdefault(self.phase_name, Phase())

    def rounds(self) -> list:
        return [ph for name, ph in self.phases.items() if name.startswith("round")]

    def rounds_agree(self) -> bool:
        """Whether every round made exactly the same counts as the first."""
        rounds = self.rounds()
        return all(ph.counts() == rounds[0].counts() for ph in rounds[1:])

    def metrics(self) -> dict:
        """Per-layer figures: set-up plus one round (counts) or the median round (times)."""
        setup, rounds = self.phases["setup"], self.rounds()
        first = rounds[0]

        def count(getter):
            return getter(setup) + getter(first)

        def seconds(getter):
            return getter(setup) + statistics.median(getter(ph) for ph in rounds)

        out = {}
        for layer, func, timed in REPORTED:
            key = f"{layer}.{func}"
            measured = key in self.measured
            if timed:
                out[f"{key}.busy_s"] = (
                    seconds(lambda ph: ph.busy.get(key, 0.0)) if measured else None, "s")
            out[f"{key}.calls"] = (
                count(lambda ph: ph.calls.get(key, 0)) if measured else None, "count")
        for key in SELF_TIMES:
            out[f"{key}.self_s"] = (
                seconds(lambda ph: ph.self_time.get(key, 0.0)) if key in self.measured else None,
                "s")
        greedy = "sampling.greedy_max_lambda_min"
        keys = len(setup.greedy_keys | first.greedy_keys) if greedy in self.measured else None
        calls = out[f"{greedy}.calls"][0]
        out["sampling.greedy_distinct_keys"] = (keys, "count")
        out["sampling.greedy_useful_ratio"] = (keys / calls if keys is not None and calls else None,
                                               "ratio")
        traj_busy = seconds(lambda ph: sum(ph.busy.get(k, 0.0) for k in TRAJECTORIES))
        steps = count(lambda ph: ph.steps)
        traj_measured = all(k in self.measured for k in TRAJECTORIES)
        out["estimators.steps_per_s"] = (
            steps / traj_busy if traj_measured and traj_busy > 0 else None, "1/s")
        io_measured = "io.load_graph_cache" in self.measured
        out["io.bytes_written"] = (count(lambda ph: ph.bytes_written), "bytes")
        out["io.load_graph_cache.hits"] = (
            count(lambda ph: ph.cache_hits) if io_measured else None, "count")
        out["io.load_graph_cache.misses"] = (
            count(lambda ph: ph.cache_misses) if io_measured else None, "count")
        for layer in LAYERS:
            out[f"{layer}.eig_calls"] = (count(lambda ph: ph.eig_calls[layer]), "count")
        return out

    def dump(self) -> dict:
        """Per-phase counts and every span, for the trace file."""
        return {
            "phases": {name: {**ph.counts(),
                              "busy_s": dict(sorted(ph.busy.items())),
                              "self_s": dict(sorted(ph.self_time.items()))}
                       for name, ph in self.phases.items()},
            "spans": [list(span) for span in self.spans if span is not None],
        }
