"""Per-layer tracing by wrapping the public functions of each ``finsler`` module.

Nothing inside ``src/finsler`` is changed: :meth:`Tracer.install` replaces
each listed function or method with a timing wrapper in every ``finsler``
module namespace (and module-level dispatch dict) that holds it by name, and
:meth:`Tracer.uninstall` puts the originals back. Each call pushes a frame;
its duration is charged to the parent frame so self time is the span minus
the time its child calls covered. Spans (id, parent, name, start, end) stay
in memory and are written when the run ends, each with the index of the
operation whose interval holds it; the hottest leaves
(jet products and partial readouts, table lookups) are aggregated without a
span record each.

Integrations and right-hand-side evaluations are counted at the boundary to
scipy: the ``solve_ivp`` that ``finsler.geodesic`` calls, whose result
carries ``nfev``. Inside every ``solve_ivp`` span that integrates the
geodesic spray, the ``spray_coefficients`` calls must equal that ``nfev``.
"""

from __future__ import annotations

import bisect
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

def _family_order(m, x, u, order):
    return f"{m.family_id} order {order}"


def _family(m, *args, **kwargs):
    return m.family_id


def _family_curvature(m, x, u, *, need_curvature=True):
    return f"{m.family_id} {'with' if need_curvature else 'without'} curvature"


# Span details: the metric family and the arguments that set a call's cost,
# for per-family tables.
DETAILS = {
    "geometry.real_jet": _family_order,
    "cartan.spray": _family,
    "cartan.cartan": _family_curvature,
}

# (key, module, attribute path, record a span per call)
WRAPS = [
    ("jets.mul", "finsler.jets", "Jet.__mul__", False),
    ("jets.mul", "finsler.jets", "Jet.__rmul__", False),
    ("jets.partial", "finsler.jets", "Jet.partial", False),
    ("jets.wirtinger", "finsler.jets", "wirtinger", True),
    ("geometry.real_jet", "finsler.geometry", "MetricDef.real_jet", True),
    ("geometry.complex_jet", "finsler.geometry", "MetricDef.complex_jet", True),
    ("geometry.value", "finsler.geometry", "MetricDef.value", True),
    ("metrics.check_metric", "finsler.metrics", "check_metric", True),
    ("cartan.spray", "finsler.cartan", "spray_coefficients", True),
    ("cartan.cartan", "finsler.cartan", "cartan", True),
    ("cartan.radial_flag_bounds", "finsler.cartan", "radial_flag_bounds", True),
    ("chern.chern_finsler", "finsler.chern", "chern_finsler", True),
    ("kahler.classify", "finsler.kahler", "classify", True),
    ("geodesic.rho", "finsler.geodesic", "PoleDistance.rho", True),
    ("geodesic.solve_ivp", "finsler.geodesic", "solve_ivp", True),
    ("geodesic.hessian_rho", "finsler.geodesic", "hessian_rho", True),
    ("geodesic.jacobi", "finsler.geodesic", "jacobi_field", True),
    ("geodesic.jacobi", "finsler.geodesic", "jacobi_boundary_field", True),
    ("geodesic.index_form", "finsler.geodesic", "index_form", True),
    ("geodesic.integrate_geodesic", "finsler.geodesic", "integrate_geodesic", True),
    ("levi.sample", "finsler.levi", "LeviField.sample", True),
    ("schwarz.certify", "finsler.schwarz", "certify_schwarz", True),
    ("schwarz.curvature_bounds", "finsler.schwarz", "curvature_bounds", True),
    ("cli.check", "finsler.cli", "cmd_check", True),
    ("cli.bounds", "finsler.cli", "cmd_bounds", True),
    ("cli.schwarz", "finsler.cli", "cmd_schwarz", True),
    ("cli.replay", "finsler.cli", "cmd_replay", True),
]

# Jet table builders. A call counts as a build when it constructs a space or
# returns a table object not returned before; cached lookups only cost time
# to the caller's self time.
TABLE_WRAPS = [
    ("finsler.jets", "JetSpace.__init__"),
    ("finsler.jets", "JetSpace.mult_table"),
    ("finsler.jets", "JetSpace.extract_table"),
    ("finsler.jets", "JetSpace.conj_perm"),
]

COUNTERS = ("integrations", "rhs_evals", "spray_integrations", "rho_integrations",
            "sample_rhos")


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Stack-based call tracer over the ``finsler`` modules loaded in this process."""

    def __init__(self):
        self.stack = []
        self.spans = []
        self._next_id = 0
        self._patches = []
        self.table_build_s = 0.0
        self._tables_seen = {}
        self.mismatches = []
        self.reset()

    def reset(self):
        """Zero the call aggregates; spans and table-build time are kept."""
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.integrations = 0
        self.rhs_evals = 0
        self.spray_integrations = 0
        self.rho_integrations = 0
        self.sample_rhos = 0
        self._rho_depth = 0
        self._sample_depth = 0

    def counts(self) -> Counter:
        """Machine-independent counts accumulated since the last reset."""
        out = Counter({f"calls.{k}": v for k, v in self.calls.items()})
        out.update({k: getattr(self, k) for k in COUNTERS})
        return out

    # -- wrappers -------------------------------------------------------------

    def _wrapper(self, key, fn, record):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        on_enter = {"geodesic.rho": self._enter_rho,
                    "levi.sample": self._enter_sample,
                    "cartan.spray": self._enter_spray}.get(key)
        on_exit = {"geodesic.rho": self._exit_rho,
                   "levi.sample": self._exit_sample,
                   "geodesic.solve_ivp": self._exit_solve}.get(key)
        detail = DETAILS.get(key)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if record:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent[3] if parent is not None else -1
            # frame: key, child time, spray children, span id
            frame = [key, 0.0, 0, sid]
            if on_enter is not None:
                on_enter(parent)
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                tracer.calls[key] += 1
                tracer.total[key] += dt
                tracer.self_time[key] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if record:
                    spans.append((sid, parent[3] if parent is not None else -1, key, t0, t1,
                                  detail(*args, **kwargs) if detail is not None else None))
                if on_exit is not None:
                    on_exit(frame, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _table_wrapper(self, fn):
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        seen = self._tables_seen
        is_init = fn.__name__ == "__init__"

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            if stack:
                stack[-1][1] += dt
            if is_init or id(result) not in seen:
                if not is_init:
                    seen[id(result)] = result
                tracer.table_build_s += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _enter_rho(self, parent):
        self._rho_depth += 1
        if self._sample_depth:
            self.sample_rhos += 1

    def _exit_rho(self, frame, result):
        self._rho_depth -= 1

    def _enter_sample(self, parent):
        self._sample_depth += 1

    def _exit_sample(self, frame, result):
        self._sample_depth -= 1

    def _enter_spray(self, parent):
        if parent is not None and parent[0] == "geodesic.solve_ivp":
            parent[2] += 1

    def _exit_solve(self, frame, result):
        if result is None:
            return
        self.integrations += 1
        self.rhs_evals += int(result.nfev)
        if self._rho_depth:
            self.rho_integrations += 1
        if frame[2]:
            self.spray_integrations += 1
            if frame[2] != int(result.nfev):
                self.mismatches.append((frame[3], frame[2], int(result.nfev)))

    # -- install / uninstall --------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every finsler namespace."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "finsler" or name.startswith("finsler.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = replacement

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for key, module, path, record in WRAPS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrapper(key, original, record)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)
        for module, path in TABLE_WRAPS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._table_wrapper(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    def write(self, path, header, op_starts):
        """Write a header line, then one JSON array per span:
        [id, parent id, operation index, name, start, end, detail]; the
        operation is the last one started (``op_starts`` ascending) before the
        span, -1 for spans outside the traced passes."""
        with open(path, "w") as fp:
            fp.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, key, t0, t1, detail in self.spans:
                op = bisect.bisect_right(op_starts, t0) - 1
                fp.write(json.dumps([sid, parent, op, key, t0, t1, detail]) + "\n")


def _per_op(value, ops):
    return value / ops if ops else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """The per-layer metrics of one traced window, per operation."""
    c, tot, slf = tracer.calls, tracer.total, tracer.self_time
    rho_calls = c["geodesic.rho"]
    samples = c["levi.sample"]
    out = {
        "jets.mul_calls": (_per_op(c["jets.mul"], ops), "count/op"),
        "jets.mul_self_s": (_per_op(slf["jets.mul"], ops), "s/op"),
        "jets.partial_calls": (_per_op(c["jets.partial"], ops), "count/op"),
        "jets.partial_self_s": (_per_op(slf["jets.partial"], ops), "s/op"),
        "jets.wirtinger_calls": (_per_op(c["jets.wirtinger"], ops), "count/op"),
        "jets.wirtinger_self_s": (_per_op(slf["jets.wirtinger"], ops), "s/op"),
        "jets.table_build_s": (tracer.table_build_s, "s"),
        "geometry.real_jet_calls": (_per_op(c["geometry.real_jet"], ops), "count/op"),
        "geometry.real_jet_s": (_per_op(tot["geometry.real_jet"], ops), "s/op"),
        "geometry.complex_jet_calls": (_per_op(c["geometry.complex_jet"], ops), "count/op"),
        "geometry.complex_jet_s": (_per_op(tot["geometry.complex_jet"], ops), "s/op"),
        "geometry.value_calls": (_per_op(c["geometry.value"], ops), "count/op"),
        "metrics.check_metric_s": (_per_op(tot["metrics.check_metric"], ops), "s/op"),
        "cartan.spray_calls": (_per_op(c["cartan.spray"], ops), "count/op"),
        "cartan.spray_self_s": (_per_op(slf["cartan.spray"], ops), "s/op"),
        "cartan.cartan_calls": (_per_op(c["cartan.cartan"], ops), "count/op"),
        "cartan.cartan_self_s": (_per_op(slf["cartan.cartan"], ops), "s/op"),
        "cartan.radial_flag_bounds_s": (_per_op(tot["cartan.radial_flag_bounds"], ops), "s/op"),
        "chern.chern_finsler_calls": (_per_op(c["chern.chern_finsler"], ops), "count/op"),
        "chern.chern_finsler_self_s": (_per_op(slf["chern.chern_finsler"], ops), "s/op"),
        "kahler.classify_s": (_per_op(tot["kahler.classify"], ops), "s/op"),
        "geodesic.rho_calls": (_per_op(rho_calls, ops), "count/op"),
        "geodesic.rho_s": (_per_op(tot["geodesic.rho"], ops), "s/op"),
        "geodesic.integrations": (_per_op(tracer.integrations, ops), "count/op"),
        "geodesic.rhs_evals": (_per_op(tracer.rhs_evals, ops), "count/op"),
        "geodesic.integrations_per_rho": (_per_op(tracer.rho_integrations, rho_calls), "ratio"),
        "geodesic.rhs_per_integration": (_per_op(tracer.rhs_evals, tracer.integrations), "ratio"),
        "geodesic.hessian_rho_s": (_per_op(tot["geodesic.hessian_rho"], ops), "s/op"),
        "geodesic.jacobi_s": (_per_op(tot["geodesic.jacobi"], ops), "s/op"),
        "geodesic.index_form_s": (_per_op(tot["geodesic.index_form"], ops), "s/op"),
        "geodesic.integrate_geodesic_s": (_per_op(tot["geodesic.integrate_geodesic"], ops), "s/op"),
        "levi.sample_calls": (_per_op(samples, ops), "count/op"),
        "levi.sample_s": (_per_op(tot["levi.sample"], ops), "s/op"),
        "levi.rho_per_sample": (_per_op(tracer.sample_rhos, samples), "ratio"),
        "schwarz.certify_s": (_per_op(tot["schwarz.certify"], ops), "s/op"),
        "schwarz.curvature_bounds_s": (_per_op(tot["schwarz.curvature_bounds"], ops), "s/op"),
        "cli.check_s": (_per_op(tot["cli.check"], ops), "s/op"),
        "cli.bounds_s": (_per_op(tot["cli.bounds"], ops), "s/op"),
        "cli.schwarz_s": (_per_op(tot["cli.schwarz"], ops), "s/op"),
        "cli.replay_s": (_per_op(tot["cli.replay"], ops), "s/op"),
    }
    return out
