"""Outside-in tracer: wraps diracloc's public functions from the outside.

The package binds functions by ``from .x import y``, so a function can
be reachable from several module namespaces (``moments`` lives in
``observables`` and is also bound in ``dynamics`` and ``cli``).
``install`` replaces the function in every ``diracloc`` namespace that
binds it, patches ``MomentumState.spinor``/``.norm`` on the class, and
wraps every CLI command function in a ``cli`` span.

Each call records a span ``[id, name, start, end, parent, counts]`` in
memory; ``counts`` are work counts computed from the call's arguments
(points, cells, nodes, ...), so they repeat exactly for the same inputs.
The spans are written out once, when the job ends.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

import numpy as np


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans for one process; create one per job."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._orders_seen = set()
        self.bindings = {}  # span name -> module namespaces patched

    # -- work counts, computed from the bound call arguments ---------------
    def _gauss_legendre(self, a):
        order = int(a["order"])
        cold = order not in self._orders_seen
        self._orders_seen.add(order)
        return {"nodes": order, "cold_nodes": order if cold else 0}

    @staticmethod
    def _spherical_rule(a):
        return {"points": int(sum(a["radial_orders"])) * int(a["n_theta"]) * int(a["n_phi"])}

    @staticmethod
    def _tensor_integrate(a):
        return {"points": int(np.prod([np.size(nodes) for nodes, _ in a["axes_rules"]]))}

    @staticmethod
    def _broadcast_points(a):
        arrays = (np.asarray(a[k]) for k in ("px", "py", "pz"))
        return {"points": int(np.broadcast(*arrays).size)}

    @staticmethod
    def _profile_key(a):
        v = tuple(float(c) for c in np.ravel(a["v_target"]))
        return {"boosted": int(any(v)), "key": repr((v, float(a["sigma_p"])))}

    @staticmethod
    def _cartesian(a):
        grid = a["grid"]
        if grid is None:
            return {}
        cells = int(grid.n_points) ** 3
        return {"cells": cells, "bytes_computed": 4 * cells * 16}  # complex128 psi

    @staticmethod
    def _radial(a):
        return {"kernel_entries": 2 * int(np.size(a["r"])) * int(a["n_nodes"])}

    @staticmethod
    def _cells(a):
        return {"cells": int(np.prod(a["ps"].psi.shape[1:]))}

    @staticmethod
    def _snapshots(a):
        return {"snapshots": len(a["times"])}

    def targets(self):
        """(module, attribute, count function, record rss) for every traced layer."""
        return [
            ("quadrature", "gauss_legendre", self._gauss_legendre, False),
            ("quadrature", "spherical_rule", self._spherical_rule, False),
            ("quadrature", "node_doubling", None, False),
            ("quadrature", "tensor_integrate", self._tensor_integrate, False),
            ("spinor", "eigenspinor_components", self._broadcast_points, False),
            ("states", "boosted_gaussian_profile", self._profile_key, False),
            ("states", "check_profile_conditions", None, False),
            ("states", "MomentumState.spinor", self._broadcast_points, False),
            ("states", "MomentumState.norm", None, False),
            ("transform", "position_state_cartesian", self._cartesian, True),
            ("transform", "radial_components", self._radial, True),
            ("transform", "density_field", None, False),
            ("observables", "current", self._cells, False),
            ("observables", "moments", None, False),
            ("observables", "convolution_Rn", None, False),
            ("observables", "overlap", None, False),
            ("observables", "mean_velocity_two_ways", None, False),
            ("observables", "position_mean_from_momentum", None, False),
            ("dynamics", "evolve_report", self._snapshots, True),
            ("dynamics", "probability_outside", None, False),
            ("symmetry", "verify_boost_against_field", None, False),
            ("verify", "run_checks", None, False),
        ]

    def wrap(self, name, func, count=None, rss=False):
        signature = inspect.signature(func) if count is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            counts = {}
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = count(bound.arguments)
            record = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, counts]
            spans.append(record)
            stack.append(record[0])
            rss0 = _maxrss_mb() if rss else 0.0
            record[2] = time.monotonic()
            try:
                return func(*args, **kwargs)
            finally:
                record[3] = time.monotonic()
                stack.pop()
                if rss:
                    counts["rss_hwm_mb"] = _maxrss_mb() - rss0

        return traced

    def install(self):
        """Patch every traced layer into the already imported diracloc modules."""
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "diracloc" or n.startswith("diracloc."))]
        for module_name, attr, count, rss in self.targets():
            name = f"{module_name}.{attr}"
            owner = sys.modules[f"diracloc.{module_name}"]
            if "." in attr:  # a method: patch it on its class
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), count, rss))
                self.bindings[name] = [f"diracloc.{module_name}.{cls_name}"]
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, count, rss)
            self.bindings[name] = []
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self.bindings[name].append(f"{module.__name__}.{key}")
        commands = sys.modules["diracloc.cli"].COMMANDS
        for cmd, func in list(commands.items()):
            commands[cmd] = self.wrap("cli", func)
