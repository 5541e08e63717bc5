"""Call tracing for the zaklab benchmark, from outside the package.

The tracer replaces public functions by timing wrappers at every zaklab
module attribute that holds them, so that names imported into another
module (solver's grids helpers, cli's make_report) are timed too.  The
package source is not edited.  Each thread keeps its own stack of open
spans: a span's self time is its duration minus that of the traced spans
it directly encloses.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A traced function, "module.name" under zaklab.  work maps a call's
    bound arguments to work units (for per-unit costs); key maps them to
    the call's distinct input (for the distinct fraction)."""

    name: str
    work: Callable | None = None
    key: Callable | None = None


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    keys: set = field(default_factory=set)


def _lipschitz_traj_steps(a: dict) -> int:
    """Trajectories (base plus one per nonzero delta, per seed) x steps."""
    trajectories = 1 + sum(1 for d in a["deltas"] if d != 0.0)
    return len(a["seeds"]) * trajectories * a["cfg"].steps


def _evolve_steps(a: dict) -> int:
    return a["cfg"].steps


def _kernel_sup_key(a: dict) -> str:
    # The truncated masses do not depend on the sign (KernelSpec docstring).
    return repr(sorted({**a, "spec": replace(a["spec"], sign="plus")}.items()))


TARGETS = (
    Target("params.admissible"),
    Target("params.b_window"),
    Target("params.b_window_2d"),
    Target("params.minimal_k"),
    Target("params.scaling_exponents"),
    Target("grids.unit_rough_data"),
    Target("grids.hat_norm"),
    Target("grids.from_samples"),
    Target("grids.dilate"),
    Target("kernels.kernel_sup", key=_kernel_sup_key),
    Target("kernels.kernel_mass"),
    Target("kernels.trilinear_probe"),
    Target("solver.lipschitz_probe", work=_lipschitz_traj_steps),
    Target("solver.evolve", work=_evolve_steps),
    Target("solver.lifespan_probe"),
    Target("solver.to_first_order"),
    Target("cli.build_parser"),
    Target("cli.make_report"),
)


class Tracer:
    """Context manager that installs the wrappers and restores the
    originals on exit; statistics add up over every entry.  Targets
    missing from the package are listed in absent rather than failing."""

    def __init__(self, targets=TARGETS, package: str = "zaklab"):
        self.targets = targets
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]
        for target in self.targets:
            mod_name, attr = target.name.rsplit(".", 1)
            home = sys.modules.get(f"{self.package}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                if target.name not in self.absent:
                    self.absent.append(target.name)
                continue
            stat = self.stats.setdefault(target.name, Stat())
            wrapper = self._wrap(original, stat, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, stat: Stat, target: Target):
        local, lock = self._local, self._lock
        signature = inspect.signature(fn) if target.work or target.key else None

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with lock:
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - children[0]
                    if signature is not None:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        if target.work is not None:
                            stat.work += target.work(bound.arguments)
                        if target.key is not None:
                            stat.keys.add(target.key(bound.arguments))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced
