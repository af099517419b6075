"""In-memory span tracer wrapped around fqlattice's layer boundaries.

The benchmark installs it in the fresh interpreter of a traced repetition,
before `cli.main` runs; nothing under `src/` knows about it.  Each wrapped
call is a span on one stack.  A span's self time is its duration minus the
time its wrapped child spans cover.  Only per-name aggregates are kept
(calls, self seconds, and a tally of results such as true answers), so memory
stays flat however many spans a run makes.

A function wrapper replaces every binding of the original object in the
fqlattice modules, including module-level dicts such as `harness.RUNNERS`,
because each module that imported the name holds its own reference.  Class
methods are patched on the class.  Pool workers are forked from the traced
process; a fork hook restores the originals in each worker, so only spans on
the parent side are recorded and the workers run at untraced speed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _truth(result) -> int:
    return 1 if result else 0


def _terms(expansion) -> int:
    return len(expansion.coeffs)


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.tally: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, object, object]] = []

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[object], int]] = None) -> Callable:
        stack, calls, self_s, tally = self._stack, self.calls, self.self_s, self.tally
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                tally[name] += observe(result)
            return result

        return span

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def patch_method(self, name: str, cls: type, attr: str,
                     observe: Optional[Callable] = None) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], observe))

    def patch_function(self, name: str, module, attr: str,
                       observe: Optional[Callable] = None) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, observe)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are built from."""
        from fqlattice import cfrac, cli, field, haar, harness, lattice, laurent
        self.patch_method("field.divmod", field.Poly, "__divmod__")
        self.patch_method("field.mul", field.Poly, "__mul__")
        self.patch_method("field.ideal_contains", field.Ideal, "contains", _truth)
        self.patch_method("laurent.rationalfn_init", laurent.RationalFn, "__init__")
        self.patch_method("laurent.expand", laurent.RationalFn, "expand")
        for name, module, attr, observe in (
                ("field.poly_gcd", field, "poly_gcd", None),
                ("field.poly_xgcd", field, "poly_xgcd", None),
                ("field.is_coprime", field, "is_coprime", _truth),
                ("lattice.solution_statistic", lattice, "solution_statistic", None),
                ("lattice.companion_of", lattice, "companion_of", None),
                ("cfrac.cf_expand", cfrac, "cf_expand", _terms),
                ("cfrac.convergents", cfrac, "convergents", None),
                ("cfrac.penultimate_ratio", cfrac, "penultimate_ratio", None),
                ("haar", haar, "expected_box_count", None),
                ("haar", haar, "counting_main_term", None),
                ("haar", haar, "cfe_prefactor", None),
                ("haar", haar, "hecke_index", None),
                ("harness.runner", harness, "run_count", None),
                ("harness.runner", harness, "run_joint", None),
                ("harness.runner", harness, "run_cfe", None),
                ("harness.render", harness, "render_report", None),
                ("cli.main", cli, "main", None)):
            self.patch_function(name, module, attr, observe)
        os.register_at_fork(after_in_child=self.uninstall)

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                       "tally": self.tally[name]}
                for name in sorted(self.calls)}
