"""Span tracing of the library's layers from outside the library.

`Tracer.install` wraps each traced public function at every place a
``legnu`` module binds it (``legnu.polylog.dilog`` and the names
``legnu.legendre.dilog``, ``legnu.verify.dilog`` and ``legnu.dilog`` bound
to the same object), so calls between modules are seen too.  `restore`
puts every original object back.  Spans (name, start, end, parent,
operation id) are kept in memory and written out once at the end.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

IDENTITY_CHECKS = {
    "check_ode_base": "ode_base",
    "check_ode_deriv2": "ode_deriv2",
    "check_ode_deriv3": "ode_deriv3",
    "check_euler_reflection": "euler_reflection",
    "check_dilog_antiderivative": "dilog_antiderivative",
    "check_li2_over_1mz_integral": "li2_over_1mz_integral",
}

#: (defining module, function) pairs that get a span named "<layer>.<name>".
TRACED = (
    [("legnu.core", "adaptive_quad")]
    + [("legnu.polylog", f) for f in ("dilog", "trilog", "dilog_integral_oracle")]
    + [("legnu.legendre", f) for f in ("legendre_p", "dp_dnu0", "d2p_dnu2_0",
                                       "d3p_dnu3_0", "maclaurin_p", "nu_derivative_oracle")]
    + [("legnu.verify", f) for f in ("run_all", *IDENTITY_CHECKS)]
    + [("legnu.cli", "main")]
)

CLOSED_FORMS = ("legendre.dp_dnu0", "legendre.d2p_dnu2_0", "legendre.d3p_dnu3_0")


def span_name(module: str, func: str) -> str:
    layer = module.split(".")[-1]
    if func in IDENTITY_CHECKS:
        return f"verify.{IDENTITY_CHECKS[func]}"
    return f"{layer}.{func}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.nonconverged = array("b")
        self.current_op = 0
        self.closed_form_z: set[float] = set()
        self.samples: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _wrap(self, fn, name: str):
        code = self._code(name)
        stack, now = self._stack, time.perf_counter_ns
        closed_form = name in CLOSED_FORMS
        identity = name[len("verify."):]
        if identity not in IDENTITY_CHECKS.values():
            identity = None

        def traced(*args, **kwargs):
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span = self._code(f"cli.{argv[0]}")
            else:
                span = code
            idx = len(self.code)
            self.code.append(span)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0)
            self.end.append(0)
            self.nonconverged.append(0)
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if getattr(result, "converged", True) is False:
                self.nonconverged[idx] = 1
            if closed_form:
                self.closed_form_z.add(float(args[0]))
            if identity is not None:
                self.samples[identity] = result.samples
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "legnu" or n.startswith("legnu."))]
        for module_name, func in TRACED:
            orig = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(orig, span_name(module_name, func))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patched.append((module, attr, orig))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- aggregation --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        fields = ("code", "start", "end", "parent", "op", "nonconverged")
        return {f: np.array(getattr(self, f)) for f in fields}

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, non-converged results and the
        inclusive durations of every call (seconds)."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(float) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for code, name in enumerate(self.names):
            mask = a["code"] == code
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "nonconverged": int(a["nonconverged"][mask].sum()),
                "durations": dur[mask],
            }
        return out

    def top_level_seconds(self) -> float:
        a = self.arrays()
        top = a["parent"] < 0
        return float((a["end"][top] - a["start"][top]).sum()) * 1e-9

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
