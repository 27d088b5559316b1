"""The workloads, each as a timed closed loop and as a traced pass.

Timed runs (``--trace 0``) measure what a user sees: CLI work runs as
``python -m legnu.cli`` in a fresh interpreter per command, one child at a
time; in-process work calls the library from this process, with arguments
drawn afresh for every cycle.  Traced runs (``--trace 1``) run a fixed
number of operations twice in this process, once plain and once under
`spans.Tracer`, and report layer metrics.

Outputs are checked against `reference` only after the timed loop ends;
mpmath is imported there too, so it is not part of the measured memory.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from spans import IDENTITY_CHECKS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

CHILD_TIMEOUT_S = 120.0
#: Fresh ``import legnu`` interpreters per timed run, spread evenly over it.
SETUP_SAMPLES = 8
#: A timed in-process run keeps one output per operation: that of cycle
#: i mod CHECK_ROTATION for operation i, which is the one checked.  Which
#: outputs are checked, and so ``attempted`` and ``failed``, then depends
#: on the seed alone, not on how many cycles fit in a run; and the harness
#: holds the same memory however many cycles fit, so ``peak_rss_mb`` does
#: not grow with speed.
CHECK_ROTATION = 4
#: Cycles whose in-process inputs are kept; older ones are drawn again.
DRAWS_KEPT = 8
IMPORTTIME_REPEATS = 3

NAMES = ("batch_tables", "certify", "scalar_mix")


# ---------------------------------------------------------------------------
# statistics


def median(xs) -> float:
    return float(statistics.median(xs)) if len(xs) else 0.0


def low(xs) -> float:
    """The fastest repeat: an operation's cost when the machine is at its
    fastest in the run.  Noise on a shared host only adds time, and the
    minimum spread less from run to run than the 10th percentile or the
    median did."""
    return float(min(xs))


def tail(xs) -> tuple[float, float]:
    """(value, percentile) of the highest sample with at least ten samples
    above it; the largest sample when there are too few samples for that
    to lie above the median."""
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return 0.0, 0.0
    if n <= 20:
        return float(s[-1]), 100.0
    return float(s[n - 11]), 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# results and failure accounting


@dataclass
class Tally:
    """Operations attempted and failed, with each failure's class."""

    attempted: int = 0
    failed: int = 0
    classes: Counter = field(default_factory=Counter)
    examples: list = field(default_factory=list)

    def record(self, failure: tuple[str, str] | None) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        self.classes[failure[0]] += 1
        example = f"{failure[0]}: {failure[1]}"
        if self.classes[failure[0]] <= 2 and example not in self.examples:
            self.examples.append(example)  # the first of each class

    @property
    def correct(self) -> bool:
        """Every output was checked and every failure is a known defect."""
        return self.attempted > 0 and not any(c.startswith("unexpected") for c in self.classes)


@dataclass
class Result:
    tally: Tally
    metrics: dict  # name -> (value, unit): the BENCHMARK.json metrics
    details: dict  # name -> (value, unit, note): the per-workload figures


NONDETERMINISTIC = ("unexpected:nondeterministic_output", "two identical runs differ")


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(args: list[str]) -> Child:
    """Run ``python <args>`` from the checkout root and reap it with wait4,
    which also returns its peak resident memory."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, cwd=ROOT, env=child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss)


def cli_child(argv: list[str]) -> Child:
    return run_child(["-m", "legnu.cli", *argv])


def setup_sample() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    c = run_child(["-c", "import legnu"])
    if c.returncode != 0:
        raise RuntimeError(f"import legnu failed:\n{c.stderr.decode(errors='replace')}")
    return c.wall_s


def import_times() -> dict[str, float]:
    """Cumulative import seconds of legnu, scipy.integrate and numpy from
    ``-X importtime``, median over a few fresh interpreters."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        c = run_child(["-X", "importtime", "-c", "import legnu"])
        cumulative = {}
        for line in c.stderr.decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        runs.append(cumulative)
    return {name: median([r.get(name, 0.0) for r in runs])
            for name in ("legnu", "scipy.integrate", "numpy")}


def in_process_cli(argv: list[str]) -> tuple[int, bytes]:
    """Run ``legnu.cli.main`` here with stdout captured, as a child would."""
    import legnu.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = legnu.cli.main(list(argv))
    return code, buf.getvalue().encode()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# output checks (run after timing)


def _p_est(nu: float, z: float) -> float:
    import legnu

    return legnu.legendre_p(nu, z).abs_err_est


def check_value(ref, func: str, args: tuple, value, converged=True, est=None):
    """None, or (failure class, detail) for one library output."""
    import reference

    z = args[1] if func in ("legendre_p", "maclaurin_p") else args[0]
    if func in ("dilog", "trilog"):
        z = 2.0 * args[0] - 1.0
    if func == "legendre_p" and est is None:
        est = _p_est(*args)
    why = reference.miss(ref, func, args, value, converged, est or 0.0)
    if why is None:
        return None
    return reference.defect_class(func, z), f"{func}{args} -> {value!r}: {why}"


def target_args(func: str, z: float, nu: float) -> tuple:
    """Library arguments behind a CLI target at one point (order 3)."""
    return {"legendre_p": (nu, z), "maclaurin_p": (nu, z, 3)}.get(func, (z,))


def check_eval(ref, what: str, z: float, nu: float, code: int, stdout: bytes):
    """Only ``eval --what p`` has a failing exit of its own, non-convergence;
    any other non-zero exit is a crash or a refused input."""
    import reference

    func = reference.TARGET_FUNCS[what]
    label = f"eval {what} z={z!r} nu={nu!r}: exit {code}"
    if code == 0:
        return check_value(ref, func, target_args(func, z, nu), float(stdout.decode()))
    if what == "p" and code == reference.EXIT_NONCONVERGED:
        return reference.defect_class(func, z), label
    return "unexpected:cli_exit", label


def _flag(argv: list[str], name: str) -> str:
    prefix = f"--{name}="
    return next(a[len(prefix):] for a in argv if a.startswith(prefix))


def grid(start: float, end: float, count: int, spacing: str) -> np.ndarray:
    """The documented grid: linspace, or Chebyshev-Lobatto with exact ends."""
    if spacing == "uniform":
        return np.linspace(start, end, count)
    k = np.arange(count)
    pts = 0.5 * (start + end) - 0.5 * (end - start) * np.cos(np.pi * k / (count - 1))
    pts[0], pts[-1] = start, end
    return pts


def _worst(failures: list) -> tuple[str, str] | None:
    if not failures:
        return None
    unexpected = [f for f in failures if f[0].startswith("unexpected")]
    first = (unexpected or failures)[0]
    return first[0], f"{first[1]} (+{len(failures) - 1} more)"


def check_table(ref, seed: int, argv: list[str], code: int, stdout: bytes):
    """Check a ``tabulate`` or ``truncation-study`` output; one failure for
    the whole command, classed by its worst value."""
    import reference

    label = f"{argv[0]} {' '.join(argv[1:])}"
    if code != 0:
        return "unexpected:cli_exit", f"{label}: exit {code}"
    rows = list(csv.reader(io.StringIO(stdout.decode())))
    header, rows = rows[0], rows[1:]
    spacing = _flag(argv, "spacing")
    zs = grid(float(_flag(argv, "z-start")), float(_flag(argv, "z-end")),
              int(_flag(argv, "count")), spacing)
    if any(r[header.index("status")] != "ok" for r in rows):
        return "unexpected:nonconverged_row", f"{label}: a row is not ok"
    rng = inputs.rng_for(seed, label)
    failures = []
    if argv[0] == "tabulate":
        nu = float(_flag(argv, "nu"))
        if header != ["z", "status", *reference.TARGET_FUNCS] or len(rows) != len(zs) \
                or np.max(np.abs(np.array([float(r[0]) for r in rows]) - zs)) > 1e-15:
            return "unexpected:table_shape", f"{label}: header, row count or z column wrong"
        picks = [int(i) for i in inputs.lattice(rng, 48, 0, len(zs))]
        for i in picks:
            z = float(zs[i])
            for col, func in enumerate(reference.TARGET_FUNCS.values(), start=2):
                f = check_value(ref, func, target_args(func, z, nu), float(rows[i][col]))
                if f:
                    failures.append(f)
        return _worst(failures)
    nus = grid(float(_flag(argv, "nu-start")), float(_flag(argv, "nu-end")),
               int(_flag(argv, "nu-count")), "uniform")
    if len(rows) != 4 * len(nus):
        return "unexpected:table_shape", f"{label}: {len(rows)} rows"
    picks = [0] + [int(i) for i in inputs.lattice(rng, 8, 0, len(zs))]
    for j, nu in enumerate(nus):
        nu = float(nu)
        for i in picks:
            z = float(zs[i])
            p_ref = ref.p(nu, z)
            slack = _p_est(nu, z) + reference.P_REL_TRUNCATION * abs(p_ref)
            for order in range(4):
                row = rows[4 * j + order]
                mac, scale = ref.maclaurin(nu, z, order)
                cell = abs(mac - p_ref)
                reported = float(row[3])
                if float(row[0]) != nu or int(row[1]) != order \
                        or reported < cell - reference.REL * scale - slack:
                    failures.append(("unexpected:truncation_max",
                                     f"{label}: nu={nu!r} order={order} max {reported!r} "
                                     f"< error {float(cell):.6g} at z={z!r}"))
    return _worst(failures)


def check_certify_op(ref, op: tuple, out):
    """None, or (failure class, detail) for one ``certify`` call."""
    import reference

    if op[0] == "run_all":
        failed = [r.identity_id for r in out if not r.passed]
        return ("unexpected:identity_report", ", ".join(failed)) if failed else None
    if op[0] == "oracle":
        _, z, order = op
        oracle, closed = out
        exact = ref.deriv(z, order)
        cap = reference.ORACLE_ERR_CAP[order]
        ok = oracle.converged and abs(oracle.value - closed) <= cap \
            and abs(oracle.value - exact) <= cap
        return None if ok else ("unexpected:nu_derivative_oracle",
                                f"z={z!r} order={order} oracle={oracle} closed={closed!r}")
    x = op[1]
    quad, series = out
    exact = ref.li(2, x)
    ok = quad.converged and abs(quad.value - series.value) <= inputs.INTEGRAL_TOL \
        and abs(quad.value - exact) <= inputs.INTEGRAL_TOL
    return None if ok else ("unexpected:dilog_integral_oracle",
                            f"x={x!r} quad={quad} series={series}")


def check_scalar(ref, name: str, args: tuple, out):
    if name in ("legendre_p", "dilog", "trilog"):
        return check_value(ref, name, args, out.value, out.converged,
                           out.abs_err_est if name == "legendre_p" else None)
    return check_value(ref, name, args, out)


# ---------------------------------------------------------------------------
# workloads: a cycle of distinct operations, how to run and check each


def certify_call(op: tuple):
    """Make one ``certify`` call: ``run_all()``, or one oracle checked
    against the closed form it certifies."""
    import legnu

    if op[0] == "run_all":
        return legnu.run_all()
    if op[0] == "oracle":
        _, z, k = op
        closed = (legnu.dp_dnu0, legnu.d2p_dnu2_0, legnu.d3p_dnu3_0)[k - 1]
        return legnu.nu_derivative_oracle(z, k), closed(z)
    x = op[1]
    return legnu.dilog_integral_oracle(x, inputs.INTEGRAL_TOL), legnu.dilog(x)


@dataclass
class Workload:
    """One cycle of ``n`` distinct operations and how to run and check them.

    ``run(i, c)`` runs operation i of cycle c as a user would and returns
    (output, seconds); ``run_here(i, c)`` runs it in this process (the
    traced path); ``check(ref, i, c, output)`` returns one failure or None
    per checked operation inside it.  CLI workloads (``commands``) repeat
    the same commands every cycle; in-process ones draw fresh arguments.
    """

    n: int
    run: Callable[[int, int], tuple[object, float]]
    run_here: Callable[[int, int], object]
    check: Callable[[object, int, int, object], list]
    commands: list | None = None
    draw: Callable[[int], object] = lambda cycle: None  # make a cycle's inputs
    min_cycles: int = CHECK_ROTATION
    child_rss_kb: list = field(default_factory=list)

    @property
    def in_process(self) -> bool:
        return self.commands is None

    def check_cycle(self, i: int, cycles: int) -> int:
        """The cycle whose output of operation i is checked, of ``cycles``.
        CLI commands repeat theirs every cycle, so every output is compared
        with the first."""
        return i % min(CHECK_ROTATION, cycles) if self.in_process else 0


def _cli_workload(argvs: list[list[str]], check) -> Workload:
    w = Workload(len(argvs), None, lambda i, c: in_process_cli(argvs[i]),
                 lambda ref, i, c, out: check(ref, i, out), commands=argvs, min_cycles=2)

    def run(i, c):
        child = cli_child(argvs[i])
        w.child_rss_kb.append(child.maxrss_kb)
        return (child.returncode, child.stdout), child.wall_s

    w.run = run
    return w


def make_workload(name: str, seed: int, traced: bool = False) -> Workload:
    """The workload's cycle.  A traced ``batch_tables`` also runs one
    ``eval`` per target, so that the ``cli.eval`` layer is measured; the
    timed one leaves them out, as a fresh ``eval`` is the interpreter start
    and import that ``setup_s`` times."""
    if name == "batch_tables":
        argvs = inputs.table_commands(seed)
        evals = inputs.eval_commands(seed) if traced else []

        def check(ref, i, out):
            if i < len(argvs):
                return [check_table(ref, seed, argvs[i], *out)]
            return [check_eval(ref, *evals[i - len(argvs)], *out)]

        return _cli_workload(argvs + [inputs.eval_argv(*e) for e in evals], check)
    import legnu

    clock = time.perf_counter
    if name == "certify":
        ops = functools.lru_cache(DRAWS_KEPT)(lambda c: inputs.certify_ops(seed, c))

        def run(i, c):
            op = ops(c)[i]
            t0 = clock()
            out = certify_call(op)
            return out, clock() - t0

        return Workload(len(ops(0)), run, lambda i, c: run(i, c)[0],
                        lambda ref, i, c, out: [check_certify_op(ref, ops(c)[i], out)],
                        draw=ops)
    pools = functools.lru_cache(DRAWS_KEPT)(lambda c: inputs.scalar_pool(seed, c))

    def run(i, c):
        func, args, _ = pools(c)[i]
        f = getattr(legnu, func)  # looked up per call, so that a tracer's wrapper is seen
        t0 = clock()
        out = f(*args)
        return out, clock() - t0

    def check(ref, i, c, out):
        func, args, _ = pools(c)[i]
        return [check_scalar(ref, func, args, out)]

    return Workload(len(pools(0)), run, lambda i, c: run(i, c)[0], check, draw=pools)


def record_checks(tally: Tally, w: Workload, cycles: list[int], outs: list[list]) -> None:
    """Check each operation once, at ``cycles[i]``, from ``outs[i]``: the
    outputs it gave for those arguments.  Each must equal the first, or the
    operation fails as nondeterministic.  ``attempted`` counts the
    operations checked, so it and ``failed`` depend on the seed alone.
    """
    import reference

    ref = reference.Reference()
    for i, (cycle, runs) in enumerate(zip(cycles, outs)):
        first = runs[0]
        try:
            verdicts = w.check(ref, i, cycle, first)
        except (ValueError, IndexError, StopIteration) as exc:
            verdicts = [("unexpected:malformed_output", f"operation {i}: {exc!r}")]
        if any(out != first for out in runs[1:]):
            verdicts = [NONDETERMINISTIC] * len(verdicts)
        for v in verdicts:
            tally.record(v)


# ---------------------------------------------------------------------------
# timed runs

#: Figures named per workload that are an end-to-end metric at another
#: scale: name -> (metric, factor, unit).
ALIASES = {
    "batch_tables": {},
    "certify": {},
    "scalar_mix": {"scalar_calls_per_s": ("ops_per_s", 1.0, "1/s"),
                   "scalar_p50_us": ("op_p50_ms", 1e3, "us"),
                   "scalar_tail_us": ("op_tail_ms", 1e3, "us")},
}


def timed(name: str, seed: int, seconds: float) -> Result:
    """Repeat the workload's cycle for ``seconds`` in a closed loop, with
    SETUP_SAMPLES fresh imports spread over the same time, then check the
    outputs.  At least ``min_cycles`` whole cycles run; after them the run
    ends at the first operation that starts past ``seconds``."""
    w = make_workload(name, seed)
    n = w.n
    if w.in_process:
        for i in range(n):
            w.run_here(i, inputs.WARMUP)
    setup = []
    lat = [array("d") for _ in range(n)]
    outs = [[] for _ in range(n)]
    cycles = 0
    clock = time.perf_counter
    t0 = clock()
    while cycles < w.min_cycles or clock() - t0 < seconds:
        w.draw(cycles)
        for i in range(n):
            if cycles >= w.min_cycles and clock() - t0 >= seconds:
                break
            if len(setup) < SETUP_SAMPLES and clock() - t0 >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append(setup_sample())
            out, dt = w.run(i, cycles)
            lat[i].append(dt)
            if w.check_cycle(i, w.min_cycles) == cycles or not w.in_process:
                outs[i].append(out)
        cycles += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    measured = clock() - t0
    rss_mb = self_peak_rss_mb() if w.in_process else max(w.child_rss_kb) / 1024.0

    tally = Tally()
    record_checks(tally, w, [w.check_cycle(i, w.min_cycles) for i in range(n)], outs)
    fast = [low(x) for x in lat]
    samples = [t for x in lat for t in x]
    tail_value, tail_pct = tail(fast)
    metrics = {
        "setup_s": (low(setup), "s"),
        "op_p50_ms": (median(fast) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "ops_per_s": (n / sum(fast), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = {
        "failed_fraction": (tally.failed / tally.attempted, "ratio",
                            f"{tally.failed}/{tally.attempted}"),
        "setup_samples": (len(setup), "count", f"setup_s is their minimum; median "
                                               f"{median(setup):.4g} s"),
        "distinct_ops": (n, "count", f"{cycles} cycles, {len(samples)} samples; "
                                     f"op_tail_ms is p{tail_pct:.1f} of distinct ops"),
        "plain_p50_ms": (median(samples) * 1e3, "ms", "median of all samples"),
        "measured_s": (measured, "s", ""),
        **figures(name, w, lat, fast),
    }
    for alias, (metric, factor, unit) in ALIASES[name].items():
        details[alias] = (metrics[metric][0] * factor, unit, f"= {metric} x {factor:g}")
    return Result(tally, metrics, details)


def figures(name: str, w: Workload, lat: list, fast: list[float]) -> dict:
    """The figures named for a workload that no end-to-end metric holds."""
    if name == "batch_tables":
        tabulate = [t for t, argv in zip(fast, w.commands) if argv[0] == "tabulate"]
        study = [t for t, argv in zip(fast, w.commands) if argv[0] == "truncation-study"]
        return {"tabulate_rows_per_s": (inputs.TABULATE_COUNT * len(tabulate) / sum(tabulate),
                                        "rows/s", "rows over fast-state wall time"),
                "truncation_study_s": (median(study), "s", "fast-state wall time")}
    if name == "certify":
        ops = w.draw(0)  # an operation's kind is the same in every cycle
        run_all = [t for i, x in enumerate(lat) if ops[i][0] == "run_all" for t in x]
        checks = [t for i, t in enumerate(fast) if ops[i][0] != "run_all"]
        return {"run_all_s": (low(run_all), "s", f"fastest of {len(run_all)} calls"),
                "oracle_checks_per_s": (len(checks) / sum(checks), "1/s",
                                        "oracle and integral cross-checks")}
    if name == "scalar_mix":
        edge = 2 * inputs.SCALAR_EDGE / (inputs.SCALAR_INTERIOR + 2 * inputs.SCALAR_EDGE)
        return {"boundary_share": (edge, "ratio", "share of calls in a boundary layer")}
    return {}


# ---------------------------------------------------------------------------
# traced runs

#: Cycles per second of ``--seconds`` in a traced run (at least one), so that
#: the same ``--seconds`` gives the same counts.
TRACE_CYCLES_PER_S = {"batch_tables": 0.03, "certify": 0.2, "scalar_mix": 0.3}


def traced(name: str, seed: int, seconds: float) -> tuple[Tally, dict, Tracer]:
    """Run a fixed number of cycles in this process, plain and then
    traced; return the failures, the layer metrics and the tracer."""
    imports = import_times()
    w = make_workload(name, seed, traced=True)
    cycles = max(1, round(TRACE_CYCLES_PER_S[name] * seconds))
    ops = [(i, c) for c in range(cycles) for i in range(w.n)]
    for i in range(w.n if w.in_process else 1):  # warm-up, as in a timed run
        w.run_here(i, inputs.WARMUP)
    for c in range(cycles):
        w.draw(c)
    t0 = time.perf_counter()
    plain = [w.run_here(i, c) for i, c in ops]
    t_plain = time.perf_counter() - t0
    tracer = Tracer()
    outs = []
    with tracer:
        t0 = time.perf_counter()
        for k, (i, c) in enumerate(ops):
            tracer.current_op = k
            outs.append(w.run_here(i, c))
        t_traced = time.perf_counter() - t0

    tally = Tally()
    checked = [w.check_cycle(i, cycles) for i in range(w.n)]
    grouped = [[] for _ in range(w.n)]
    for (i, c), a, b in zip(ops, plain, outs):
        if c == checked[i]:
            grouped[i] += [a, b]
    record_checks(tally, w, checked, grouped)
    bytes_out = Counter()
    if not w.in_process:
        for (i, _), out in zip(ops, outs):
            bytes_out[w.commands[i][0]] += len(out[1])
    layer = layer_metrics(tracer, imports, bytes_out, t_traced, t_plain)
    return tally, layer, tracer

LAYER_FUNCS = {
    "core": ("adaptive_quad",),
    "polylog": ("dilog", "trilog", "dilog_integral_oracle"),
    "legendre": ("legendre_p", "dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0", "maclaurin_p",
                 "nu_derivative_oracle"),
}
NONCONVERGED_SPANS = ("core.adaptive_quad", "legendre.legendre_p",
                      "legendre.nu_derivative_oracle")
CLI_COMMANDS = ("eval", "tabulate", "truncation-study")
IDENTITIES = tuple(IDENTITY_CHECKS.values())


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run emits, with its unit."""
    units = {"import.legnu_s": "s", "import.scipy_integrate_s": "s", "import.numpy_s": "s"}
    for layer, funcs in LAYER_FUNCS.items():
        for f in funcs:
            units[f"{layer}.{f}.calls"] = "count"
            units[f"{layer}.{f}.self_s"] = "s"
            if f"{layer}.{f}" in NONCONVERGED_SPANS:
                units[f"{layer}.{f}.nonconverged"] = "count"
    units["legendre.legendre_p.p50_us"] = "us"
    units["legendre.legendre_p.tail_us"] = "us"
    units["legendre.closed_form_calls_per_z"] = "ratio"
    for ident in IDENTITIES:
        units[f"verify.{ident}.self_s"] = "s"
        units[f"verify.{ident}.samples"] = "count"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.self_s"] = "s"
        units[f"cli.{cmd}.bytes_out"] = "bytes"
    units["bench.trace_overhead"] = "ratio"
    units["bench.unaccounted_s"] = "s"
    return units


def layer_metrics(tracer: Tracer, imports: dict, bytes_out: Counter, t_traced: float,
                  t_plain: float) -> dict:
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "nonconverged": 0, "durations": np.empty(0)}
    values = {"import.legnu_s": imports["legnu"],
              "import.scipy_integrate_s": imports["scipy.integrate"],
              "import.numpy_s": imports["numpy"]}
    for layer, funcs in LAYER_FUNCS.items():
        for f in funcs:
            s = summary.get(f"{layer}.{f}", empty)
            values[f"{layer}.{f}.calls"] = s["calls"]
            values[f"{layer}.{f}.self_s"] = s["self_s"]
            if f"{layer}.{f}" in NONCONVERGED_SPANS:
                values[f"{layer}.{f}.nonconverged"] = s["nonconverged"]
    durations = summary.get("legendre.legendre_p", empty)["durations"]
    values["legendre.legendre_p.p50_us"] = median(durations) * 1e6
    values["legendre.legendre_p.tail_us"] = tail(durations)[0] * 1e6
    closed_calls = sum(summary.get(f"legendre.{f}", empty)["calls"]
                       for f in ("dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0"))
    values["legendre.closed_form_calls_per_z"] = \
        closed_calls / len(tracer.closed_form_z) if tracer.closed_form_z else 0.0
    for ident in IDENTITIES:
        values[f"verify.{ident}.self_s"] = summary.get(f"verify.{ident}", empty)["self_s"]
        values[f"verify.{ident}.samples"] = tracer.samples.get(ident, 0)
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.self_s"] = summary.get(f"cli.{cmd}", empty)["self_s"]
        values[f"cli.{cmd}.bytes_out"] = bytes_out[cmd]
    values["bench.trace_overhead"] = t_traced / t_plain
    values["bench.unaccounted_s"] = t_traced - tracer.top_level_seconds()
    units = layer_metric_units()
    return {name: (values[name], unit) for name, unit in units.items()}
