"""Self-test of the benchmark harness (not of legnu).

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs, that every metric the benchmark
promises is emitted with its unit, that the tracer's wrappers are put back,
and that the benchmark fails cleanly where there is no package to measure.
Takes a minute or two: it makes one short run per workload and mode.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOAD_FIGURES = {
    "batch_tables": {"tabulate_rows_per_s", "truncation_study_s"},
    "certify": {"run_all_s", "oracle_checks_per_s"},
    "scalar_mix": {"scalar_calls_per_s", "scalar_p50_us", "scalar_tail_us", "boundary_share"},
}
EVERY_WORKLOAD_FIGURES = {"failed_fraction"}

LAYER_METRICS = (
    ["import.legnu_s", "import.scipy_integrate_s", "import.numpy_s",
     "core.adaptive_quad.calls", "core.adaptive_quad.self_s",
     "core.adaptive_quad.nonconverged"]
    + [f"polylog.{f}.{m}" for f in ("dilog", "trilog", "dilog_integral_oracle")
       for m in ("calls", "self_s")]
    + [f"legendre.legendre_p.{m}" for m in ("calls", "self_s", "nonconverged", "p50_us",
                                            "tail_us")]
    + [f"legendre.{f}.{m}" for f in ("dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0", "maclaurin_p")
       for m in ("calls", "self_s")]
    + ["legendre.closed_form_calls_per_z"]
    + [f"legendre.nu_derivative_oracle.{m}" for m in ("calls", "self_s", "nonconverged")]
    + [f"verify.{i}.{m}" for i in ("ode_base", "ode_deriv2", "ode_deriv3", "euler_reflection",
                                   "dilog_antiderivative", "li2_over_1mz_integral")
       for m in ("self_s", "samples")]
    + [f"cli.{c}.{m}" for c in ("eval", "tabulate", "truncation-study")
       for m in ("self_s", "bytes_out")]
    + ["bench.trace_overhead", "bench.unaccounted_s"]
)


def run_bench(cwd: Path, workload: str, trace: int, seconds: float = 1.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


class Inputs(unittest.TestCase):
    generators = (inputs.eval_commands, inputs.table_commands,
                  lambda seed: inputs.certify_ops(seed, 0),
                  lambda seed: inputs.scalar_pool(seed, 0))

    def test_same_seed_same_inputs(self):
        for gen in self.generators:
            self.assertEqual(gen(7), gen(7), gen)

    def test_other_seed_other_inputs(self):
        for gen in self.generators:
            self.assertNotEqual(gen(7), gen(8), gen)

    def test_in_process_arguments_never_repeat(self):
        """Each cycle, and the warm-up, draws new arguments in the same
        strata, so an operation keeps its identity but not its inputs."""
        cycles = [inputs.WARMUP, 0, 1, 2]
        pools = [inputs.scalar_pool(7, c) for c in cycles]
        for i in range(len(pools[0])):
            ops = [pool[i] for pool in pools]
            self.assertEqual(len({(f, region) for f, _, region in ops}), 1)
            self.assertEqual(len({args for _, args, _ in ops}), len(cycles))
        certify = [inputs.certify_ops(7, c) for c in cycles]
        for i in range(len(certify[0])):
            self.assertEqual(len({op[0] for op in (ops[i] for ops in certify)}), 1)
        rounds = [inputs.certify_rounds(7, c) for c in cycles]
        for i in range(inputs.CERTIFY_ROUNDS):
            self.assertEqual(len({tuple(r[i][0]) for r in rounds}), len(cycles))
            strata = {tuple(int((z + 0.9) / 1.8 * inputs.CERTIFY_ORACLE_Z) for z in r[i][0])
                      for r in rounds}
            self.assertEqual(len(strata), 1)

    def test_scalar_mix_states_its_boundary_share(self):
        pool = inputs.scalar_pool(1, 0)
        regions = [region for _, _, region in pool]
        per_func = inputs.SCALAR_INTERIOR + 2 * inputs.SCALAR_EDGE
        self.assertEqual(len(pool), per_func * len(inputs.SCALAR_FUNCS))
        self.assertEqual(regions.count("minus1"), regions.count("plus1"))
        self.assertAlmostEqual(1 - regions.count("interior") / len(pool),
                               2 * inputs.SCALAR_EDGE / per_func)


class Checks(unittest.TestCase):
    def test_only_nonconvergence_exit_is_a_known_defect(self):
        import reference

        ref = reference.Reference()
        self.assertEqual(workloads.check_eval(ref, "d3", 0.95, 0.0, 1, b"")[0],
                         "unexpected:cli_exit")
        self.assertEqual(workloads.check_eval(ref, "maclaurin", 0.95, 1.0, 2, b"")[0],
                         "unexpected:cli_exit")
        self.assertEqual(workloads.check_eval(ref, "p", -0.99999, 1.0, 3, b"")[0],
                         "p_nonconvergence_near_minus1")
        self.assertEqual(workloads.check_eval(ref, "p", 0.5, 1.0, 3, b"")[0],
                         "unexpected:legendre_p")


    def test_failures_do_not_depend_on_run_length(self):
        """The outputs checked are fixed by the seed, so a run that fits more
        cycles attempts and fails the same operations."""
        samples, workloads.SETUP_SAMPLES = workloads.SETUP_SAMPLES, 1
        try:
            short, longer = (workloads.timed("scalar_mix", 3, s) for s in (0.1, 10.0))
        finally:
            workloads.SETUP_SAMPLES = samples
        cycles = [int(r.details["distinct_ops"][2].split()[0]) for r in (short, longer)]
        self.assertLess(*cycles)
        self.assertGreater(short.tally.failed, 0)
        self.assertEqual((short.tally.attempted, short.tally.failed, short.tally.classes),
                         (longer.tally.attempted, longer.tally.failed, longer.tally.classes))


class Wrappers(unittest.TestCase):
    def snapshot(self):
        return {(name, attr): value for name, module in sorted(sys.modules.items())
                if name == "legnu" or name.startswith("legnu.")
                for attr, value in vars(module).items()}

    def test_wrappers_are_restored(self):
        import legnu
        import legnu.cli  # noqa: F401

        before = self.snapshot()
        original = legnu.legendre.dilog
        tracer = Tracer()
        with tracer:
            self.assertIsNot(legnu.legendre.dilog, original)
            self.assertIs(legnu.legendre.dilog, legnu.polylog.dilog)
            legnu.maclaurin_p(0.3, 0.2, 3)
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_spans_nest_under_their_caller(self):
        import legnu

        tracer = Tracer()
        with tracer:
            legnu.maclaurin_p(0.3, 0.2, 3)
        summary = tracer.summary()
        self.assertEqual(summary["legendre.maclaurin_p"]["calls"], 1)
        self.assertEqual(summary["legendre.d3p_dnu3_0"]["calls"], 1)
        self.assertEqual(summary["polylog.dilog"]["calls"], 2)
        a = tracer.arrays()
        self.assertEqual(int((a["parent"] < 0).sum()), 1)
        self.assertLessEqual(tracer.top_level_seconds(),
                             float(a["end"].max() - a["start"].min()) * 1e-9)


class Metrics(unittest.TestCase):
    def test_benchmark_lists_every_layer_metric(self):
        self.assertCountEqual([m["name"] for m in BENCH["per_layer"]], LAYER_METRICS)
        self.assertCountEqual(workloads.layer_metric_units(), LAYER_METRICS)

    def test_every_metric_is_emitted(self):
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload in workloads.NAMES:
            for trace, expected in ((0, e2e), (1, layer)):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"], proc.stdout)
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()},
                                     expected)
                    record = json.loads((workloads.OUT / f"{workload}-seed3-trace{trace}.json")
                                        .read_text())
                    if trace == 0:
                        self.assertLessEqual(WORKLOAD_FIGURES[workload]
                                             | EVERY_WORKLOAD_FIGURES,
                                             set(record["details"]))
                    for key in ("commit", "python", "numpy", "scipy", "mpmath", "nproc",
                                "cpu_model", "cli"):
                        self.assertIn(key, record["env"])

    def test_no_package_no_result(self):
        bare = workloads.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench(bare, "scalar_mix", 0)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
