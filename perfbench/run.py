"""mospaces benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauge-small --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each op (one ``mospaces`` CLI
invocation through ``mospaces.cli.main``) starts only after the previous
one returned.  With ``--trace 0`` the op cycle of the workload repeats for
``--seconds`` seconds and the end-to-end metrics are reported.  With
``--trace 1`` one cycle runs untraced and one traced, and the per-layer
metrics come from the traced cycle (a fixed op list, so counts repeat
exactly).  Every op's report is checked outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run facts, the
metrics with their units and the sample counts are printed before it and
written under ``.perfbench/`` with the spans of a traced run.
"""

import os

# one thread per BLAS/OpenMP pool, set before numpy can be imported, so that
# a numpy kernel cannot oversubscribe the cores; child processes inherit it
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
SETUP_SEED = 0  # the set-up op's config is the same whatever --seed is
MIN_OPS = 100  # so that at least 10 timed ops lie beyond p90
SETUP_TIMEOUT_S = 120


def cpu_time() -> float:
    """CPU seconds of this process (all threads) and of its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def op_argv(op: workloads.Op, workdir: Path) -> list:
    argv = [op.command, "--config", str(workdir / f"{op.cid}.json")]
    if op.command == "verify":
        argv += ["--certificate", str(workdir / f"{op.cid}.cert.json"), "--seed", str(op.seed)]
    return argv


class Runner:
    """Runs ops of one workload and keeps what the checks need.

    The first report of each op is kept; every later run of the same op must
    print the same bytes.  A classify report is written out as the
    certificate its verify op reads.
    """

    def __init__(self, wl: workloads.Workload, workdir: Path, cli_main):
        self.wl = wl
        self.workdir = workdir
        self.cli_main = cli_main
        self.argvs = [op_argv(op, workdir) for op in wl.ops]
        self.first: dict[int, str] = {}
        self.problems: dict[int, list] = {}  # op index -> problems, failing every attempt
        self.attempts: list = []  # (op index, attempt ok)
        self._certs: dict[str, str] = {}

    def run(self, i: int, tracer=None) -> tuple:
        """Run op ``i`` once; returns its (CPU, wall) time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        main = self.cli_main
        if tracer is not None:
            out.write = tracer.span("cli.write", out.write)
            main = tracer.span(tracing.ROOT, main)
            tracer.op = i
        raised = None
        c0, t0 = cpu_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(self.argvs[i])
        except SystemExit as exc:  # argparse exits on a bad command line
            rc = exc.code
        except Exception as exc:  # an op must never escape main; count it failed
            rc, raised = None, exc
        wall = time.perf_counter() - t0
        cpu = cpu_time() - c0
        self._record(i, rc, raised, out.getvalue(), err.getvalue())
        return cpu, wall

    def _record(self, i, rc, raised, text, err):
        ok = rc == 0
        if raised is not None:
            self._problem(i, f"main raised {raised!r}")
        elif rc != 0:
            last = err.strip().splitlines()[-1:] or [""]
            self._problem(i, f"exit code {rc}: {last[0]}")
        elif i not in self.first:
            self.first[i] = text
        elif self.first[i] != text:
            ok = False
            self._problem(i, "report differs from the first run of the same op")
        op = self.wl.ops[i]
        if ok and op.command == "classify" and self._certs.get(op.cid) != text:
            (self.workdir / f"{op.cid}.cert.json").write_text(text)
            self._certs[op.cid] = text
        self.attempts.append((i, ok))

    def _problem(self, i, msg):
        msgs = self.problems.setdefault(i, [])
        if msg not in msgs:  # a failing op repeats its message every cycle
            msgs.append(msg)

    def check(self, oracle) -> None:
        """Check each op's first report; re-run one op per config class."""
        for i, text in self.first.items():
            op = self.wl.ops[i]
            cfg = self.wl.configs[op.cid]
            oracle_value = None
            if op.command == "norm" and cfg.n <= checks.ORACLE_MAX_CELLS:
                try:
                    oracle_value = oracle(cfg.body, json.loads(text)["results"]["x"])
                except Exception as exc:  # a broken report or oracle fails the op
                    self._problem(i, f"sup oracle cross-check failed: {exc!r}")
                    continue
            for msg in checks.check_report(op.command, text, cfg.expect, oracle_value):
                self._problem(i, msg)
        classes = {}
        for i in sorted(self.first):
            classes.setdefault(self.wl.configs[self.wl.ops[i].cid].cls, i)
        for i in classes.values():
            before = len(self.attempts)
            self.run(i)  # compared byte for byte against the timed report
            del self.attempts[before:]  # the re-run is a check, not an attempt

    def tally(self) -> tuple:
        failed = sum(1 for i, ok in self.attempts if not ok or i in self.problems)
        return len(self.attempts), failed


def sup_oracle(mod_cli, mod_musielak, mod_grid):
    def oracle(body: dict, x_values: list) -> float:
        space = mod_cli.parse_space(body)
        x = mod_grid.StepFunction(space.grid, tuple(mod_cli.num(t) for t in x_values))
        return mod_musielak.orlicz_norm_sup_oracle(space.field, x).value

    return oracle


def setup_argv(name: str, workdir: Path) -> list:
    """The set-up op: the warm-up op of the workload made with SETUP_SEED.

    It does not depend on ``--seed``, so set-up time is the same work in
    every run.
    """
    wl = workloads.generate(name, SETUP_SEED)
    cfg = wl.configs[wl.warmup]
    setup_dir = workdir / "setup"
    setup_dir.mkdir()
    (setup_dir / f"{cfg.cid}.json").write_text(json.dumps(cfg.body))
    return op_argv(wl.ops[wl.warmup_index], setup_dir)


def measure_setup(argv: list) -> dict:
    """Fresh-process set-up times: import mospaces plus one warm-up op.

    Each sample's CPU time is scaled by the reference passes its process
    runs right after the op, as the op times are.
    """
    samples = {"scaled": [], "cpu": [], "wall": []}
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(argv)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(lines[-1])
        if result["rc"] != 0:
            raise RuntimeError(f"warm-up op exited {result['rc']}")
        factor = speed.factor(result["reference_cpu_s"])
        samples["scaled"].append(result["setup_cpu_s"] * factor)
        samples["cpu"].append(result["setup_cpu_s"])
        samples["wall"].append(result["setup_wall_s"])
    return samples


def hd_quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.  The
    op mix has clusters of similar ops, and a single order statistic jumps
    between neighbouring clusters from run to run; the weighted mean does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = []
    for i in range(n):  # Simpson's rule over [i/n, (i+1)/n]
        lo, hi = i / n, (i + 1) / n
        weights.append((hi - lo) / 6 * (density(lo) + 4 * density((lo + hi) / 2) + density(hi)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_loop(runner: Runner, seconds: float) -> dict:
    """Repeat whole cycles for about ``seconds`` and at least MIN_OPS ops.

    Stopping only at a cycle boundary keeps the op mix of every run the
    same; the loop ends at the boundary nearest to the deadline.  Each op's
    CPU and wall time are kept, and a reference pass runs after each op to
    gauge the machine's speed around it (see speed.py).
    """
    n_ops = len(runner.wl.ops)
    cpu, wall, ref = [], [], []
    start = time.perf_counter()
    while True:
        for i in range(n_ops):
            op_cpu, op_wall = runner.run(i)
            cpu.append(op_cpu)
            wall.append(op_wall)
            ref.append(speed.reference_pass())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed * n_ops / len(cpu) >= seconds and len(cpu) >= MIN_OPS:
            break
    loop_wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "n_ops": n_ops,
        "cpu": cpu,
        "wall": wall,
        "ref": ref,
        "loop_wall": loop_wall,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def cycle_sums(times: list, n_ops: int) -> list:
    return [sum(times[k : k + n_ops]) for k in range(0, len(times), n_ops)]


def end_to_end(loop: dict, setup: dict) -> tuple:
    """End-to-end metrics of a timed loop.

    Op times are the CPU time of the benchmark process (all its threads and
    reaped children) while the op runs, scaled to the nominal machine speed
    of speed.py.  An op is one thread of Python and numpy with its BLAS pools
    at one thread, and it waits for nothing but a few small file reads and
    writes, so on an idle core its CPU time is its latency.  On a shared
    host wall time also holds the time the host gives to other work, and CPU
    time moves with the speed the host lends the core; the unscaled CPU and
    the wall-time figures are printed as notes beside the metrics.
    ``ops_per_s`` is the ops of a cycle over the median time of a cycle, so
    a burst of contention in one cycle does not move it.
    """
    n_ops, cpu, wall = loop["n_ops"], loop["cpu"], loop["wall"]
    factor = speed.factors(loop["ref"])
    lat = [t * f for t, f in zip(cpu, factor)]
    cycles = cycle_sums(lat, n_ops)
    metrics = {
        "ops_per_s": (n_ops / statistics.median(cycles), "op/s"),
        "op_latency_p50_ms": (hd_quantile(lat, 0.5) * 1e3, "ms"),
        "op_latency_p90_ms": (hd_quantile(lat, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup["scaled"]), "s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MiB"),
    }
    notes = {
        "ops": len(lat),
        "cycles": len(cycles),
        "ops_beyond_p90": sum(1 for t in lat if t > metrics["op_latency_p90_ms"][0] / 1e3),
        "speed_factor_median": statistics.median(factor),
        "speed_factor_min": min(factor),
        "speed_factor_max": max(factor),
        "cpu_ops_per_s": n_ops / statistics.median(cycle_sums(cpu, n_ops)),
        "cpu_latency_p50_ms": hd_quantile(cpu, 0.5) * 1e3,
        "cpu_latency_p90_ms": hd_quantile(cpu, 0.9) * 1e3,
        "cpu_setup_s": statistics.median(setup["cpu"]),
        "wall_ops_per_s": len(lat) / loop["loop_wall"],
        "wall_latency_p50_ms": hd_quantile(wall, 0.5) * 1e3,
        "wall_latency_p90_ms": hd_quantile(wall, 0.9) * 1e3,
        "wall_setup_s": statistics.median(setup["wall"]),
        "cpu_share_of_wall": sum(cpu) / loop["loop_wall"],
        "timed_wall_s": loop["loop_wall"],
        "cycle_s": cycles,
        "latencies_s": lat,
        "latencies_cpu_s": cpu,
        "latencies_wall_s": wall,
        "reference_cpu_s": loop["ref"],
        "setup_samples": setup,
    }
    return metrics, notes


def per_layer(runner: Runner, wl: workloads.Workload) -> tuple:
    n_ops = len(wl.ops)
    untraced = n_ops / sum(runner.run(i)[0] for i in range(n_ops))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = n_ops / sum(runner.run(i, tracer)[0] for i in range(n_ops))
    finally:
        tracer.uninstall()
    op_cells = {i: wl.configs[op.cid].n for i, op in enumerate(wl.ops)}
    values = tracing.reduce_spans(tracer.spans(), tracer.counts(), tracer.records, op_cells)
    values["trace.untraced_ops_per_s"] = untraced
    values["trace.traced_ops_per_s"] = traced
    values["trace.overhead_share"] = 1.0 - traced / untraced
    metrics = {k: (v, tracing.unit(k)) for k, v in values.items()}
    notes = {
        "ops_per_cycle": n_ops,
        "spans": len(tracer.start_col),
        "counts_outside_spans": tracer.counts_outside_spans,
    }
    return metrics, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mospaces" / "__init__.py").is_file():
        print(f"error: no mospaces sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.generate(args.workload, args.seed)
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for cfg in wl.configs.values():
            (workdir / f"{cfg.cid}.json").write_text(json.dumps(cfg.body))
        warm = wl.warmup_index
        setup = None if args.trace else measure_setup(setup_argv(args.workload, workdir))

        sys.path.insert(0, str(SRC))
        import mospaces.cli as mod_cli
        import mospaces.grid as mod_grid
        import mospaces.musielak as mod_musielak

        if not Path(mod_cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported mospaces from {mod_cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = Runner(wl, workdir, mod_cli.main)
        runner.run(warm)  # untimed warm-up, also compared with its timed runs
        runner.attempts.clear()
        tracer = None
        if args.trace:
            metrics, notes, tracer = per_layer(runner, wl)
        else:
            metrics, notes = end_to_end(timed_loop(runner, args.seconds), setup)
        runner.check(sup_oracle(mod_cli, mod_musielak, mod_grid))
        attempted, failed = runner.tally()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = run_facts()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    problems = {f"{i}:{wl.ops[i].key}": msgs for i, msgs in sorted(runner.problems.items())}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / "traces" / f"{tag}.spans.gz")

    print(f"# {tag}: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print("# " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in notes.items() if not isinstance(v, (list, dict))))
    for key, msgs in problems.items():
        print(f"# FAILED {key}: {'; '.join(msgs)}")
    share = failed / attempted
    print(f"failed_share = {share:.6g} ratio  (failed {failed} of {attempted} attempted ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
