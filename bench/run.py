"""Benchmark of the sparsethresh CLI: end-to-end metrics, or per-layer ones.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 bench/run.py --workload smin-mub7 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

One client runs one CLI command after another (a closed loop) through
``sparsethresh.cli.main`` in this process, on a dictionary file the
benchmark writes under ``.bench_out/<workload>/``.  Every command's outputs
are checked; a nonzero exit code, an exception or a failed check counts as
a failed command.

``--trace 0`` reports the end-to-end metrics with tracing off, their times
scaled to one host speed by an interleaved calibration loop (see
``calibrate``).  ``--trace 1``
alternates untraced and traced passes of the same commands (see
``tracing.py``) and reports the per-layer metrics and the tracing overhead;
spans are written to ``.bench_out/<workload>/spans.csv``.  ``--workload
all`` runs every workload in a fresh process and prints one table.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See WORKLOADS.md for why each
workload exists and which metric each layer should move.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
DEFAULT_SEED = 0
MIN_PASSES = 2
SETUP_BUDGET_S = 3.0
SETUP_BLOCK_S = 0.1
SETUP_MIN_BLOCKS = 8
CAL_ITERS = 1000
# What calibrate() takes on the 2-vCPU Xeon VM the benchmark was made on, in
# its faster phases: scaled times read as seconds on that host at that speed.
CAL_REF_S = 0.065
TRACE_SHARE = 0.8  # of --seconds, for the paired untraced and traced passes
SOLVE_SETUP_REPS = 200
FANOUT_WORKERS = 2
FANOUT_REPS = 3
BOOTSTRAP_REPS = 7

def _import_package():
    """Import sparsethresh from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "sparsethresh" / "__init__.py").is_file():
        raise SystemExit(f"error: no sparsethresh package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import sparsethresh

    if Path(sparsethresh.__file__).resolve().parent != SRC / "sparsethresh":
        raise SystemExit(f"error: imported sparsethresh from {sparsethresh.__file__}")


def _metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ============================================================
# one workload in this process
# ============================================================


class Runner:
    """Runs one workload's commands at one seed, checks them and keeps the counts."""

    def __init__(self, workload, seed: int, work_name: str | None = None):
        from sparsethresh import dictionary

        self.w = workload
        self.seed = seed
        self.work = OUT_ROOT / (work_name or workload.name)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.dict_path = str(self.work / workload.dict_file)
        self.D = workload.build(seed)
        dictionary.save_dictionary(self.D, self.dict_path)
        self.out = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.cpu: list[float] = []  # process CPU seconds of every command run
        self.reference: dict[int, dict[str, str]] = {}  # part -> sha256s

    def run(self, part: int, workers: int = 1) -> float:
        """Run one part once, check it, and return its wall time in seconds."""
        from sparsethresh import cli

        argv = self.w.argv(self.dict_path, str(self.out), self.seed, part)
        if workers != 1:
            argv[argv.index("--threads") + 1] = str(workers)
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        code, problems = None, []
        start, cpu_start = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:
            problems.append(traceback.format_exc())
        elapsed = perf_counter() - start
        self.cpu.append(process_time() - cpu_start)
        if code != 0 and not problems:
            problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
        if not problems:
            problems = self._check(part)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {self.w.name} {' '.join(argv)}: {problem}", file=sys.stderr)
        return elapsed

    def _check(self, part: int) -> list[str]:
        try:
            problems = self.w.check(str(self.out), self.seed, part)
            hashes = {f"{part}/{f}": _sha256(self.out / f) for f in self.w.hashed}
        except Exception as exc:
            return [f"unreadable output: {exc!r}"]
        first = self.reference.setdefault(part, hashes)
        if hashes != first:
            problems.append(f"bytes differ from the first run of part {part}")
        return problems

    def run_pass(self) -> list[float]:
        """Every part once, in order; the wall time of each."""
        return [self.run(part) for part in range(self.w.pass_commands)]

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())

    def outputs_record(self) -> dict:
        """sha256 of a pass at the default seed, against golden.json.

        The pass runs before any measured one, so it is also the warm-up.
        At another seed it runs on its own copy of the inputs, and its
        commands count as attempted (and failed) here too.
        """
        if self.seed == DEFAULT_SEED:
            self.run_pass()
            hashes = self.reference
        else:
            default = Runner(self.w, DEFAULT_SEED, f"{self.w.name}-seed{DEFAULT_SEED}")
            default.run_pass()
            self.attempted += default.attempted
            self.failed += default.failed
            hashes = default.reference
        hashes = {k: v for part in sorted(hashes) for k, v in hashes[part].items()}
        golden = json.loads((BENCH_DIR / "golden.json").read_text()).get(self.w.name)
        return {
            "default_seed": DEFAULT_SEED,
            "sha256": hashes,
            "outputs_changed": None if golden is None else hashes != golden,
        }


_CAL_MATRIX = np.random.default_rng([7, 12]).standard_normal((7, 24)).view(np.complex128)


def calibrate() -> float:
    """Seconds of a fixed loop of small complex Gram, eigvalsh and spectral-norm
    calls, the same kind of work as the package's trials and solves.

    The host's speed moves between levels about 1.6x apart, in phases of
    seconds to minutes, so a bare wall time says more about the phase than
    about the program.  This loop is the benchmark's own code: a change to
    the package cannot move it, only the host can.
    """
    a = _CAL_MATRIX
    start = perf_counter()
    for _ in range(CAL_ITERS):
        g = a.conj().T @ a
        np.fill_diagonal(g, 0)
        np.linalg.eigvalsh(g)
        np.linalg.norm(g, 2)
    return perf_counter() - start


class SpeedScale:
    """Rescales wall times to the host speed at which ``calibrate()`` takes CAL_REF_S.

    ``scale(elapsed)`` is called right after timing something that ran
    right after the previous calibration; it calibrates again and scales
    by the mean of the calibrations on either side.
    """

    def __init__(self):
        self.cal = [calibrate()]

    def scale(self, elapsed: float) -> float:
        self.cal.append(calibrate())
        return elapsed * CAL_REF_S / (0.5 * (self.cal[-2] + self.cal[-1]))


def measure_setup(dict_path: str, speed: SpeedScale) -> tuple[list[float], list[float]]:
    """Raw and scaled times of load_dictionary + analyze, after one warm-up.

    Repeats run in blocks of about SETUP_BLOCK_S (one repeat when a repeat
    takes longer) between calibrations; a block's figure is the median of
    its repeats.
    """
    from sparsethresh import dictionary

    dictionary.analyze(dictionary.load_dictionary(dict_path))
    speed.scale(0.0)
    raw, scaled = [], []
    deadline = perf_counter() + SETUP_BUDGET_S
    while len(raw) < SETUP_MIN_BLOCKS or perf_counter() < deadline:
        block = []
        block_end = perf_counter() + SETUP_BLOCK_S
        while not block or perf_counter() < block_end:
            start = perf_counter()
            dictionary.analyze(dictionary.load_dictionary(dict_path))
            block.append(perf_counter() - start)
        raw.append(_median(block))
        scaled.append(speed.scale(raw[-1]))
    return raw, scaled


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Mean scaled time of a pass, and of a set-up block.

    Every pass runs the same commands on the same inputs, so each pass does
    the same work, its slowest solves included, and the mean over passes
    counts every solve of the run.  Each command's wall time is scaled by
    the calibrations on either side of it (``SpeedScale``); a pass's figure
    is the sum over its commands.  Per-pass process CPU time tracked wall
    time within 2% on the 2-vCPU VM the benchmark was made on, so CPU
    timing would not remove the host's phases.  ``times.json`` keeps the raw wall and CPU seconds and every
    calibration.
    """
    speed = SpeedScale()
    setup_raw, setup = measure_setup(runner.dict_path, speed)
    first = len(runner.cpu)
    passes, scaled = [], []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append([])
        scaled.append(0.0)
        for part in range(runner.w.pass_commands):
            passes[-1].append(runner.run(part))
            scaled[-1] += speed.scale(passes[-1][-1])
    n = runner.w.pass_commands
    cpu = [runner.cpu[i:i + n] for i in range(first, len(runner.cpu), n)]
    (runner.work / "times.json").write_text(json.dumps({
        "setup": setup_raw, "passes": passes, "cpu": cpu, "calibrations": speed.cal,
    }))
    print(f"raw means: pass {statistics.fmean(sum(p) for p in passes):.6g} s, "
          f"set-up {statistics.fmean(setup_raw):.6g} s; calibration mean "
          f"{statistics.fmean(speed.cal):.6g} s against CAL_REF_S {CAL_REF_S} s")
    wall_s = statistics.fmean(scaled)
    return {
        "wall_s": wall_s,
        "trials_per_s": runner.w.units / wall_s,
        "setup_s": statistics.fmean(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ============================================================
# traced run
# ============================================================


def per_layer(runner: Runner, seconds: float, names) -> dict:
    from tracing import Tracer

    w = runner.w
    tracer = Tracer(count_linalg=w.count_linalg)
    untraced, passes, commands = [], [], []  # passes: (seconds, start mark, end mark)
    deadline = perf_counter() + TRACE_SHARE * seconds
    while len(passes) < 2 or perf_counter() < deadline:
        # untraced and traced passes alternate, so both see the same machine
        untraced.append(sum(runner.run_pass()))
        with tracer:
            start_mark, elapsed = tracer.mark(), 0.0
            for part in range(w.pass_commands):
                lo = len(tracer.spans)
                elapsed += runner.run(part)
                commands.append((lo, len(tracer.spans)))
            passes.append((elapsed, start_mark, tracer.mark()))

    self_times = tracer.self_times()
    tracer.write_csv(runner.work / "spans.csv", self_times)
    metrics = dict.fromkeys(names, 0.0)

    # counts per pass must repeat exactly
    def counts(start, end):
        solves = tracer.outcomes[start[1]:end[1]]
        return (
            sum(o[0] for o in solves),
            sum(not o[1] for o in solves),
            end[2] - start[2],
        )

    per_pass = [counts(start, end) for _, start, end in passes]
    if any(c != per_pass[0] for c in per_pass):
        runner.failed += 1
        print(f"FAIL {w.name}: traced counts differ between passes: {per_pass}", file=sys.stderr)
    iters_total, nonconverged, lapack = per_pass[0]
    draws = w.units if w.count_linalg else 0

    ms = [1e3 * d for d in tracer.durations("recovery.solve_bp")]
    iters = [o[0] for o in tracer.outcomes]
    n_solves = len(tracer.outcomes)
    metrics.update({
        "dictionary.load_s": _median(tracer.durations("dictionary.load_dictionary")),
        "dictionary.analyze_s": _median(tracer.durations("dictionary.analyze")),
        "dictionary.coherence_s": _median(
            tracer.child_sums("dictionary.analyze", "dictionary.coherence")
        ),
        "dictionary.gram_bytes": runner.D.N**2 * 16,
        "threshold.search_ms": 1e3 * _median(
            tracer.durations("threshold.max_sparsity_search")
        ),
        "rng.derive_us": 1e6 * _median(tracer.durations("rng.derive_rng")),
        "model.support_draw_us": 1e6 * _median(tracer.durations("model.sample_support_b")),
        "model.instance_us": 1e6 * _median(tracer.durations("model.sample_instance")),
        "concentration.extract_us": 1e6 * _median(
            tracer.durations("concentration.extract_subdictionary")
        ),
        "concentration.chain_us": 1e6 * _median(
            tracer.self_durations("concentration.hollow_gram_chain", self_times)
        ),
        "concentration.sigma_min_us": 1e6 * _median(
            tracer.durations("concentration.sigma_min")
        ),
        "concentration.linalg_calls_per_draw": lapack / draws if draws else 0.0,
        "recovery.iters_total": iters_total,
        "recovery.nonconverged": nonconverged,
        "cli.csv_rows_ms": 1e3 * _median(
            [sum(tracer.durations("cli.csv_rows", lo, hi)) for lo, hi in commands]
        ),
        "svg.render_ms": 1e3 * _median(
            [sum(tracer.durations("svg.", lo, hi)) for lo, hi in commands]
        ),
        "cli.artifact_bytes": runner.artifact_bytes(),
        "trace.overhead_frac": _median(
            [p[0] / u for p, u in zip(passes, untraced)]
        ) - 1.0,
    })
    if n_solves:
        metrics.update({
            "recovery.solve_ms_p50": _median(ms),
            "recovery.solve_ms_p99": float(np.percentile(ms, 99)),
            "recovery.solve_ms_max": max(ms),
            "recovery.us_per_iter": 1e3 * sum(ms) / sum(iters),
            "recovery.iters_p50": _median(iters),
            "recovery.iters_max": max(iters),
            "recovery.converged_ratio": sum(o[1] for o in tracer.outcomes) / n_solves,
            "recovery.success_ratio": sum(o[2] for o in tracer.outcomes) / n_solves,
        })
    if "fanout" in w.probes:
        metrics["concentration.fanout_speedup_w2"] = _fanout_speedup(runner)
    if "bootstrap" in w.probes:
        metrics["concentration.bootstrap_s"] = _bootstrap_seconds(runner)
    if "solve_setup" in w.probes:
        metrics["recovery.solve_setup_ms"] = _solve_setup_ms(runner)
    return metrics


def _fanout_speedup(runner: Runner) -> float:
    """Untraced one-worker wall over the wall at min(2, nproc) workers.

    ``run`` compares the pooled run's CSV bytes against the one-worker
    bytes of the same seed, so a difference is a failed command.
    """
    workers = min(FANOUT_WORKERS, os.cpu_count() or 1)
    single, pooled = [], []
    for _ in range(FANOUT_REPS):
        single.append(runner.run(0))
        pooled.append(runner.run(0, workers=workers))
    return _median(single) / _median(pooled)


def _bootstrap_seconds(runner: Runner) -> float:
    """Fastest untraced estimate_moment at n_boot=1000 minus the fastest at n_boot=1.

    The estimate is the ``moments`` command's: q = 8, n_a = 2, n_b = 3,
    MUB7_TRIALS trials on the workload's dictionary.  The two alternate,
    so both see the same machine; the minimum of each side is the figure
    that slow phases of the machine move least.
    """
    from sparsethresh import concentration
    from workloads import MUB7_TRIALS, command_seed

    seed = command_seed(runner.seed, runner.w.name)
    times = {1000: [], 1: []}
    for _ in range(BOOTSTRAP_REPS):
        for n_boot in times:
            start = perf_counter()
            concentration.estimate_moment(
                runner.D, 2, 3, 8.0, MUB7_TRIALS, master_seed=seed, n_boot=n_boot
            )
            times[n_boot].append(perf_counter() - start)
    return min(times[1000]) - min(times[1])


def _solve_setup_ms(runner: Runner) -> float:
    """solve_bp capped at one iteration: the pseudoinverse and projection setup."""
    from sparsethresh import recovery

    D = runner.D
    y = D.matrix[:, [0, D.Na + 1]] @ np.array([1.0, 1.0j])
    cfg = recovery.BpSolverConfig(max_iterations=1)
    times = []
    for _ in range(SOLVE_SETUP_REPS):
        start = perf_counter()
        recovery.solve_bp(D, y, cfg)
        times.append(perf_counter() - start)
    return 1e3 * _median(times)


# ============================================================
# environment
# ============================================================


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy has loaded, if it can be asked."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model,
        "caches": caches,
    }


# ============================================================
# entry points
# ============================================================


def run_one(args) -> dict:
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[args.workload], args.seed)
    units = _metric_units("per_layer" if args.trace else "end_to_end")
    record = runner.outputs_record()
    if args.trace:
        metrics = per_layer(runner, args.seconds, units)
    else:
        metrics = end_to_end(runner, args.seconds)
    if set(metrics) != set(units):
        raise SystemExit(
            f"error: measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}"
        )
    print(json.dumps({"env": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "outputs": record}))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} commands, {runner.failed} failed, "
          f"error_rate {runner.failed / runner.attempted:.4g} ratio")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a fresh process, so peak RSS is the workload's own."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_package()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
