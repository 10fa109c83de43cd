"""fracstep benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload fig3-long --seed 1 --seconds 20 --trace 0

Run from the root of a fracstep checkout; the package is imported from
``src/``.  Each op of the workload is one ``fracstep`` command, run
in-process through ``fracstep.cli.main`` (closed loop, one client: an op
starts when the previous one has finished), or, for the hard
Mittag-Leffler stratum, in a child process under a deadline and an
address-space limit.  Passes over the workload's ops repeat until the
measuring time is used up.

--trace 0 prints the end-to-end metrics; --trace 1 runs one tracemalloc
pass, then untraced passes and traced passes (spans around fracstep's
public functions), and prints the per-layer metrics.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import os

# pin threads before numpy loads OpenBLAS; the harness pool stays serial
os.environ.pop("FRACSTEP_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_PASSES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_CODE = (
    "import sys; sys.path.insert(0, 'src'); from fracstep.cli import main; "
    "sys.exit(main(sys.argv[1:]))"
)


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _environment() -> dict:
    import mpmath
    import numpy

    cpu, l3 = "unknown", "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "fracstep_threads": os.environ.get("FRACSTEP_THREADS"),
        "host_probe_ms": _host_probe(),
    }


def _host_probe(repeats: int = 30) -> dict:
    """Min and median time of a fixed pure-Python loop.

    A shared host can run this process's code 2x slower or more for
    minutes at a time; a median well above the min marks such a run.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i & 7
        times.append((time.perf_counter() - start) * 1e3)
    return {"min": round(min(times), 3), "median": round(statistics.median(times), 3)}


def _setup_once(args, work: Path) -> float:
    """Wall time of a fresh interpreter that imports fracstep and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--setup-only", str(work / "setup")]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - start


def _run_child(op, deadline: float, memory_bytes: int):
    from workloads import Outcome

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD_CODE, *op.argv], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limit_memory,
    )
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - start, Outcome(False, detail=f"overran {deadline} s", kind="overrun")
    elapsed = time.perf_counter() - start
    if proc.returncode == 1 and err.startswith("error: "):
        return elapsed, Outcome(True, detail=err.strip(), kind="rejected")
    last = (err.strip().splitlines() or [""])[-1]
    if proc.returncode < 0 or last.split(":", 1)[0].endswith("MemoryError"):
        # a signal (the deadline's kill is handled above) or the address-space cap
        return elapsed, Outcome(False, detail=f"exit {proc.returncode}: {last}", kind="killed")
    return elapsed, _judge(op, proc.returncode, out, last)


def _judge(op, code: int, stdout: str, stderr: str):
    """Outcome of a command that exited by itself with ``code``."""
    from workloads import Outcome

    if code != op.expect_exit:
        return Outcome(False, detail=f"exit {code}, expected {op.expect_exit}: {stderr.strip()}")
    try:
        return op.check(stdout, op.out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(False, detail=f"unreadable output: {exc!r}")


def _run_op(op):
    """(seconds the command took, Outcome)."""
    import fracstep.cli
    import workloads

    if op.child:
        return _run_child(op, workloads.HARD_DEADLINE_S, workloads.HARD_MEMORY_BYTES)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fracstep.cli.main(op.argv)
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        return time.perf_counter() - start, workloads.Outcome(False, detail=f"raised {exc!r}")
    elapsed = time.perf_counter() - start
    return elapsed, _judge(op, code, out.getvalue(), err.getvalue())


def _passes(ops, seconds: float, after_op=None, after_pass=None) -> list:
    """Repeat passes over ``ops`` while another pass fits in ``seconds``.

    Returns one list of (seconds, Outcome) per pass, at least MIN_PASSES.
    Check time, and ``after_pass(seconds elapsed)``, count toward the
    budget but not toward the op's seconds.
    """
    start = time.perf_counter()
    passes = []
    while True:
        begin = time.perf_counter()
        records = []
        for op in ops:
            records.append(_run_op(op))
            if after_op is not None:
                after_op(op)
        passes.append(records)
        if after_pass is not None:
            after_pass(time.perf_counter() - start)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - begin) > seconds:
            return passes


def _tail(samples: list) -> tuple:
    """Highest ladder percentile with at least 10 samples beyond it, or the max."""
    for pct in TAIL_LADDER:
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return cuts[round(pct * 10) - 1], f"p{pct:g}"
    return max(samples), "max"


def _best(passes: list) -> list:
    """Each op's fastest time over the passes.

    The host's speed swings by 2x or more, in bursts and in phases of
    minutes (seen on a shared 2-core VM, in process time as well as wall
    time), so a whole pass rarely misses them all; the fastest run of
    each op follows the code.
    """
    return [min(p[i][0] for p in passes) for i in range(len(passes[0]))]


def _summarize(passes: list) -> tuple:
    records = [r for p in passes for r in p]
    failed = [o for _, o in records if not o.ok]
    correct = not any(o.kind == "wrong" for o in failed)
    return records, failed, correct


def _report(metrics: dict, env: dict, failed: list, correct: bool, attempted: int) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    failures = {}
    for o in failed:
        failures.setdefault((o.kind, o.detail), 0)
        failures[(o.kind, o.detail)] += 1
    for (kind, detail), count in sorted(failures.items()):
        print(f"failed op x{count}: {kind}: {detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))


def _end_to_end(args, ops, work: Path, env: dict) -> None:
    setup = []

    def sample_setup(elapsed):
        # spread over the run, so the samples meet the same host phases as the passes
        while len(setup) < SETUP_REPEATS * min(1.0, elapsed / max(args.seconds, 1e-9)):
            setup.append(_setup_once(args, work))

    passes = _passes(ops, args.seconds, after_pass=sample_setup)
    sample_setup(args.seconds)
    records, failed, correct = _summarize(passes)
    best = _best(passes)
    op_ms = [seconds * 1e3 for seconds in best]
    tail, pct = _tail(op_ms)
    errors = [o.error for _, o in records if o.error is not None]
    single = "; one op, so this is wall_s" if len(ops) == 1 else ""
    metrics = {
        "wall_s": (sum(best), "s", f"sum over {len(ops)} ops of each op's fastest of {len(passes)} passes"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters: import fracstep, build inputs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "this process"),
        "op_p50_ms": (statistics.median(op_ms), "ms", f"median over n={len(op_ms)} ops of each op's best pass{single}"),
        "op_tail_ms": (tail, "ms", f"{pct} over n={len(op_ms)} ops of each op's best pass{single}"),
        "max_abs_error": (max(errors, default=0.0), "abs", f"over {len(errors)} checked outputs"),
        "ok_ops_ratio": (1.0 - len(failed) / len(records), "ratio",
                         f"failed_ops_ratio={len(failed) / len(records):.6g} ({len(failed)} of {len(records)})"),
    }
    _report(metrics, env, failed, correct, len(records))


def _per_layer(args, ops, work: Path, env: dict) -> None:
    import tracing

    start = time.perf_counter()
    allocations = tracing.RunAllocations()
    allocations.install()
    try:
        for op in ops:
            if op.uses_solver:
                _run_op(op)
    finally:
        allocations.uninstall()
    # the slow tracemalloc pass comes out of the measuring time
    half = max(0.0, args.seconds - (time.perf_counter() - start)) / 2.0
    plain = _passes(ops, half)
    tracer = tracing.Tracer()
    written = {}

    def count_bytes(op):
        written[op.out_dir] = sum(f.stat().st_size for f in op.out_dir.iterdir() if f.is_file())

    tracer.install()
    try:
        traced = _passes(ops, half, after_op=count_bytes)
    finally:
        tracer.uninstall()

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
    overhead = sum(_best(traced)) - sum(_best(plain))
    metrics = tracing.layer_metrics(
        tracer.spans, len(traced), float(sum(written.values())), allocations.peaks, overhead
    )
    records, failed, correct = _summarize(plain + traced)
    _report(metrics, env, failed, correct, len(records))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fracstep" / "__init__.py").is_file():
        print(f"error: no fracstep sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 1
    if args.setup_only:
        import fracstep.cli  # noqa: F401 - the import is part of set-up

        workloads.build(args.workload, args.seed, Path(args.setup_only))
        return 0

    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        import fracstep.cli  # noqa: F401

        env = _environment()
        ops = workloads.build(args.workload, args.seed, work / "ops")
        for op in ops:
            if op.prepare is not None:
                op.prepare()
        if args.trace:
            _per_layer(args, ops, work, env)
        else:
            _end_to_end(args, ops, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
