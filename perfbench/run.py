"""cascade-at benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cascade-at source tree (it needs ``src/cascade_at``).
NAME is one of the workloads in ``BENCHMARK.json`` or ``all``.  The run
repeats the workload for S seconds in one child process (runner.py), with
fresh set-up calls between the repetitions, checks every repetition's
outputs and prints the metrics; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
ends with one extra repetition under span tracing and reports the
per-layer metrics.  A record of the run (machine, versions, seed, thread
settings, samples, output SHA-256s and failed checks) is written to
``.perfbench/results/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Pinned program environment (see README.md): one sweep/chunk worker with
# one BLAS thread.  Two GIL-bound workers on a shared 2-core machine turn
# every stall of the other core into waiting, which doubled the wall-time
# spread of the threshold surface.
WORKERS = 1
BLAS_THREADS = 1
THREAD_ENV = {"CASCADE_AT_THREADS": str(WORKERS),
              "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
              "OMP_NUM_THREADS": str(BLAS_THREADS)}
# fresh `cascade-at preset case-a` calls after each repetition, spread over
# the whole run so that their median does not hang on one phase of the machine
SETUP_PER_REP = 2
# The shared machine switches between a fast and a ~1.7x slower phase every
# few seconds to minutes; every call is timed at least twice.
MIN_REPS = 2
RUN_LIMIT_S = 170.0
# runner.reference_kernel's duration on the reference machine in a fast
# phase; times are reported as if the machine ran at that speed
REFERENCE_NOMINAL_S = 0.030
CHILD_TIMEOUT_S = 150.0


class Refused(Exception):
    """The benchmark cannot run here; nothing is measured."""


class Child:
    """Result of one child process: exit code and wall seconds."""

    def __init__(self, argv, env, cwd, timeout):
        stderr_path = cwd / ".perfbench" / "child.stderr"
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        reaped = None
        try:
            # a pidfd turns readable when the child exits: an exact, lock-free wait
            fd = os.pidfd_open(proc.pid)
            try:
                self.timed_out = not select.select([fd], [], [], timeout)[0]
            finally:
                os.close(fd)
            if self.timed_out:
                proc.kill()
            reaped = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        finally:
            if reaped is None:          # interrupted: stop the child and reap it
                proc.kill()
                os.wait4(proc.pid, 0)
        _, status, _ = reaped
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = -1 if self.timed_out else proc.returncode
        self.wall = end - start
        self.stderr = stderr_path.read_text(errors="replace").strip()[-2000:]


class Run:
    """One benchmark invocation: counts operations and failed checks."""

    def __init__(self, root: Path, env: dict, timeout_at: float):
        self.root = root
        self.env = env
        self.timeout_at = timeout_at
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def child(self, argv) -> Child:
        timeout = min(CHILD_TIMEOUT_S, max(1.0, self.timeout_at - time.monotonic()))
        ch = Child(argv, self.env, self.root, timeout)
        self.op(f"call {' '.join(argv[1:4])}", ch.returncode == 0,
                "timed out" if ch.timed_out else ch.stderr)
        return ch


class Worker:
    """The long-lived child (runner.py) that makes a run's repetitions."""

    def __init__(self, run: Run, plan: Path):
        self.run = run
        self.stderr_path = run.root / ".perfbench" / "worker.stderr"
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "runner.py"), str(plan)], env=run.env,
                cwd=run.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True)

    def ask(self, command: str) -> dict | None:
        """Send one command; its reply, or None when the worker died or the
        run's time ran out (a failed operation either way)."""
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        timeout = max(1.0, self.run.timeout_at - time.monotonic())
        line = ""
        if select.select([self.proc.stdout], [], [], timeout)[0]:
            line = self.proc.stdout.readline()
        if not line:
            self.close()
            stderr = self.stderr_path.read_text(errors="replace").strip()[-2000:]
            self.run.op(f"worker {command}", False, stderr or "timed out")
            return None
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _cli_argv(args):
    return [sys.executable, "-m", "cascade_at", *args]


def setup_sample(run: Run, work: Path) -> float:
    """Wall time of one fresh `python -m cascade_at preset case-a`."""
    out = work / "setup.ini"
    ch = run.child(_cli_argv(["preset", "case-a", "--out", str(out)]))
    text = out.read_text() if out.exists() else ""
    run.op("setup output is a scenario", "[levels]" in text and "[scan]" in text)
    out.unlink(missing_ok=True)
    return ch.wall


def fetch_presets(run: Run, name: str, work: Path) -> dict:
    presets = {}
    for case in workloads.PRESETS[name]:
        out = work / f"preset-{case}.ini"
        run.child(_cli_argv(["preset", case, "--out", str(out)]))
        presets[case] = out.read_text() if out.exists() else ""
    return presets


def repetition(run: Run, worker: Worker, wl: workloads.Workload,
               spans_dir: Path | None = None) -> dict | None:
    """One repetition of the workload's calls in the worker, its outputs
    checked; returns the per-call samples and output SHA-256s."""
    reply = worker.ask(f"trace {spans_dir}" if spans_dir else "run")
    if reply is None:
        return None
    calls = reply["calls"]
    for c in calls:
        run.op(f"call {c['label']}", c["rc"] == 0, f"exit code {c['rc']}")
    outputs = {c.label: c.out.read_bytes() for c in wl.calls if c.out.exists()}
    for name, ok, detail in wl.check(outputs):
        run.op(name, ok, detail)
    return {key: {c["label"]: c[key] for c in calls}
            for key in ("wall", "cpu", "ref", "sha256")}


def _median(vals) -> float:
    return float(statistics.median(vals))


def _mean_rep(reps, key) -> float:
    """Mean over the repetitions of the summed per-call samples ``key``."""
    return statistics.fmean(sum(r[key].values()) for r in reps)


def run_record(root: Path, seed: int, size: str) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root / "src" / "cascade_at"),
        "seed": seed,
        "size": size,
        "thread_env": dict(THREAD_ENV),
    }


def _git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git (the benchmark may
    run in a plain export of the tree, which has no .git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(pkg: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        digest.update(path.relative_to(pkg).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 root: Path, env: dict) -> dict:
    base = root / ".perfbench"
    work = base / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, env, timeout_at=time.monotonic() + RUN_LIMIT_S)

    wl = workloads.build(name, seed, size, work, fetch_presets(run, name, work))
    plan = work / "plan.json"
    plan.write_text(json.dumps({"calls": [
        {"label": c.label, "args": c.args, "out": str(c.out)}
        for c in wl.calls]}))

    setup, reps, traced, rss_mb = [], [], None, None
    worker = Worker(run, plan)
    try:
        if not trace:
            setup_sample(run, work)         # warm-up: fills the bytecode and file caches
        begin = time.perf_counter()
        # A traced run needs only the untraced mean for trace.overhead_s and
        # keeps room for the traced repetition, which takes about as long again.
        min_reps, reserve = (1, 2) if trace else (MIN_REPS, 1)
        while True:
            rep = repetition(run, worker, wl)
            if rep is None:
                break
            reps.append(rep)
            if not trace:
                setup += [setup_sample(run, work) for _ in range(SETUP_PER_REP)]
            elapsed = time.perf_counter() - begin
            next_s = reserve * elapsed / len(reps)
            if time.monotonic() + next_s > run.timeout_at - 10.0:
                break
            if len(reps) >= min_reps and elapsed + next_s > seconds:
                break
        if trace and reps:
            spans_dir = work / "spans"
            spans_dir.mkdir()
            traced = repetition(run, worker, wl, spans_dir)
        if reps:
            done = worker.ask("quit")
            rss_mb = done and done["rss_mb"]
    finally:
        worker.close()

    shas = [r["sha256"] for r in reps + ([traced] if traced else [])]
    if len(shas) > 1:
        run.op("outputs byte-identical across repetitions",
               all(s == shas[0] for s in shas[1:]))

    metrics, raw = {}, {}
    if reps:
        ref_s = statistics.fmean(v for r in reps for v in r["ref"].values())
        raw = {"wall_s": _mean_rep(reps, "wall"), "cpu_s": _mean_rep(reps, "cpu"),
               "setup_s": _median(setup) if setup else None, "reference_s": ref_s}
    if reps and trace and traced:
        import numpy as np
        import tracer

        loaded = []
        for call in wl.calls:
            path = spans_dir / f"{call.label}.npz"
            run.op(f"spans saved to {path.name}", path.exists())
            if path.exists():
                with np.load(path) as npz:
                    loaded.append(({k: npz[k] for k in npz.files},
                                   traced["wall"][call.label]))
        # the untraced time at the traced repetition's machine speed
        traced_ref = statistics.fmean(traced["ref"].values())
        metrics = tracer.layer_metrics(
            loaded, raw["wall_s"] * traced_ref / raw["reference_s"])
    elif reps and not trace and rss_mb:
        # times scaled to the reference speed: see "Machine speed" in README.md
        scale = REFERENCE_NOMINAL_S / raw["reference_s"]
        wall = raw["wall_s"] * scale
        metrics = {
            "wall_s": wall,
            "items_per_s": wl.items / wall,
            "cpu_s": raw["cpu_s"] * scale,
            "setup_s": raw["setup_s"] * scale,
            "peak_rss_mb": rss_mb,
            "passed_frac": (run.attempted - len(run.failures)) / run.attempted,
        }
    if not metrics:
        run.op("metrics measured", False)

    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    record = {"workload": name, "trace": int(trace), "seconds": seconds,
              "record": run_record(root, seed, size), "inputs": wl.inputs,
              "items_per_repetition": wl.items, "repetitions": reps,
              "traced_repetition": traced, "setup_samples_s": setup,
              "unscaled": raw,
              "sha256": shas[0] if shas else None,
              "failures": run.failures, "result": result}
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def _declared(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minimal inputs for the benchmark's self-tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "cascade_at" / "__init__.py").is_file():
            raise Refused("run from the root of a cascade-at source tree "
                          "(src/cascade_at not found)")
        declared = _declared(root)
        names = declared["workloads"] if args.workload == "all" else [args.workload]
        if args.workload not in declared["workloads"] + ["all"]:
            raise Refused(f"unknown workload {args.workload!r}; "
                          f"choose from {declared['workloads']} or 'all'")
        nproc = len(os.sched_getaffinity(0))
        if WORKERS * BLAS_THREADS > nproc:
            raise Refused(f"{WORKERS} workers x {BLAS_THREADS} BLAS threads "
                          f"exceed the {nproc} usable CPUs")
    except (Refused, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    units = declared["layer" if args.trace else "e2e"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.size, root, env)
        for metric, value in res["metrics"].items():
            print(f"{name:22s} {metric:34s} {value:14.6g} {units[metric]}")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
