"""Child process of the benchmark: repeats one workload's calls into
cascade_at's public API inside a single process.

    python3 perfbench/runner.py PLAN.json

PLAN.json holds the calls of one repetition, ``{"calls": [{"label",
"args", "out"}, ...]}``.  Each call is ``cascade_at.cli.run(args)``, the
function behind ``python -m cascade_at``, and writes the file ``out``.

The child imports cascade_at once and then reads one command per line on
standard input, answering each with one JSON line:

``run``
    one repetition: every call in order, each timed (wall and process CPU
    seconds) and followed by the SHA-256 of its output file.
``trace DIR``
    the same under :class:`tracer.Tracer`; each call's spans are saved to
    ``DIR/<label>.npz``.
``quit``
    the peak resident set of the process; then it exits.

Every repetition starts by clearing the ``functools`` caches of cascade_at's
functions, so it does the same work as the first call in a fresh process.
Before each call the child times :func:`reference_kernel`, which measures
the speed of the machine at that moment.
The calls' own standard output goes to the null device.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _call(args) -> int:
    import cascade_at.cli

    try:
        return cascade_at.cli.run(args)
    except Exception:
        traceback.print_exc()
        return 1


def _clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cascade_at" or name.startswith("cascade_at.")):
            continue
        for val in list(vars(mod).values()):
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


def reference_kernel() -> float:
    """Wall seconds of a fixed piece of work made of the operations the
    workloads spend their time in: small-array ``wofz`` and numpy calls,
    batched 9x9 complex solves and Python arithmetic (about 30 ms on the
    reference machine).  It calls nothing in cascade_at, so its duration
    measures the machine's speed at the moment, not the program."""
    import numpy as np
    from scipy.special import wofz

    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 9, 9)) + 1j * rng.standard_normal((16, 9, 9)) + 9 * np.eye(9)
    b = rng.standard_normal((16, 9, 1)) + 0j
    z = np.array([1.0 + 0.5j, 2.0 + 0.1j])
    start = time.perf_counter()
    for i in range(2500):
        np.abs(wofz(z * (1 + i % 7))).sum()
        if i % 8 == 0:
            np.linalg.solve(a, b)
        math.sqrt(i)
    return time.perf_counter() - start


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def repetition(calls, spans_dir: str | None = None) -> dict:
    if spans_dir is not None:
        import numpy as np
        from tracer import Tracer
    _clear_caches()
    out = []
    for call in calls:
        target = Path(call["out"])
        target.unlink(missing_ok=True)
        tracer = Tracer() if spans_dir is not None else None
        ref = reference_kernel()
        with tracer or nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            rc = _call(call["args"])
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            np.savez(Path(spans_dir) / f"{call['label']}.npz", **tracer.spans())
        out.append({"label": call["label"], "wall": wall, "cpu": cpu, "rc": rc,
                    "ref": ref, "sha256": _sha256(target)})
    return {"calls": out}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    calls = json.loads(Path(argv[0]).read_text())["calls"]
    # replies keep the original standard output; the calls' output is dropped
    reply = os.fdopen(os.dup(1), "w")
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.close(null)
    import cascade_at.cli  # noqa: F401  (the import is not part of a repetition)

    for line in sys.stdin:
        cmd, _, arg = line.strip().partition(" ")
        if cmd == "quit":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            reply.write(json.dumps({"rss_mb": usage.ru_maxrss / 1024.0}) + "\n")
            reply.flush()
            return 0
        if cmd not in ("run", "trace"):
            print(f"runner: unknown command {line!r}", file=sys.stderr)
            return 2
        reply.write(json.dumps(repetition(calls, arg if cmd == "trace" else None)) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
