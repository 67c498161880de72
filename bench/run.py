#!/usr/bin/env python3
"""kolmo benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload {codebook,search,clamp} --seed N --seconds S --trace {0,1}

Run from a checkout; kolmo is imported from its ``src`` directory.  The
run sets up (import, seeded inputs, enumeration warm-up), then runs
operations back to back in this single-threaded process for ``--seconds``
seconds, checking every output off the clock, replays the reference
operations whose output digests were recorded at the seed commit, and
prints one JSON line last:

* ``--trace 0``: the end-to-end metrics of the timed run;
* ``--trace 1``: the timed run again, then a fixed round of traced
  operations whose per-layer metrics are printed, plus the tracing
  slowdown.  Spans and counts go to ``bench/out/``.

Times are scaled by a calibration kernel (see ``kernel_s``).
``setup_s`` is the median over set-ups, most in fresh interpreters.
Nothing is read or written outside the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace as Phase

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "reference_digests.json"

SETUP_SAMPLES = 5          # one in this process, the rest in fresh interpreters
KERNEL_REF_S = 0.003       # calibration kernel time that times are scaled to
POOL_ROUNDS = 8            # rounds generated during set-up; more are drawn untimed if needed
TRACED_ROUNDS = 1
REFERENCE_SEED = 1
REFERENCE_ROUNDS = 1
WORKLOADS = ("codebook", "search", "clamp")


class _Pair:
    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int):
        self.num = num
        self.exp = exp

    def gt(self, other: "_Pair") -> bool:
        return (self.num << other.exp) > (other.num << self.exp)


def kernel_s() -> float:
    """Seconds a fixed slice of interpreter work takes right now: small
    objects compared through shifted big ints, then dicts of tuples and a
    keyed sort, the two kinds of work kolmo's layers spend their time on.

    The machine's speed drifts by a quarter or more over tens of seconds
    when other tenants load it, and that drift would swamp any change
    the benchmark exists to see.  Every timed interval is therefore
    scaled by KERNEL_REF_S / (kernel time measured around it); the
    kernel is benchmark code, so no change to kolmo moves it.
    """
    t = time.perf_counter()
    xs = [_Pair(i * 2654435761 % 1000003, i % 17) for i in range(800)]
    c = 0
    for i in range(1, len(xs)):
        for j in range(max(0, i - 6), i):
            c += xs[i].gt(xs[j])
    d = {}
    for i in range(2500):
        d[(i, i * 7 % 13, i << 40)] = (i * i) >> 3
    for k, v in sorted(d.items(), key=lambda kv: kv[1]):
        c ^= hash(k) + v
    return time.perf_counter() - t


def scaled(seconds: float, kernels: list[float]) -> float:
    return seconds * KERNEL_REF_S / statistics.median(kernels)


def setup(workload: str, seed: int):
    """Import kolmo, generate and parse the seeded inputs, warm the
    enumeration.  Returns (seconds, workload, timed rng, timed rounds,
    traced rounds)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "kolmo" / "__init__.py").is_file():
        raise SystemExit(f"error: no kolmo sources under {src}")
    sys.path.insert(0, str(src))
    import kolmo
    if Path(kolmo.__file__).resolve().parent != (src / "kolmo").resolve():
        raise SystemExit(f"error: imported kolmo from {kolmo.__file__}, not from {src}")
    import ops

    work = OUT / f"work-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = ops.WORKLOADS[workload](work)
    rng = random.Random(seed)
    pool = [w.round(rng) for _ in range(POOL_ROUNDS)]
    traced_rng = random.Random(f"traced:{seed}")
    traced = [w.round(traced_rng) for _ in range(TRACED_ROUNDS)]
    # the generated inputs live as long as the run; keep the collector from
    # walking them, so kolmo's collections cost what they would without us
    gc.freeze()
    w.warm()
    return time.perf_counter() - t0, w, rng, pool, traced


def calibrated_setup(workload: str, seed: int):
    """``setup`` with its time scaled by kernels run just before and after."""
    before = [kernel_s() for _ in range(5)]
    secs, *rest = setup(workload, seed)
    return (scaled(secs, before + [kernel_s() for _ in range(5)]), *rest)


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_ops(w, rounds, seconds=None, rng=None, tracer=None, after=None) -> Phase:
    """Run whole rounds of operations back to back.  With ``seconds``,
    start rounds until that much time has passed, drawing new rounds
    from ``rng`` (off the clock) once ``rounds`` is used up; ending on a
    round boundary keeps the mix of operations the same in every run.

    ``after(op, result)`` runs off the clock once an operation returns
    and gives its check errors; by default it is ``w.check``, and the
    result is then dropped, so memory does not grow with the number of
    operations.  Returns the scaled latency of each completed operation
    (see ``kernel_s``), the raw latencies, the round of each, how many
    completed operations wrote tape, one error line per failed operation
    and the number attempted."""
    after = after or w.check
    ph = Phase(lat=[], raw=[], round=[], tape=0, errors=[], attempted=0)
    kernels = []
    rounds = list(rounds)
    paused = 0.0
    start = time.perf_counter()
    n = 0
    while rounds if seconds is None else time.perf_counter() - start - paused < seconds:
        t = time.perf_counter()
        if not rounds:
            rounds.append(w.round(rng))
        paused += time.perf_counter() - t
        n += 1
        for op in rounds.pop(0):
            ph.attempted += 1
            t = time.perf_counter()
            kernel = kernel_s()
            paused += time.perf_counter() - t
            t0 = time.perf_counter_ns()
            try:
                result = tracer.operation(w.run, op) if tracer else w.run(op)
            except Exception as err:   # a failed operation is counted, not fatal
                ph.errors.append(f"op {op.serial} ({op.kind}) raised {type(err).__name__}: {err}")
                continue
            ph.raw.append((time.perf_counter_ns() - t0) / 1e9)
            ph.round.append(n)
            kernels.append(kernel)
            ph.tape += w.tape_writing(op)
            t = time.perf_counter()
            errs = after(op, result)
            if errs:
                ph.errors.append(f"op {op.serial} ({op.kind}): " + "; ".join(errs[:3]))
            paused += time.perf_counter() - t
    # each operation is scaled by the kernels of its two neighbours on either side
    ph.lat = [scaled(x, kernels[max(0, i - 2):i + 3]) for i, x in enumerate(ph.raw)]
    return ph


def reference(workload: str, work: Path) -> tuple[Phase, list[str]]:
    """Replay and check the reference round; returns the phase and the
    sha256 of each operation's output."""
    import ops
    w = ops.WORKLOADS[workload](work)
    rng = random.Random(REFERENCE_SEED)
    digests = []

    def check_and_digest(op, result):
        digests.append(hashlib.sha256(w.canon(op, result).encode()).hexdigest())
        return w.check(op, result)

    phase = run_ops(w, [w.round(rng) for _ in range(REFERENCE_ROUNDS)], after=check_and_digest)
    return phase, digests


def throughput(ph: Phase) -> float:
    """Median over rounds of completed operations per scaled second.
    Every round holds the same mix, so the rounds are comparable, and a
    median ignores the odd round a burst of outside load slowed in a way
    the kernel did not see."""
    per_round: dict[int, list[float]] = {}
    for n, x in zip(ph.round, ph.lat):
        per_round.setdefault(n, []).append(x)
    return statistics.median(len(v) / sum(v) for v in per_round.values())


def tail(lat_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples
    beyond it, and that percentile."""
    s = sorted(lat_ms)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this commit's reference digests for the workload")
    args = ap.parse_args(argv)

    if args.setup_only:
        print(calibrated_setup(args.workload, args.seed)[0])
        return 0

    setup_s, w, rng, pool, traced_rounds = calibrated_setup(args.workload, args.seed)
    setup_samples = [setup_s] + [setup_in_child(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]

    timed = run_ops(w, pool, args.seconds, rng)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops_per_s = throughput(timed)
    tape_frac = timed.tape / len(timed.lat)
    phases = [timed]

    if args.trace:
        from tracing import Tracer, unit
        tracer = Tracer()
        results = []
        tracer.install()
        try:
            traced = run_ops(w, traced_rounds, tracer=tracer, after=lambda op, r: results.append((op, r)))
        finally:
            tracer.uninstall()
        for op, result in results:   # checked once the wrappers are gone
            errs = w.check(op, result)
            if errs:
                traced.errors.append(f"op {op.serial} ({op.kind}): " + "; ".join(errs[:3]))
        phases.append(traced)

    ref, digests = reference(args.workload, w.work)
    phases.append(ref)
    shutil.rmtree(w.work, ignore_errors=True)
    if args.record_digests:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded.update(seed=REFERENCE_SEED, rounds=REFERENCE_ROUNDS, **{args.workload: digests})
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    errors = [e for ph in phases for e in ph.errors]
    expected = json.loads(DIGESTS.read_text()).get(args.workload, [])
    bad = sum(a != b for a, b in zip(digests, expected)) + abs(len(digests) - len(expected))
    if bad:
        errors.append(f"{bad} reference outputs differ from the digests recorded at the seed commit")
    attempted = sum(ph.attempted for ph in phases)
    failed = len(errors)
    for line in errors[:20]:
        print("FAIL", line, file=sys.stderr)

    if args.trace:
        traced_ops_per_s = throughput(traced)
        metrics = tracer.metrics()
        metrics["trace.slowdown"] = ops_per_s / traced_ops_per_s
        metrics["trace.ops"] = len(traced.lat)
        metrics["props.tape_writing_frac"] = tape_frac
        metrics["fail_frac"] = failed / attempted
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(dump)
        out = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
        print(f"traced {len(traced.lat)} ops at {traced_ops_per_s:.3f}/s against {ops_per_s:.3f}/s"
              f" untraced; spans and counts in {dump.relative_to(ROOT)}")
    else:
        lat_ms = [x * 1e3 for x in timed.lat]
        tail_ms, tail_pct = tail(lat_ms)
        out = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "fraction"},
        }
        raw = timed.raw
        print(f"{len(raw)} timed ops in {sum(raw):.2f}s wall ({len(raw) / sum(raw):.3f} ops/s,"
              f" p50 {statistics.median(raw) * 1e3:.1f} ms unscaled); op_tail_ms is p{tail_pct:.1f}"
              f" of {len(raw)} samples; tape-writing share {tape_frac:.2f}; {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
