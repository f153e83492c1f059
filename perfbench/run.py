"""garagesim benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload plan-compile --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics from spans around garagesim's entry points (the module
``spans`` is imported only then).  Lines before it give the environment and
a table of every metric with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one caller, one thread: numpy/BLAS pools are pinned before numpy loads
THREAD_PINS = {
    k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# process start-up is cheap but noisy on a shared host, so it is timed more often
IMPORT_REPEATS = 5
# a run always finishes its round, but stops early rather than overrun this
WALL_LIMIT_S = 120.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

WORKLOAD_NAMES = ("plan-compile", "garage-sweep", "scenario-suite", "merged-scenario")


def fail(msg: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float | None]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the median and None when there are fewer than 20 values."""
    vals = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(vals) * (1.0 - p / 100.0) >= 10.0:
            return percentile(vals, p), p
    return statistics.median(vals), None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "garagesim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "threads": THREAD_PINS,
        "load_model": "closed loop, 1 caller, 1 thread",
    }


def import_seconds() -> float:
    """Process start plus ``import garagesim`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import garagesim"], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    dt = time.perf_counter() - t0
    if done.returncode != 0:
        fail(f"import garagesim failed: {done.stderr.decode(errors='replace')[-400:]}", 1)
    return dt


def set_up(cls, args, workdir: Path):
    """Set the workload up several times; keep the last and time them all."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    builds, wl = [], None
    for _ in range(SETUP_REPEATS):
        wl = None  # free the previous set-up before timing the next
        gc.collect()
        t0 = time.perf_counter()
        wl = cls(args.seed, args.tiny)
        wl.setup(workdir)
        builds.append(time.perf_counter() - t0)
    return wl, statistics.median(imports) + statistics.median(builds)


class Golden:
    """SHA-256 digests of the first round's outputs on the default seed."""

    def __init__(self, args):
        self.mode = "tiny" if args.tiny else "full"
        self.workload = args.workload
        self.active = args.seed == DEFAULT_SEED
        self.record = args.record_golden
        self.recorded: list = []
        try:
            self.doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.doc = {}
        self.expected = self.doc.get(self.mode, {}).get(self.workload)

    def check(self, k: int, label: str, outcome) -> None:
        if not self.active:
            return
        if self.record:
            self.recorded.append([label, outcome.outputs])
            return
        if self.expected is None or k >= len(self.expected):
            outcome.problems.append("no recorded digest for this output")
        elif self.expected[k] != [label, outcome.outputs]:
            outcome.problems.append("output digest differs from the recorded one")

    def save(self) -> None:
        self.doc["seed"] = DEFAULT_SEED
        self.doc.setdefault(self.mode, {})[self.workload] = self.recorded
        GOLDEN.write_text(json.dumps(self.doc, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


class Results:
    def __init__(self):
        self.ops: list[tuple[int, str, dict, object]] = []  # (round, label, parts, outcome)
        self.timed = 0.0

    def add(self, r, label, parts, outcome):
        self.ops.append((r, label, parts, outcome))
        self.timed += sum(parts.values())

    @property
    def failed(self) -> int:
        return sum(1 for *_, o in self.ops if o.problems)

    @property
    def inexact(self) -> int:
        return sum(o.inexact for *_, o in self.ops)


def run_op(op, clock, workloads):
    try:
        return op(clock)
    except Exception as exc:  # an operation that raises is a failed operation
        return workloads.Outcome(0, problems=[f"raised {type(exc).__name__}: {exc}"])


def run_round(wl, r, res, golden, workloads, tracer=None):
    """One round with the cyclic garbage collector off; it runs in between."""
    ops = wl.round_ops(r)
    gc.collect()
    gc.disable()
    try:
        for k, (label, op) in enumerate(ops):
            clock = workloads.Clock(tracer)
            outcome = run_op(op, clock, workloads)
            if r == 0:
                golden.check(k, label, outcome)
            for problem in outcome.problems:
                print(f"FAILED round {r} {label}: {problem}", file=sys.stderr)
            res.add(r, label, clock.parts, outcome)
    finally:
        gc.enable()


def measure(wl, args, golden, workloads):
    res = Results()
    start = time.perf_counter()
    r = 0
    while r == 0 or (res.timed < args.seconds and time.perf_counter() - start < WALL_LIMIT_S):
        run_round(wl, r, res, golden, workloads)
        r += 1
    return res


def measure_traced(wl, args, golden, workloads):
    """Each round runs once untraced and once traced, alternating which
    goes first, so the difference between the two is the tracing cost."""
    import spans

    tracer = spans.Tracer()
    plain, traced = Results(), Results()
    start = time.perf_counter()
    r = 0
    while r == 0 or (plain.timed + traced.timed < args.seconds
                     and time.perf_counter() - start < WALL_LIMIT_S):
        for traced_pass in ((False, True) if r % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install()
                try:
                    run_round(wl, r, traced, golden, workloads, tracer)
                finally:
                    tracer.uninstall()
            else:
                run_round(wl, r, plain, golden, workloads)
        r += 1
    return spans, tracer, plain, traced


def end_to_end(wl, res: Results, setup_s: float) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end metrics, and table lines giving the
    names each of them is quoted by on this workload."""
    op_ms = [sum(p.values()) * 1000.0 for _, _, p, _ in res.ops]
    tail_ms, tail_p = tail(op_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (sum(o.items for *_, o in res.ops) / res.timed, "1/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    n = len(res.ops)
    tail_note = (f"p{tail_p:g}, n={n}" if tail_p is not None
                 else f"median: n={n} is too few for a tail")
    notes = [f"items_per_s counts {wl.unit} over {len({o[0] for o in res.ops})} whole rounds",
             f"op_ms.tail = {tail_note}"]
    aliases = []
    if wl.name == "plan-compile":
        nodes = sum(o.items for *_, o in res.ops)
        aliases.append(("compile_nodes_per_s",
                        nodes / sum(p["compile"] for _, _, p, _ in res.ops), "1/s"))
        aliases.append(("load_nodes_per_s",
                        nodes / sum(p["load"] for _, _, p, _ in res.ops), "1/s"))
    elif wl.name == "garage-sweep":
        aliases.append(("sweep_samples_per_s", metrics["items_per_s"][0], "1/s"))
    elif wl.name == "scenario-suite":
        aliases.append(("scenario_ms.p50", metrics["op_ms.p50"][0], "ms"))
        aliases.append((f"scenario_ms.tail ({tail_note})", tail_ms, "ms"))
        for part in ("scenario", "score"):
            per_cmd = [p[part] * 1000.0 for _, _, p, _ in res.ops if part in p]
            if per_cmd:
                aliases.append((f"command_ms.p50 [{part}]", statistics.median(per_cmd), "ms"))
    else:
        aliases.append(("merged_samples_per_s", metrics["items_per_s"][0], "1/s"))
    aliases.append(("error_rate", res.failed / max(len(res.ops), 1), "ratio"))
    lines = [f"note {x}" for x in notes]
    lines += [f"metric {name} = {value:.6g} {unit}" for name, value, unit in aliases]
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    ap.add_argument("--record-golden", action="store_true",
                    help="store the first round's output digests for the default seed")
    args = ap.parse_args()
    if args.record_golden and (args.seed != DEFAULT_SEED or args.trace):
        fail(f"--record-golden needs --seed {DEFAULT_SEED} --trace 0")

    if not (SRC / "garagesim" / "__init__.py").is_file():
        fail(f"no garagesim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        fail(f"cannot import garagesim: {exc}")

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        wl, setup_s = set_up(cls, args, workdir)
        golden = Golden(args)
        if args.trace:
            spans, tracer, plain, traced = measure_traced(wl, args, golden, workloads)
            failed = plain.failed + traced.failed
            attempted = len(plain.ops) + len(traced.ops)
            inexact = plain.inexact + traced.inexact
            metrics, absent = spans.per_layer_metrics(tracer)
            overhead = (traced.timed / plain.timed - 1.0) * 100.0
            accounted = spans.layer_self_seconds(tracer) / plain.timed * 100.0
            metrics["trace.overhead_pct"] = (overhead, "%")
            metrics["trace.accounted_pct"] = (accounted, "%")
            tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl", env)
            if absent:
                print("absent " + " ".join(absent))
            if tracer.missing:
                print("missing entry points " + " ".join(tracer.missing))
            print(f"note tracing overhead {overhead:+.2f}% ({traced.timed:.3f} s traced vs "
                  f"{plain.timed:.3f} s untraced); layer self times cover {accounted:.1f}% "
                  f"of the untraced time; {len(tracer.spans)} spans")
        else:
            res = measure(wl, args, golden, workloads)
            failed, attempted, inexact = res.failed, len(res.ops), res.inexact
            metrics, lines = end_to_end(wl, res, setup_s)
            print("\n".join(lines))
        if args.record_golden:
            golden.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if inexact:
        print(f"note {inexact} reports rescore to their own score only up to float "
              f"rounding, not bit for bit (see perfbench/README.md)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
