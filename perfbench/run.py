"""Benchmark of uvangle: one-shot CLI processes, an in-process query mix and a locus sweep.

Run from the repository root:

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer metrics
instead.  The line before it is a JSON record of the environment, the run
lengths and the sample counts behind every percentile; the same record
goes to perfbench/out/.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # the workload's start, for setup_s

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads as W  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli-oneshot", "query-mix", "locus-sweep")
END_TO_END = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SETUP_CHILDREN = 4  # extra set-ups per run in fresh processes; setup_s is the median of 5
MIN_INVOCATIONS = 100  # cli-oneshot: ten samples beyond p90
QUERY_CHUNK = 1000  # queries generated, run and checked together; throughput is per chunk
TRACE_SHARE = 0.2  # share of --seconds spent on the untraced pass of a traced run
FLOOR_RUNS = 10  # `python -c pass` runs behind python.floor_ms
IMPORT_RUNS = 5  # `python -X importtime` runs behind import.*_ms
KIND_INDEX = {kind: i for i, kind in enumerate(inputs.QUERY_KINDS)}


def _layer_names():
    names = ["python.floor_ms", "import.uvangle_ms", "import.numpy_ms",
             "cli.parse_ms", "cli.compute_ms", "cli.serialize_ms", "cli.contract_violations"]
    for layer, _, fn in TRACED:
        if layer == "cli":
            continue
        names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_ms"]
        if layer != "kernel":
            names.append(f"{layer}.{fn}.us_per_call")
    names += ["isoptic.sample_locus.us_per_sample", "kernel.normalize_configuration.per_sample"]
    names += [f"query_us.{kind}.p50" for kind in inputs.QUERY_KINDS]
    names += [f"locus_ms.n{n}.p50" for n in inputs.LOCUS_SIZES]
    names.append("trace.overhead_ratio")
    return names


PER_LAYER = _layer_names()


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".contract_violations")):
        return "count"
    if name.endswith((".per_sample", "overhead_ratio")):
        return "ratio"
    if name.endswith((".us_per_call", ".us_per_sample")) or name.startswith("query_us."):
        return "us"
    return "ms"


# ------------------------------------------------------------------ helpers


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "uvangle").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "git_sha": _git_sha(),
        "source_sha256_16": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


# ------------------------------------------------------------------ set-up


def setup(workload: str, seed: int, tally: Tally, load: bool) -> dict:
    """Imports, input generation and a checked warm-up; returns the workload state."""
    state = {"seed": seed, "scratch": OUT / f"tmp-{os.getpid()}"}
    state["scratch"].mkdir(parents=True, exist_ok=True)
    if load or workload != "cli-oneshot":
        W.load_uvangle(str(SRC))
    warm = random.Random(f"warm-up:{seed}")
    if workload == "query-mix":
        stream = inputs.QueryStream(seed)
        warm_queries = [inputs.query(warm, k) for k in inputs.QUERY_KINDS for _ in range(3)]
        outcomes = W.run_queries(warm_queries, array("d"), array("b"), KIND_INDEX)
        for q, o in zip(warm_queries, outcomes):
            tally.add(W.check_query(q, o))
        state["stream"] = stream
        state["chunk"] = stream.take(QUERY_CHUNK)
    elif workload == "locus-sweep":
        spec = inputs.LocusStream(seed ^ 0x5EED, sizes=(256,)).next()
        tally.add(W.check_locus(spec, _call(W.run_locus, spec)))
        state["stream"] = inputs.LocusStream(seed)
    else:
        svg = str(state["scratch"] / "locus.svg")
        state["svg"] = svg
        state["stream"] = inputs.CommandStream(seed, svg)
        argv, data = inputs.good_command(warm, "angle", svg)
        _, code, out, err = W.run_subprocess(argv, cli_env(), ROOT)
        tally.add(W.check_command("angle", data, code, out, err, svg))
    return state


def _call(fn, arg):
    try:
        return fn(arg)
    except Exception as exc:  # the checker reports it
        return exc.with_traceback(None)


# ------------------------------------------------------------------ timed runs


def peak_rss_mb(workload: str) -> float:
    """Peak RSS so far: of the CLI child processes, or of this process."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _bracket(refs):
    """Reference of step i: the mean of the values taken before and after it."""
    return [(a + b) / 2.0 for a, b in zip(refs, refs[1:])]


def measure_queries(state, seconds: float, tally: Tally):
    """Per-query wall times (ms, in run order), the reference loop time of each, and units."""
    times, kinds, refs, sizes = array("d"), array("b"), [reference.loop_ms()], []
    stream, chunk = state["stream"], state["chunk"]
    deadline = time.perf_counter() + seconds
    while True:
        outcomes = W.run_queries(chunk, times, kinds, KIND_INDEX)
        refs.append(reference.loop_ms())
        sizes.append(len(chunk))
        for q, o in zip(chunk, outcomes):
            tally.add(W.check_query(q, o))
        if time.perf_counter() >= deadline:
            break
        chunk = stream.take(QUERY_CHUNK)
    peak = peak_rss_mb("query-mix")  # before the arrays below are built
    per_query = array("d")
    for ref, size in zip(_bracket(refs), sizes):
        per_query.extend([ref] * size)
    return array("d", (t / 1000.0 for t in times)), per_query, 1, peak


def measure_locus(state, seconds: float, tally: Tally):
    """Wall time (ms) of each pair of specs, one per size in LOCUS_SIZES; units are samples."""
    stream = state["stream"]
    pair_ms, refs = [], [reference.loop_ms()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not pair_ms:
        specs = [stream.next() for _ in inputs.LOCUS_SIZES]
        spent = 0.0
        outcomes = []
        for spec in specs:
            t0 = time.perf_counter()
            outcome = _call(W.run_locus, spec)
            spent += time.perf_counter() - t0
            outcomes.append(outcome)
        refs.append(reference.loop_ms())
        for spec, outcome in zip(specs, outcomes):
            tally.add(W.check_locus(spec, outcome))
        pair_ms.append(spent * 1000.0)
    return pair_ms, _bracket(refs), sum(inputs.LOCUS_SIZES), peak_rss_mb("locus-sweep")


def measure_cli(state, seconds: float, tally: Tally):
    """Wall time (ms) of each `python -m uvangle` process, each after one floor process."""
    stream, svg, env = state["stream"], state["svg"], cli_env()
    walls, floors = [], []
    start = time.perf_counter()
    while True:
        for kind, argv, data in stream.block():
            floors.append(reference.floor_ms(env, ROOT))
            wall, code, out, err = W.run_subprocess(argv, env, ROOT)
            walls.append(wall * 1000.0)
            tally.add(W.check_command(kind, data, code, out, err, svg))
            if os.path.exists(svg):
                os.remove(svg)
            if time.perf_counter() - start >= seconds and len(walls) >= MIN_INVOCATIONS:
                # A single floor process is noisy: use the median of the five nearest.
                refs = [statistics.median(floors[max(0, i - 2):i + 3]) for i in range(len(floors))]
                return walls, refs, 1, peak_rss_mb("cli-oneshot")


# ops per window for throughput, and the reference each workload is scaled by
WINDOW = {"query-mix": QUERY_CHUNK, "locus-sweep": 10, "cli-oneshot": 10}
NOMINAL = {"query-mix": reference.LOOP_NOMINAL_MS, "locus-sweep": reference.LOOP_NOMINAL_MS,
           "cli-oneshot": reference.FLOOR_NOMINAL_MS}
OP_UNIT = {
    "query-mix": "one query; throughput in queries/s",
    "locus-sweep": f"one spec at each n in {list(inputs.LOCUS_SIZES)} (isoptic_curve then sample_locus); "
                   "throughput in locus samples/s",
    "cli-oneshot": "one `python -m uvangle` process, wall time; throughput in invocations/s",
}


def setup_seconds(workload: str, seed: int, setup_main: float):
    """Raw and floor-scaled set-up times: this process's and SETUP_CHILDREN fresh ones."""
    env = cli_env()
    raw = [setup_main]
    floors = [reference.floor_ms(env, ROOT)]
    for _ in range(SETUP_CHILDREN):
        floors.append(reference.floor_ms(env, ROOT))
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-500:]}")
        raw.append(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])
    scaled = [r * reference.FLOOR_NOMINAL_MS / f for r, f in zip(raw, floors)]
    return raw, floors, scaled


def run_untraced(args, state, tally: Tally, detail: dict) -> dict:
    measure = {"query-mix": measure_queries, "locus-sweep": measure_locus,
               "cli-oneshot": measure_cli}[args.workload]
    t0 = time.perf_counter()
    raw, refs, units, peak_mb = measure(state, args.seconds, tally)
    detail["measured_s"] = time.perf_counter() - t0
    setup_raw, setup_floor, setup_scaled = setup_seconds(args.workload, args.seed, detail["setup_main_s"])

    nominal = NOMINAL[args.workload]
    lat = [t * nominal / r for t, r in zip(raw, refs)]
    size = WINDOW[args.workload]
    rates = [units * size / sum(lat[i:i + size]) * 1000.0 for i in range(0, len(lat) - size + 1, size)]
    raw_rates = [units * size / sum(raw[i:i + size]) * 1000.0 for i in range(0, len(raw) - size + 1, size)]
    ordered, raw_ordered = sorted(lat), sorted(raw)
    detail.update(
        op=OP_UNIT[args.workload], latency_samples=len(lat), throughput_windows=len(rates),
        window_ops=size, reference=("python -c pass" if args.workload == "cli-oneshot" else "loop"),
        reference_nominal_ms=nominal, reference_ms_median=statistics.median(refs),
        reference_ms_range=[min(refs), max(refs)],
        raw={"latency_ms.p50": percentile(raw_ordered, 50), "latency_ms.p90": percentile(raw_ordered, 90),
             "throughput_per_s": statistics.median(raw_rates), "setup_s": statistics.median(setup_raw)},
        setup_samples=len(setup_raw), setup_raw_s=setup_raw, setup_floor_ms=setup_floor,
    )
    return {
        "latency_ms.p50": percentile(ordered, 50),
        "latency_ms.p90": percentile(ordered, 90),
        "throughput_per_s": statistics.median(rates),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup_scaled),
    }


# ------------------------------------------------------------------ traced runs


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_ms() -> tuple[float, float]:
    """Median cumulative import time of the uvangle package and of numpy, in ms."""
    totals, numpys = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import uvangle.cli"],
                              cwd=ROOT, env=cli_env(), capture_output=True, timeout=60, check=True)
        total = numpy = 0
        for line in proc.stderr.decode().splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
            if indent == 1 and name.split(".")[0] == "uvangle":
                total += cumulative
            if name == "numpy" and not numpy:
                numpy = cumulative
        totals.append(total / 1000.0)
        numpys.append(numpy / 1000.0)
    return statistics.median(totals), statistics.median(numpys)


def _more(done: int, count, deadline: float) -> bool:
    """Continue a pass: until ``count`` operations if given, else until ``deadline``."""
    return done < count if count is not None else time.perf_counter() < deadline


def _phase_queries(state, tally, tracer, count=None, seconds=0.0):
    """Query times (us) and kind indices of one pass over the seed's query stream."""
    stream = inputs.QueryStream(state["seed"])
    times, kinds = array("d"), array("b")
    deadline = time.perf_counter() + seconds
    while _more(len(times), count, deadline):
        chunk = stream.take(QUERY_CHUNK)
        outcomes = W.run_queries(chunk, times, kinds, KIND_INDEX, tracer)
        for q, o in zip(chunk, outcomes):
            tally.add(W.check_query(q, o))
    return times, kinds


def _phase_locus(state, tally, tracer, count=None, seconds=0.0):
    """Spec times (ms) and sizes of one pass over the seed's locus stream."""
    stream = inputs.LocusStream(state["seed"])
    times, sizes = [], []
    deadline = time.perf_counter() + seconds
    while _more(len(times), count, deadline):
        spec = stream.next()
        if tracer is not None:
            tracer.current_op += 1
        t0 = time.perf_counter()
        outcome = _call(W.run_locus, spec)
        times.append((time.perf_counter() - t0) * 1000.0)
        sizes.append(spec[-1])
        tally.add(W.check_locus(spec, outcome))
    return times, sizes


def _phase_cli(state, tally, tracer, count=None, seconds=0.0):
    """In-process `cli.main` times (ms) of one pass over the seed's command stream."""
    stream, svg = inputs.CommandStream(state["seed"], state["svg"]), state["svg"]
    times = []
    deadline = time.perf_counter() + seconds
    while _more(len(times), count, deadline):
        for kind, argv, data in stream.block():
            if tracer is not None:
                tracer.current_op += 1
            t0 = time.perf_counter()
            code, out, err = W.run_in_process(argv)
            times.append((time.perf_counter() - t0) * 1000.0)
            tally.add(W.check_command(kind, data, code, out, err, svg))
            if os.path.exists(svg):
                os.remove(svg)
    return times, None


PHASES = {"query-mix": _phase_queries, "locus-sweep": _phase_locus, "cli-oneshot": _phase_cli}


def traced_pass(workload: str, state, tally: Tally, count: int):
    """Replay the first ``count`` operations with the tracer installed."""
    tracer = Tracer()
    tracer.install()
    try:
        times, _ = PHASES[workload](state, tally, tracer, count=count)
    finally:
        tracer.uninstall()
    return tracer, times[:count]


def contract_violations(state, detail: dict) -> int:
    missing = state["scratch"] / "missing"
    violations = {}
    for name, argv in inputs.contract_probes(state["seed"], str(missing)):
        _, code, out, err = W.run_subprocess(argv, cli_env(), ROOT)
        reason = W.contract_violation(code, out, err)
        if reason is not None:
            violations[name] = reason
    detail["contract_violations"] = violations
    return len(violations)


def run_traced(args, state, tally: Tally, detail: dict, spans_path) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["python.floor_ms"] = statistics.median(
        reference.floor_ms(cli_env(), ROOT) for _ in range(FLOOR_RUNS))
    metrics["import.uvangle_ms"], metrics["import.numpy_ms"] = import_ms()
    plain, labels = PHASES[args.workload](state, tally, None, seconds=args.seconds * TRACE_SHARE)
    tracer, traced = traced_pass(args.workload, state, tally, len(plain))
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    detail.update(untraced_ops=len(plain), traced_ops=len(traced), spans=len(tracer))

    if args.workload == "query-mix":
        for kind, i in KIND_INDEX.items():
            mine = sorted(t for t, k in zip(plain, labels) if k == i)
            detail[f"query_us.{kind}.samples"] = len(mine)
            if mine:
                metrics[f"query_us.{kind}.p50"] = percentile(mine, 50)
    if args.workload == "locus-sweep":
        for n in inputs.LOCUS_SIZES:
            mine = sorted(t for t, s in zip(plain, labels) if s == n)
            detail[f"locus_ms.n{n}.samples"] = len(mine)
            metrics[f"locus_ms.n{n}.p50"] = percentile(mine, 50)
    if args.workload == "cli-oneshot":
        metrics["cli.contract_violations"] = contract_violations(state, detail)

    stats = tracer.summary()
    for layer, _, fn in TRACED:
        calls, incl, own = stats.get(f"{layer}.{fn}", (0, 0, 0))
        for key, value in ((".calls", calls), (".self_ms", own / 1e6),
                           (".us_per_call", incl / calls / 1e3 if calls else 0.0)):
            if f"{layer}.{fn}{key}" in metrics:
                metrics[f"{layer}.{fn}{key}"] = value
    invocations = stats.get("cli.main", (0, 0, 0))[0]
    if invocations:
        parse = stats.get("cli.build_parser", (0, 0, 0))[1] + stats.get("cli.parse_args", (0, 0, 0))[1]
        serialize = stats.get("cli._emit", (0, 0, 0))[1]
        main = stats["cli.main"][1]
        metrics["cli.parse_ms"] = parse / invocations / 1e6
        metrics["cli.serialize_ms"] = serialize / invocations / 1e6
        metrics["cli.compute_ms"] = (main - parse - serialize) / invocations / 1e6
    samples = tracer.units.get("isoptic.sample_locus", 0)
    if samples:
        metrics["isoptic.sample_locus.us_per_sample"] = stats["isoptic.sample_locus"][1] / samples / 1e3
        metrics["kernel.normalize_configuration.per_sample"] = (
            tracer.calls_under("kernel.normalize_configuration", "isoptic.sample_locus") / samples)
    detail["locus_samples_traced"] = samples
    tracer.write(spans_path)
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


# ------------------------------------------------------------------ smoke


def smoke() -> int:
    """Every workload at a tiny size, with all checks and the tracer, and no timing bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end names differ from run.py")
    if [m["name"] for m in spec["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer names differ from run.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        tally = Tally()
        state = setup(workload, 7, tally, load=True)
        if workload == "cli-oneshot":
            for kind, argv, data in state["stream"].block():
                _, code, out, err = W.run_subprocess(argv, cli_env(), ROOT)
                tally.add(W.check_command(kind, data, code, out, err, state["svg"]))
        PHASES[workload](state, tally, None, count=2)
        tracer, _ = traced_pass(workload, state, tally, 2)
        detail = {}
        known = contract_violations(state, detail) if workload == "cli-oneshot" else 0
        shutil.rmtree(state["scratch"], ignore_errors=True)
        print(f"{workload}: {tally.attempted} checked, {tally.failed} failed, "
              f"{len(tracer)} spans, {known} known contract violations {sorted(detail.get('contract_violations', {}))}")
        problems += [f"{workload}: {r}" for r in tally.reasons]
        if tally.failed or not len(tracer):
            problems.append(f"{workload}: {tally.failed} failed checks, {len(tracer)} spans")
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke", "failed" if problems else "ok")
    return 1 if problems else 0


# ------------------------------------------------------------------ main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, checks only")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "uvangle" / "__init__.py").is_file():
        print(f"error: no uvangle sources under {SRC}; run from a uvangle checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    tally = Tally()
    state = setup(args.workload, args.seed, tally, load=args.trace == 1)
    setup_main = time.perf_counter() - T_START
    if args.setup_only:
        shutil.rmtree(state["scratch"], ignore_errors=True)
        print(json.dumps({"setup_s": setup_main}))
        return 0 if tally.failed == 0 else 1

    detail = {"environment": environment(args), "setup_main_s": setup_main}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            values = run_traced(args, state, tally, detail, OUT / f"spans-{args.workload}.csv.gz")
            units = {name: per_layer_unit(name) for name in PER_LAYER}
        else:
            values = run_untraced(args, state, tally, detail)
            units = END_TO_END
    finally:
        shutil.rmtree(state["scratch"], ignore_errors=True)
    detail.update(attempted=tally.attempted, failed=tally.failed, failure_reasons=tally.reasons,
                  wall_s=time.perf_counter() - T_START)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
