"""Run one benchmark workload against the tpfact sources of this checkout.

    python3 perfbench/run.py --workload factor-roundtrip --seed 1 \\
        --seconds 25 --trace 0

One client sends ops in a closed loop: the next op starts when the
previous one has returned and been checked.  Ops come in blocks of
fixed composition (workloads.py); the loop runs whole blocks until the
ops have taken --seconds of wall time and at least MIN_OPS have run.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the
per-layer metrics of a traced run over a fixed number of blocks, each
run untraced and then traced (see perfbench/README.md).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Per-op records and the spans of a traced run are written under
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import tracer
import workloads
from workloads import ROOT, SRC

MIN_OPS = 100            # so that ten latency samples lie beyond p90
SETUP_SAMPLES = 11       # set-up is repeated and its median reported
INTERPRETER_SAMPLES = 5
WALL_BUDGET_S = 60       # no new block starts after this much run time
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_gmean_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_tpfact():
    """Import tpfact from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tpfact", "__init__.py")):
        raise SystemExit(f"run.py: no tpfact sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tpfact
    if os.path.dirname(os.path.dirname(os.path.abspath(tpfact.__file__))) != SRC:
        raise SystemExit(f"run.py: imported tpfact from {tpfact.__file__}")
    return tpfact


def streams(seed):
    """Independent generators for warm-up and timed inputs."""
    return random.Random(f"{seed}:warmup"), random.Random(f"{seed}:ops")


class Ledger:
    """Every op run, with its latency and the reason it failed, if any."""

    def __init__(self, workload):
        self.workload = workload
        self.records = []

    def run(self, tp, op, timed=True, call=None):
        call = call or self.workload.run
        t0 = time.perf_counter()
        try:
            answer = call(tp, op)
        except Exception as exc:  # an unexpected exception fails the op
            answer = exc
        elapsed = time.perf_counter() - t0
        error = self.workload.check(op, answer)
        self.records.append((op, elapsed if timed else None, error))
        return answer, elapsed

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for _, _, error in self.records if error is not None)

    def latencies(self):
        return [t for _, t, _ in self.records if t is not None]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, elapsed, error in self.records:
                record = dict(op.describe())
                record["latency_ms"] = None if elapsed is None else elapsed * 1e3
                record["error"] = error
                fh.write(json.dumps(record) + "\n")

    def traffic(self):
        """Count of ops per input class, for the output."""
        mix = {}
        for op, _, _ in self.records:
            d = op.describe()
            key = " ".join(f"{k}={d[k]}" for k in
                           ("cmd", "n", "cell", "bits", "signs") if k in d)
            if "cell" not in d and "u" in d:
                key += f" u={d['u']} v={d['v']}"
            mix[key] = mix.get(key, 0) + 1
        return dict(sorted(mix.items()))


def in_process_setup(workload, seed, ledger):
    """Import tpfact and run the warm-up ops; returns (tp, seconds)."""
    t0 = time.perf_counter()
    tp = import_tpfact()
    warm, _ = streams(seed)
    for op in workload.warmup(warm):
        ledger.run(tp, op, timed=False)
    return tp, time.perf_counter() - t0


def setup_probe(name, seed):
    """Child-process entry: time one set-up and print it."""
    workload = workloads.WORKLOADS[name]()
    ledger = Ledger(workload)
    _, seconds = in_process_setup(workload, seed, ledger)
    if ledger.failed:
        raise SystemExit(f"set-up probe: warm-up op failed: {ledger.records}")
    print(seconds)


def probe_setup_time(name, seed):
    """Set-up time of a fresh process, as measured by the process itself."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_blocks(workload, rng, seconds, min_ops, started, each_block):
    """Closed loop over whole blocks until `seconds` of op time have
    passed and `min_ops` ops have run, or the wall budget is spent."""
    busy = 0.0
    ops = 0
    while busy < seconds or ops < min_ops:
        if time.perf_counter() - started > WALL_BUDGET_S:
            break
        block = workload.block(rng)
        busy += each_block(block)
        ops += len(block)


def timed_run(workload, seed, seconds, started):
    ledger = Ledger(workload)
    warm, rng = streams(seed)
    cli = isinstance(workload, workloads.CliMix)
    if cli:
        def setup_sample():
            return ledger.run(None, workload.warmup(warm)[0], timed=False)[1]

        setup_times = [setup_sample()]   # this one fills the bytecode cache
        workload.reference = import_tpfact()
        tp = None
    else:
        def setup_sample():
            return probe_setup_time(workload.name, seed)

        tp, own = in_process_setup(workload, seed, ledger)
        setup_times = [own]

    def each_block(block):
        busy = sum(ledger.run(tp, op)[1] for op in block)
        # Set-up samples are spread over the run in proportion to op
        # time, so that they see the same machine conditions as the ops.
        for _ in range(max(1, round(SETUP_SAMPLES * busy / seconds))):
            setup_times.append(setup_sample())
        return busy

    run_blocks(workload, rng, seconds, MIN_OPS, started, each_block)
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(usage).ru_maxrss
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_sample())
    lat = ledger.latencies()
    metrics = {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_gmean_ms": statistics.geometric_mean(lat) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024,
    }
    # Single order statistics swing with the per-op speed of a shared
    # host, so they are printed but not reported as metrics.
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    report = [f"samples: {len(lat)} timed ops, {len(setup_times)} set-ups",
              f"latency_p50_ms (printed only): "
              f"{statistics.median(lat) * 1e3:.6g} ms",
              f"latency_p90_ms (printed only): {p90 * 1e3:.6g} ms"]
    return ledger, metrics, END_TO_END, report


# ---------------------------------------------------------------------------
# traced run

PER_LAYER_UNITS = {
    "linalg.minor.calls_per_op": "count",
    "linalg.minor.self_ms_per_op": "ms",
    "linalg.minor.max_bits": "bits",
    "linalg.self_ms_per_op": "ms",
    "linalg.ldu_inverse.self_ms_per_op": "ms",
    "bruhat.incl_ms_per_op": "ms",
    "bruhat.candidates_per_cell": "count",
    "twist.incl_ms_per_op": "ms",
    "twist.self_ms_per_op": "ms",
    "solver.self_ms_per_op": "ms",
    "solver.minors_per_chamber": "count",
    "product_map.self_ms_per_op": "ms",
    "networks.incl_ms_per_op": "ms",
    "networks.sweeps_per_op": "count",
    "positivity.all.incl_ms_per_op": "ms",
    "positivity.all.minors_per_check": "count",
    "positivity.chamber.incl_ms_per_op": "ms",
    "positivity.chamberset.incl_ms_per_op": "ms",
    "positivity.chamberset.minors_per_check": "count",
    "positivity.fekete.incl_ms_per_op": "ms",
    "schemes.isotopy_key.calls_per_class": "count",
    "schemes.arrangement.self_ms_per_op": "ms",
    "schemes.moves.self_ms_per_op": "ms",
    "schemes.self_ms_per_op": "ms",
    "permutations.self_ms_per_op": "ms",
    "identities.incl_ms_per_op": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

ROOTS = ("positivity.is_tnn", "positivity.first_negative_minor",
         "positivity.chamber_set_criterion")


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(summary, ops, bits, denominators):
    """Per-layer metrics of a traced run from its span summary."""
    s = summary
    calls, incl, own = s.calls, s.incl_ns, s.self_ns
    under = s.under

    def per_op_ms(ns):
        return ratio(ns, ops) / 1e6

    def get(table, *names):
        return sum(table.get(name, 0) for name in names)

    return {
        "linalg.minor.calls_per_op": ratio(get(calls, "linalg.minor"), ops),
        "linalg.minor.self_ms_per_op": per_op_ms(get(own, "linalg.minor")),
        "linalg.minor.max_bits": bits,
        "linalg.self_ms_per_op": per_op_ms(s.total(own, "linalg")),
        "linalg.ldu_inverse.self_ms_per_op": per_op_ms(
            get(own, "linalg.ldu_decompose", "linalg.inverse")),
        "bruhat.incl_ms_per_op": per_op_ms(s.total(incl, "bruhat")),
        "bruhat.candidates_per_cell": ratio(
            get(calls, "bruhat.in_bruhat_cell"),
            get(calls, "bruhat.bruhat_cell_of")),
        "twist.incl_ms_per_op": per_op_ms(s.total(incl, "twist")),
        "twist.self_ms_per_op": per_op_ms(s.total(own, "twist")),
        "solver.self_ms_per_op": per_op_ms(s.total(own, "solver")),
        "solver.minors_per_chamber": ratio(
            get(calls, "solver.chamber_minor"),
            denominators.get("chambers", 0)),
        "product_map.self_ms_per_op": per_op_ms(s.total(own, "product_map")),
        "networks.incl_ms_per_op": per_op_ms(s.total(incl, "networks")),
        "networks.sweeps_per_op": ratio(
            get(calls, "networks.symbolic_entry", "networks.symbolic_minor"),
            ops),
        "positivity.all.incl_ms_per_op": per_op_ms(
            get(incl, "positivity.is_tnn", "positivity.first_negative_minor")),
        "positivity.all.minors_per_check": ratio(
            get(under.get("positivity.is_tnn", {}), "linalg.minor")
            + get(under.get("positivity.first_negative_minor", {}),
                  "linalg.minor"),
            get(calls, "positivity.is_tnn")),
        "positivity.chamber.incl_ms_per_op": per_op_ms(
            get(incl, "positivity.chamber_criterion")),
        "positivity.chamberset.incl_ms_per_op": per_op_ms(
            get(incl, "positivity.chamber_set_criterion")),
        "positivity.chamberset.minors_per_check": ratio(
            get(under.get("positivity.chamber_set_criterion", {}),
                "linalg.minor"),
            get(calls, "positivity.chamber_set_criterion")),
        "positivity.fekete.incl_ms_per_op": per_op_ms(
            get(incl, "positivity.fekete_criterion")),
        "schemes.isotopy_key.calls_per_class": ratio(
            get(calls, "schemes.isotopy_key"), denominators.get("classes", 0)),
        "schemes.arrangement.self_ms_per_op": per_op_ms(
            get(own, "schemes.build_arrangement")
            + s.total(own, "schemes.Arrangement")),
        "schemes.moves.self_ms_per_op": per_op_ms(
            get(own, "schemes.apply_move", "schemes.available_moves")),
        "schemes.self_ms_per_op": per_op_ms(s.total(own, "schemes")),
        "permutations.self_ms_per_op": per_op_ms(
            s.total(own, "permutations")),
        "identities.incl_ms_per_op": per_op_ms(s.total(incl, "identities")),
    }


def interpreter_ms():
    """Median wall time of `python -c pass`."""
    times = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def importtime_roots(stderr):
    """Top-level (module, cumulative us) pairs of `-X importtime` output."""
    out = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit() and name.startswith(" ") \
                and not name.startswith("  "):
            out.append((name.strip(), int(cumulative)))
    return out


def startup_modules():
    """Modules the bare interpreter imports at start-up."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return {name for name, _ in importtime_roots(proc.stderr)}


def cli_import_ms(stderr, baseline):
    """Import time of tpfact.cli and what it pulls in, start-up excluded."""
    return sum(us for name, us in importtime_roots(stderr)
               if name not in baseline) / 1e3


def traced_run(workload, seed, started):
    """Each block runs untraced, then traced on the same inputs."""
    ledger = Ledger(workload)
    warm, rng = streams(seed)
    cli = isinstance(workload, workloads.CliMix)
    tr = tracer.Tracer()
    tp = None
    if cli:
        ledger.run(None, workload.warmup(warm)[0], timed=False)
        workload.reference = import_tpfact()
        baseline = startup_modules()
    else:
        tp, _ = in_process_setup(workload, seed, ledger)
    traced = []          # (op, answer, span range) of every traced op
    times = {"plain": 0.0, "traced": 0.0, "import_ms": 0.0}

    def traced_call(tp, op):
        if cli:
            return workload.run(tp, op, prefix=("-X", "importtime"))
        return tr.run_op(workload.run, tp, op)

    def each_block(block):
        for op in block:
            times["plain"] += ledger.run(tp, op)[1]
        busy = 0.0
        if not cli:
            tr.install()
        try:
            for op in block:
                lo = len(tr.start)
                answer, elapsed = ledger.run(tp, op, call=traced_call)
                busy += elapsed
                traced.append((op, answer, (lo, len(tr.start))))
                if cli and not isinstance(answer, Exception):
                    times["import_ms"] += cli_import_ms(answer.stderr, baseline)
        finally:
            tr.uninstall()
        times["traced"] += busy
        return busy

    # A fixed number of blocks, so that counts repeat exactly on a seed.
    for _ in range(workload.trace_blocks):
        if time.perf_counter() - started > WALL_BUDGET_S:
            break
        each_block(workload.block(rng))
    ops = len(traced)
    denominators = {}
    for op, answer, _ in traced:
        for key, value in workload.counts(op, answer).items():
            denominators[key] = denominators.get(key, 0) + value
    summary = tracer.Summary(tr, ROOTS)
    metrics = layer_metrics(summary, ops, tr.max_bits, denominators)
    interp = interpreter_ms()
    metrics["cli.interpreter_ms"] = interp
    if cli:
        imports = times["import_ms"] / ops
        metrics["cli.import_ms"] = imports
        metrics["cli.command_ms"] = times["traced"] * 1e3 / ops - interp - imports
    else:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tpfact.cli"],
            capture_output=True, text=True, check=True, timeout=60,
            env=workloads.cli_env(), cwd=ROOT)
        metrics["cli.import_ms"] = cli_import_ms(proc.stderr, startup_modules())
        metrics["cli.command_ms"] = 0.0
    metrics["trace.overhead_ratio"] = times["plain"] / times["traced"]
    report = [f"samples: {ops} traced ops, {len(tr.start)} spans",
              "sanity: " + json.dumps(sanity(workload, tr, traced))]
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write(os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.spans"))
    return ledger, metrics, PER_LAYER_UNITS, report


def sanity(workload, tr, traced):
    """Values to hold against the ROADMAP baseline, from traced ops."""
    out = {}
    if isinstance(workload, workloads.FactorRoundtrip):
        spans = [r for op, _, r in traced if op.n == 5 and op.is_open]
        if spans:
            calls = solve = bruhat = cells = chamber_minors = 0
            for lo, hi in spans:
                s = tracer.Summary(tr, (), lo, hi)
                solve += s.incl_ns.get("solver.solve", 0)
                bruhat += s.total(s.incl_ns, "bruhat")
                calls += s.calls.get("bruhat.in_bruhat_cell", 0)
                cells += s.calls.get("bruhat.bruhat_cell_of", 0)
                chamber_minors += s.calls.get("solver.chamber_minor", 0)
            out["open5.bruhat_share_of_solve"] = ratio(bruhat, solve)
            out["open5.candidates_per_cell"] = ratio(calls, cells)
            out["open5.chamber_minors_per_solve"] = chamber_minors / len(spans)
    if isinstance(workload, workloads.IsotopyGl3):
        for op, answer, (lo, hi) in traced:
            if (op.u, op.v) == workloads.OPEN_GL3:
                s = tracer.Summary(tr, (), lo, hi)
                out["open_gl3.isotopy_key_calls"] = s.calls.get(
                    "schemes.isotopy_key", 0)
                out["open_gl3.classes"] = answer[0]
                break
    return out


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        ledger, metrics, units, report = traced_run(workload, args.seed,
                                                    started)
    else:
        ledger, metrics, units, report = timed_run(workload, args.seed,
                                                   args.seconds, started)
    os.makedirs(OUT_DIR, exist_ok=True)
    ledger.write(os.path.join(
        OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.jsonl"))
    if isinstance(workload, workloads.CliMix):
        report.append("known CLI defects (not counted in failed): " + json.dumps(
            known_defects()))
    print("traffic: " + json.dumps(ledger.traffic()))
    for line in report:
        print(line)
    print(f"error_rate: {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} ops)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def known_defects():
    """Outcome of each known-defect input: "ok" or why it still fails."""
    cli = workloads.CliMix()
    out = {}
    for op in workloads.known_defect_ops():
        out[op.kind] = cli.check(op, workloads.run_cli(op.argv, op.stdin)) or "ok"
    return out


if __name__ == "__main__":
    sys.exit(main())
