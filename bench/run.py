"""partmeas benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Runs from a checkout of the repository and uses the sources in ``src/``.
Workloads (see config.json for why each was chosen):

  decompose  the maximal-partial-measure pipeline in-process, k = 6..11
  fuzz       run_fuzz at 10 trials per property, k <= 6
  cli        one ``python -m partmeas.cli`` process per op, k = 3..8

Each workload is a closed loop with one client: one op at a time, no
worker threads, one CLI process at a time.  Set-up (a fresh interpreter
importing partmeas, input generation, warm-up) is repeated and its
median reported.  ``--trace 0`` then times ops until their summed
latency reaches ``--seconds`` and reports the end-to-end metrics (op
costs in units of a reference computation timed beside each op, see
``end_to_end``; the times in ms are printed and recorded too);
``--trace 1`` repeats a fixed list of ops, alternating an untraced and a
traced pass, until the passes reach ``--seconds``, and reports per-layer
self times, calls and the deterministic counts of one pass, which must
be identical in every pass.  Every op's output is checked exactly
against the oracles in oracle.py outside the timed region.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (provenance,
the tail percentile, failures, the op mix and, when tracing, every span)
is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import Tracer, Untraced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CONFIG = json.loads((BENCH / "config.json").read_text(encoding="utf-8"))

SETUP_REPS = 7
STARTUP_REFERENCE_S = 0.1
REFERENCE_WINDOW = 9
START_REPS = 5
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "op_cost_mean": "ref",
    "op_cost_p50": "ref",
    "op_cost_tail": "ref",
    "cpu_cost_per_op": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# spans whose self time and calls are reported; fuzz.<layer> sums the
# fuzzing.<property> spans of the properties config.json maps to it
SPANS = (
    "partial.validate_partial",
    "partial.maximalize",
    "partial.value_table",
    "partial.jordan_decompose_detailed",
    "partial.check_minimality",
    "partial.corollary1_witness",
    "partial.hahn_partial",
    "fuzzing.run_fuzz",
    "fuzzing.measure_additivity_and_monotonicity",
    *(f"fuzz.{layer}" for layer in
      ("extreal", "spaces", "measure", "partial", "density", "symbolic", "jsonio")),
    "cli.process",
    "cli.main",
    "jsonio.load_instance",
    "jsonio.wrap_instance",
    "cli.render",
)
COUNTS = (
    "partial.sets_enumerated",
    "partial.f_plus_size",
    "partial.f_minus_size",
    "fuzz.trials",
    "cli.bytes_out",
    "cli.exit_0",
    "cli.exit_1",
    "cli.exit_2",
    "trace.ops",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units[f"{span}.self_ms"] = "ms"
        units[f"{span}.calls"] = "count"
    units.update({name: "count" for name in COUNTS})
    units.update({
        "cli.interpreter_start_ms": "ms",
        "cli.import_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "trace.passes": "count",
    })
    return units


# ---------------------------------------------------------------------------
# the program under test


def use_checkout_sources() -> dict:
    """Import partmeas from this checkout; return the environment for children."""
    if not (SRC / "partmeas" / "__init__.py").is_file():
        raise SystemExit(f"bench: no partmeas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import partmeas

    if Path(partmeas.__file__).resolve().parent != (SRC / "partmeas").resolve():
        raise SystemExit(f"bench: partmeas imported from {partmeas.__file__}, not {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def cold_import_ms(env: dict) -> dict[str, float]:
    """Cumulative import time per partmeas module in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import partmeas.cli"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    if proc.returncode:
        raise RuntimeError(f"importing partmeas.cli failed: {proc.stderr[-500:]}")
    out = {}
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.partition(":")[2].split("|")]
        if len(fields) == 3 and fields[2].startswith("partmeas"):
            out[fields[2]] = int(fields[1]) / 1000.0
    return out


def interpreter_start_ms(env: dict) -> float:
    times = []
    for _ in range(START_REPS):
        t0 = perf_counter()
        # with pipes, the wait after EOF is short; without them a wait with
        # a timeout polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, env=env,
                       check=True, timeout=60)
        times.append((perf_counter() - t0) * 1000.0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# set-up, the timed loop and the traced passes


def timed_setup(w, seed: int, env: dict) -> tuple[float, float, dict[str, float]]:
    """Set-up seconds (scaled, see below; and as measured), both medians
    over SETUP_REPS repetitions, and the median cold-start import breakdown.

    Set-up is mostly a fresh interpreter importing partmeas, so it follows
    the host's speed, which on a shared host moves by up to 2x over
    minutes.  Each repetition is therefore scaled by the startup reference
    timed just before it: the reported setup_s is the set-up time on a
    host where that reference takes STARTUP_REFERENCE_S seconds.
    """
    scaled, measured, imports = [], [], []
    for _ in range(SETUP_REPS):
        ref = w.startup_reference_s()
        t0 = perf_counter()
        imports.append(cold_import_ms(env))
        w.setup(seed)
        elapsed = perf_counter() - t0
        measured.append(elapsed)
        scaled.append(elapsed / ref * STARTUP_REFERENCE_S)
    modules = sorted({m for rep in imports for m in rep})
    breakdown = {m: statistics.median(rep.get(m, 0.0) for rep in imports) for m in modules}
    return statistics.median(scaled), statistics.median(measured), breakdown


def _run_op(w, op, prepared, tr):
    """(seconds, cpu seconds, output, problems) of one op."""
    c0 = w.cpu()
    t0 = perf_counter()
    try:
        out = tr.call(f"{w.name}.op", w.run, prepared, tr)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        elapsed, cpu = perf_counter() - t0, w.cpu() - c0
        return elapsed, cpu, None, [f"unexpected {type(exc).__name__}: {exc}"]
    elapsed, cpu = perf_counter() - t0, w.cpu() - c0
    return elapsed, cpu, out, w.check(op, prepared, out)


def timed_run(w, seed: int, seconds: float) -> dict:
    untraced = Untraced()
    latencies, cpus, refs, failures, described = [], [], [], [], []
    busy = 0.0
    for op in w.ops(seed):
        prepared = w.prepare(op)
        refs.append(w.reference_s())
        elapsed, cpu, _, problems = _run_op(w, op, prepared, untraced)
        latencies.append(elapsed)
        cpus.append(cpu)
        described.append(w.describe(op))
        if problems:
            failures.append({"op": len(latencies) - 1, "problems": problems[:3]})
        busy += elapsed
        if busy >= seconds:
            break
    return {"latencies": latencies, "cpus": cpus, "failures": failures,
            "busy_s": busy, "ops": described, "references": refs}


def _one_pass(w, fixed, tr) -> tuple[float, list, Counter, list]:
    busy, outs, counts, failures = 0.0, [], Counter(), []
    for op_id, (op, prepared) in enumerate(fixed):
        tr.op = op_id
        elapsed, _, out, problems = _run_op(w, op, prepared, tr)
        busy += elapsed
        outs.append(out)
        counts["trace.ops"] += 1
        if out is not None:
            counts += w.counts(op, out)
        if problems:
            failures.append({"op": op_id, "problems": problems[:3]})
    return busy, outs, counts, failures


def traced_run(w, seed: int, seconds: float) -> dict:
    fixed = [(op, w.prepare(op)) for op in w.trace_ops(seed)]
    tracer, untraced = Tracer(), Untraced()
    walls = {False: 0.0, True: 0.0}
    reference, failures, passes, attempted = None, [], 0, 0
    while True:
        for traced in (False, True):
            with w.tracing(tracer) if traced else contextlib.nullcontext():
                busy, outs, counts, problems = _one_pass(
                    w, fixed, tracer if traced else untraced)
            walls[traced] += busy
            attempted += len(fixed)
            failures += problems
            if reference is None:
                reference = counts
            elif counts != reference:
                failures.append({"op": None, "problems": [
                    f"counts of pass {passes} (traced={traced}) differ: "
                    f"{dict(counts)} vs {dict(reference)}"]})
        for message in w.layer_pass(fixed, outs, tracer):
            failures.append({"op": None, "problems": [message]})
        passes += 1
        if walls[False] + walls[True] >= seconds:
            break
    return {"tracer": tracer, "counts": reference, "failures": failures,
            "attempted": attempted, "passes": passes,
            "untraced_s": walls[False], "traced_s": walls[True],
            "ops": [w.describe(op) for op, _ in fixed]}


# ---------------------------------------------------------------------------
# metrics


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    has TAIL_MIN_BEYOND samples beyond it; the maximum when there are fewer."""
    xs = sorted(latencies_ms)
    n = len(xs)
    index = max(n - 1 - TAIL_MIN_BEYOND, 0)
    return xs[index], 100.0 * (index + 1) / n, n - 1 - index


def end_to_end(w, run: dict, setup_s: float) -> tuple[dict, dict]:
    """The gated end-to-end metrics, plus the raw figures for the record.

    A host whose cores are shared can run at speeds that differ by up to
    2x over minutes, so op times in seconds spread widely from run to run.
    The gated costs divide each op's time by the time of the workload's
    reference (``Workload.reference_s``, nothing from the program) run
    before each op, taking the median of the REFERENCE_WINDOW reference
    runs around the op.  That cancels the host's speed and keeps the
    program's own cost: a cost of 2 ref means the op took as long as two
    runs of the reference.
    """
    lat_ms = [s * 1000.0 for s in run["latencies"]]
    cpu_ms = [s * 1000.0 for s in run["cpus"]]
    refs = run["references"]
    n = len(lat_ms)
    half = REFERENCE_WINDOW // 2
    scale = [statistics.median(refs[max(0, i - half): i + half + 1]) for i in range(n)]
    cost = [s / r for s, r in zip(run["latencies"], scale)]
    cpu_cost = [s / r for s, r in zip(run["cpus"], scale)]
    tail_ms, pct, beyond = tail(lat_ms)
    failed = len(run["failures"])
    values = {
        "op_cost_mean": statistics.fmean(cost),
        "op_cost_p50": statistics.median(cost),
        "op_cost_tail": tail(cost)[0],
        "cpu_cost_per_op": statistics.fmean(cpu_cost),
        "setup_s": setup_s,
        "peak_rss_mib": w.peak_rss_mib(),
    }
    raw = {
        "ops_per_s": n / run["busy_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "reference_ms": statistics.median(refs) * 1000.0,
        "samples": n,
        "cpu_ms_per_op": sum(cpu_ms) / n,
        "failed_ops_ratio": failed / n,
    }
    return values, {"raw": raw}


def per_layer(run: dict, import_ms: float, start_ms: float) -> dict:
    times = run["tracer"].self_times()
    for prop, layer in CONFIG["property_layers"].items():
        ms, calls = times.get(f"fuzzing.{prop}", (0.0, 0))
        total_ms, total_calls = times.get(f"fuzz.{layer}", (0.0, 0))
        times[f"fuzz.{layer}"] = (total_ms + ms, total_calls + calls)
    values = {}
    for span in SPANS:
        ms, calls = times.get(span, (0.0, 0))
        values[f"{span}.self_ms"] = ms
        values[f"{span}.calls"] = calls
    counts = run["counts"]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    values["cli.interpreter_start_ms"] = start_ms
    values["cli.import_ms"] = import_ms
    values["trace.overhead_ratio"] = run["traced_s"] / run["untraced_s"]
    values["trace.passes"] = run["passes"]
    return values


# ---------------------------------------------------------------------------


def provenance(args, breakdown: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "partmeas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cold_start_import_ms": breakdown,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    p.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env = use_checkout_sources()
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    w = workloads.make(args.workload, env, OUT / f"work-{os.getpid()}",
                       CONFIG["property_layers"])
    try:
        setup_s, setup_measured_s, breakdown = timed_setup(w, args.seed, env)
        if args.trace:
            run = traced_run(w, args.seed, args.seconds)
            metrics = per_layer(run, breakdown.get("partmeas.cli", 0.0),
                                interpreter_start_ms(env))
            units = per_layer_units()
            attempted = run["attempted"]
            extra = {"counts": dict(run["counts"]), "ops": run["ops"],
                     "spans": run["tracer"].dump()}
        else:
            run = timed_run(w, args.seed, args.seconds)
            metrics, extra = end_to_end(w, run, setup_s)
            extra["raw"]["setup_s"] = setup_measured_s
            units = END_TO_END
            attempted = len(run["latencies"])
            extra["mix"] = Counter(json.dumps(d, sort_keys=True) for d in run["ops"])
            extra["ops"] = [{**d, "ms": round(x * 1000.0, 4), "ref_ms": round(r * 1000.0, 4)}
                            for d, x, r in zip(run["ops"], run["latencies"],
                                               run["references"])]
    finally:
        w.close()

    failures = run["failures"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"provenance": provenance(args, breakdown), **result,
              "failures": failures[:50], **extra}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    for f in failures[:10]:
        print(f"bench: FAILED op {f['op']}: {'; '.join(f['problems'])}", file=sys.stderr)
    print(f"partmeas benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        raw = extra["raw"]
        print(f"  raw: ops_per_s {raw['ops_per_s']:.6g} 1/s, op_p50_ms "
              f"{raw['op_p50_ms']:.6g} ms, op_tail_ms {raw['op_tail_ms']:.6g} ms "
              f"(p{raw['op_tail_percentile']:.4g} of {raw['samples']} ops, "
              f"{raw['op_tail_samples_beyond']} beyond), cpu_ms_per_op "
              f"{raw['cpu_ms_per_op']:.6g} ms, setup_s {raw['setup_s']:.6g} s, "
              f"reference {raw['reference_ms']:.6g} ms, "
              f"failed_ops_ratio "
              f"{raw['failed_ops_ratio']:g} ({len(failures)} of {attempted} ops)")
        print("  mix: " + json.dumps(extra["mix"], sort_keys=True))
    print(f"  record: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
