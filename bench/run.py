"""Benchmark of boxpaths: four workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-verify-floor

Run from the root of a source checkout; the program is imported from
src/, and CLI commands run in-process through cli.main.  The timed run
(--trace 0) repeats whole rounds of the workload for S seconds and
reports the end-to-end metrics.  The traced run (--trace 1) runs the
same rounds, first untraced for a share of S and then traced, and
reports the per-layer metrics and, on stderr and in .bench_out/, the
dominant layer and the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEAT = 5
STARTUP_REPEAT = 3
CHILD_TIMEOUT = 150
UNTRACED_SHARE = 0.3


def _load_program():
    """Import boxpaths from this checkout's src/, or exit with an error."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import boxpaths
    except ImportError as exc:
        sys.exit(f"error: cannot import boxpaths from {SRC}: {exc}")
    if SRC.resolve() not in Path(boxpaths.__file__).resolve().parents:
        sys.exit(f"error: boxpaths was imported from {boxpaths.__file__}, not {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Env:
    """How a round reaches the program: CLI commands in-process, and the
    tracer's round spans in the traced run."""

    def __init__(self, log):
        self.tracer = None
        self.log = log

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run one boxpaths command in-process through cli.main, stdout
        captured; returns the exit code and stdout."""
        from boxpaths import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def startup_s(rec) -> float:
    """Wall time of a trivial command in a fresh interpreter (start,
    import and argparse): the median of a few."""
    times = []
    for _ in range(STARTUP_REPEAT):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "boxpaths", "count", "--k", "1", "--n", "1"],
                              cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT)
        times.append(time.perf_counter() - t0)
        rec.expect(proc.returncode == 0 and proc.stdout == b"1\n", "count --k 1 --n 1 did not print 1")
    return statistics.median(times)


def run_rounds(wl, rec, env, seconds: float, span: bool = False, between=None) -> list[float]:
    """Whole rounds until `seconds` have passed; returns each round's time.
    `between` runs after each round, untimed."""
    times = []
    start = time.perf_counter()
    while True:
        failed_before = rec.failed
        t0 = time.perf_counter()
        try:
            with env.span("bench.round") if span else contextlib.nullcontext():
                wl.round(rec, env)
        except Exception:  # noqa: BLE001 - the whole round counts as failed
            traceback.print_exc(file=env.log)
            rec.failed = failed_before + wl.ops_per_round
        times.append(time.perf_counter() - t0)
        rec.attempted += wl.ops_per_round
        if between:
            between()
        if time.perf_counter() - start >= seconds:
            return times


def time_setup(rec, workload: str, seed: int) -> None:
    """Time a fresh interpreter that imports the program and builds the
    workload's inputs."""
    from workloads import Stopwatch

    watch = Stopwatch()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-only"],
                   cwd=ROOT, env=_child_env(), check=True, timeout=CHILD_TIMEOUT)
    raw, scaled = watch.stop()
    rec.sample("setup_s", scaled)
    rec.sample("setup_s.raw", raw)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def end_to_end(rec) -> dict:
    return {"setup_s": (rec.median("setup_s"), "s"), "round_s": (rec.round_s(), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def traced_run(wl, rec, seconds: float, seed: int) -> dict:
    from tracer import LAYERS, Stat, Tracer

    env = Env(log=sys.stderr)
    # the same in-process rounds without and then with the wrappers; the
    # difference of their medians is the tracing overhead
    t0 = time.perf_counter()
    untraced = statistics.median(run_rounds(wl, rec, env, UNTRACED_SHARE * seconds))
    tracer = Tracer()
    tracer.install()
    env.tracer = tracer
    try:
        traced = statistics.median(
            run_rounds(wl, rec, env, seconds - (time.perf_counter() - t0), span=True))
    finally:
        tracer.uninstall()
    rounds = tracer.stat("bench.round")
    layers = tracer.by_layer()
    # shares are of the program's time, the layers' self times summed, so
    # that the benchmark's own work in a round does not dilute them
    program = sum(layers[layer].self_time for layer in LAYERS if layer in layers)
    metrics = {"cli.startup_s": (startup_s(rec), "s")}
    for layer in LAYERS:
        st = layers.get(layer, Stat())
        metrics[f"{layer}.calls"] = (st.calls / rounds.calls, "count")
        metrics[f"{layer}.self_pct"] = (100 * st.self_time / program, "%")
    metrics["series.mul.calls"] = (tracer.stat("series.mul").calls / rounds.calls, "count")
    overhead = traced - untraced
    metrics["trace.overhead_pct"] = (100 * overhead / untraced, "%")
    share = {layer: metrics[f"{layer}.self_pct"][0] for layer in LAYERS}
    dominant = max(share, key=share.get)
    summary = {
        "workload": wl.name, "seed": seed, "traced_rounds": rounds.calls,
        "untraced_round_s": untraced, "traced_round_s": traced,
        "overhead_s": overhead, "dominant_layer": dominant, "self_pct": share,
        "spans_kept": len(tracer.spans),
    }
    tracer.dump(OUT / f"trace-{wl.name}-seed{seed}.json", summary)
    shares = ", ".join(f"{k} {v:.1f}%" for k, v in sorted(share.items(), key=lambda kv: -kv[1]) if v)
    print(f"trace {wl.name}: dominant layer {dominant}; self time per round: {shares}; "
          f"overhead {overhead:.3f} s on {untraced:.3f} s untraced", file=sys.stderr)
    return metrics


def write_verify_floor() -> None:
    from workloads import VERIFY_FLOOR, parse_verify

    code, out = Env(log=sys.stderr).cli(["verify"])
    cases, problems = parse_verify(code, out)
    if problems:
        sys.exit("error: verify did not pass:\n" + "\n".join(problems))
    lines = ["# verify check and its case count at the default depth; the",
             "# verify-default workload needs every check with at least these",
             "# cases.  Regenerate: python3 bench/run.py --write-verify-floor"]
    lines += [f"{name} {n}" for name, n in cases.items()]
    VERIFY_FLOOR.write_text("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, build the inputs and exit")
    parser.add_argument("--write-verify-floor", action="store_true",
                        help="rewrite verify_floor.txt from today's verify output")
    args = parser.parse_args()
    _load_program()
    if args.write_verify_floor:
        write_verify_floor()
        return 0
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed)
        return 0
    rec = Recorder()
    if args.trace:
        metrics = traced_run(cls(args.seed), rec, args.seconds, args.seed)
    else:
        # set-up runs before the timed phase and again after every round, so
        # that its median covers the whole run, as the other medians do
        for _ in range(SETUP_REPEAT):
            time_setup(rec, args.workload, args.seed)
        wl = cls(args.seed)
        times = run_rounds(wl, rec, Env(log=sys.stderr), args.seconds,
                           between=lambda: time_setup(rec, args.workload, args.seed))
        metrics = end_to_end(rec)
        print(f"{wl.name}: {len(times)} rounds; samples and median: "
              + "; ".join(f"{k} {len(v)} {statistics.median(v):.4g}" for k, v in rec.samples.items()),
              file=sys.stderr)
    for message in rec.problems[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
