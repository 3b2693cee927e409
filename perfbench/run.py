"""freegeo benchmark: end-to-end times per workload, per-layer spans when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload small_n_chains --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload formulas_duality --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload large_n_ladder --seed 1 --seconds 1 --trace 0 --smoke

Workloads are defined in workloads.py.  The timed phase repeats passes, each
with fresh experiment seeds derived from --seed, until the next pass would end
after --seconds (at least three passes, exactly one with --smoke).  The
harness is closed-loop with a single caller.

--trace 0 prints every end-to-end metric: means over passes of the summed
operation wall time (wall_norm_s) and process CPU time over all threads
(cpu_norm_s), each operation's time rescaled by the reference probe around
it (see workloads.py) so that a tenant loading the host does not read as a
slower program; setup_s, the median of this process's set-up and two fresh
set-up processes; peak_rss_mib of this process; and ok_ratio, the share of
operations that neither raised nor failed their oracle (fail_ratio =
1 - ok_ratio is printed with its base).  Per-command times and the raw,
unscaled pass times are in the details line.

--trace 1 runs one untraced warm-up pass, then alternates an untraced and a
traced pass on the same inputs.  It checks that both give bit-identical oracle
values and that span counts match known ones, and prints per-layer counts and
self times (medians over traced passes), the tracing overhead, and the
per-command normalised wall times of the untraced passes.  Spans are written to
perfbench/_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the environment
block and the per-pass details.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
MIN_PASSES = 3
MAX_TIMED_S = 120.0  # keeps a run inside 180 s even if the machine stalls


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, one pass, no set-up probes")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only and print the set-up time (used by the harness)")
    return parser.parse_args(argv)


def _import_program():
    """Import freegeo from this checkout's src/, or fail without a result."""
    src = ROOT / "src"
    if not (src / "freegeo" / "__init__.py").is_file():
        raise SystemExit(f"error: no freegeo sources under {src}")
    sys.path.insert(0, str(src))
    import freegeo

    if Path(freegeo.__file__).resolve().parent != (src / "freegeo").resolve():
        raise SystemExit(f"error: imported freegeo from {freegeo.__file__}, not {src}")


def _setup_probe_seconds(args) -> list[float]:
    """Set-up time of fresh processes: interpreter, imports, inputs, warm-up."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
            + (["--smoke"] if args.smoke else []),
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _median(values) -> float:
    return float(statistics.median(values))


def _timed_passes(seconds: float, min_passes: int, run_pass):
    """Run passes until the next one, at the median pass time so far, would end
    after ``seconds``; always at least ``min_passes``, so that the median stays
    meaningful when one pass stalls, and never past MAX_TIMED_S."""
    results, durations = [], []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        results.append(run_pass(len(results)))
        durations.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - t0
        if elapsed > MAX_TIMED_S:
            return results
        if len(results) >= min_passes and elapsed + _median(durations) > seconds:
            return results


def _end_to_end(args, wl, setup_samples) -> tuple[dict, dict, list]:
    from workloads import PassRunner

    def one_pass(k):
        runner = PassRunner()
        wl.run_pass(runner, k)
        return runner

    runners = _timed_passes(args.seconds, 1 if args.smoke else MIN_PASSES, one_pass)
    records = [rec for r in runners for rec in r.records]
    attempted = len(records)
    failed = sum(not rec.ok for rec in records)
    metrics = {
        "wall_norm_s": (statistics.fmean(r.wall() for r in runners), "s"),
        "setup_s": (_median(setup_samples), "s"),
        "cpu_norm_s": (statistics.fmean(r.cpu() for r in runners), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "passes": len(runners),
        "fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "per_pass": [{"wall_norm_s": r.wall(), "cpu_norm_s": r.cpu(),
                      "raw_wall_s": r.wall(normalised=False), "raw_cpu_s": r.cpu(normalised=False),
                      **{k: v for k, v in r.group_seconds().items() if v},
                      "operations": [[rec.label, rec.wall, rec.scale] for rec in r.records]}
                     for r in runners],
        "setup_samples_s": setup_samples,
        "samples": {"setup_s (median)": len(setup_samples), "passes (mean)": len(runners)},
    }
    return metrics, details, records


def _traced(args, wl) -> tuple[dict, dict, list]:
    from tracing import Tracer, layer_metric_names, unit_of
    from workloads import COMMANDS, PassRunner

    last_tracer = []
    problems: list[str] = []

    def pair(k):
        plain = PassRunner()
        wl.run_pass(plain, k)
        tracer = Tracer()
        traced = PassRunner(tracer)
        tracer.install()
        try:
            wl.run_pass(traced, k)
        finally:
            tracer.uninstall()
        if plain.values() != traced.values():
            diff = [a[0] for a, b in zip(plain.values(), traced.values()) if a != b]
            problems.append(f"pass {k}: traced oracle values differ from untraced: {diff}")
            for rec in traced.records:
                rec.ok = rec.ok and rec.label not in diff
        for rec in traced.records:
            for ancestor, prefix, expected in rec.span_checks:
                got = tracer.descendants_per_ancestor(ancestor, prefix, op=rec.trace_op)
                if not got or any(c != expected for c in got):
                    rec.ok = False
                    problems.append(f"pass {k} {rec.label}: {prefix}* spans per {ancestor} "
                                    f"= {got}, expected {expected}")
        last_tracer[:] = [tracer]
        layers = tracer.layer_metrics()
        layers.update({f"command.{key}": value for key, value in plain.group_seconds().items()})
        return plain, traced, layers

    warm = PassRunner()  # the first pass pays one-time costs; keep them out of the overhead
    wl.run_pass(warm, 0)
    pairs = _timed_passes(args.seconds, 1, pair)
    last_tracer[0].save(HERE / "_out" / f"{wl.name}.spans.npz")
    records = warm.records + [rec for plain, traced, _ in pairs
                              for rec in plain.records + traced.records]
    attempted = len(records)
    failed = sum(not rec.ok for rec in records)
    overhead = (_median([traced.wall() for _, traced, _ in pairs])
                - _median([plain.wall() for plain, _, _ in pairs]))
    metrics = {"trace.overhead_s": (overhead, "s")}
    for name in layer_metric_names():
        metrics[name] = (_median([layers[name] for _, _, layers in pairs]), unit_of(name))
    for key in COMMANDS:
        name = f"command.{key}"
        metrics[name] = (_median([layers[name] for _, _, layers in pairs]), "s")
    details = {
        "passes": len(pairs),
        "fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "trace_problems": problems,
        "untraced_wall_norm_s": [plain.wall() for plain, _, _ in pairs],
        "traced_wall_norm_s": [traced.wall() for _, traced, _ in pairs],
        "spans_recorded": len(last_tracer[0].start),
        "median_samples": {"per-layer metrics": len(pairs)},
    }
    return metrics, details, records


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    sys.path.insert(0, str(HERE))
    from envinfo import environment
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{time.time_ns()}"
    try:
        wl = cls(workdir, args.seed, args.smoke)
        wl.setup()
        wl.warm_up()
        own_setup = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            metrics, details, records = _traced(args, wl)
        else:
            probes = [] if args.smoke else _setup_probe_seconds(args)
            metrics, details, records = _end_to_end(args, wl, [own_setup] + probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{rec.label}: {rec.error}" for rec in records if not rec.ok]
    correct = not failures and not details.get("trace_problems")
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "failures": failures[:20],
        "environment": environment(ROOT),
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    print(f"fail_ratio {details['fail_ratio']['value']} "
          f"({details['fail_ratio']['failed']}/{details['fail_ratio']['attempted']} operations)")
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps({"details": details, "metrics": metrics}, indent=1, default=str))
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(details["fail_ratio"]["attempted"]),
        "failed": int(details["fail_ratio"]["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
