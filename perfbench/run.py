"""storymetrics benchmark: one workload, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build|corpus|longform --seed N \\
        --seconds S --trace 0|1

The run sets up SETUP_REPEATS times, once in this process and the rest
in fresh interpreters (generate the inputs from the seed, import, warm
up; the median is reported), then runs timed passes for S seconds (at
least MIN_PASSES) and checks every output. With --trace 0
it reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates plain and traced passes and reports the per-layer metrics. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--record writes the digests of this run's file outputs to reference.json
(use it only with the reference seed, and only after checking the
outputs by other means).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from workloads import WORKLOADS, Cli, Op, Workload  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
IMPORT_REPEATS = 5
REFERENCE = HERE / "reference.json"
MODULES = ("model", "baseline", "suspense", "salience", "annotation", "evaluation",
           "alignment", "retrieval", "svgplot", "cli")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mib(in_process: bool) -> float:
    # ru_maxrss is in KiB on Linux. For a CLI workload it is the largest
    # child, which is a CLI command (set-up children are smaller).
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def set_up(wl: Workload, inputs_dir: Path, seed: int, cli: Cli) -> None:
    """Generate the inputs, then import and warm up."""
    inputs = gen.generate(wl.name, inputs_dir, seed)
    inputs["dir"] = inputs_dir
    wl.prepare(inputs, seed, cli)


def repeat_set_up(args, work: Path, own_s: float, own_inputs: Path) -> float:
    """Set up SETUP_REPEATS - 1 more times, each in a fresh interpreter,
    and return the median set-up time, this process's included. Every
    set-up must generate byte-identical inputs."""
    times, first = [own_s], _tree_digest(own_inputs)
    for k in range(SETUP_REPEATS - 1):
        inputs_dir = work / f"setup-{k}"
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", str(args.trace), "--setup-only", str(inputs_dir)],
            capture_output=True, text=True, timeout=170, check=True)
        times.append(float(proc.stdout.split()[-1]))
        if _tree_digest(inputs_dir) != first:
            raise RuntimeError("input generation is not deterministic for this seed")
        shutil.rmtree(inputs_dir)
    print("set-up s: " + " ".join(f"{t:.3f}" for t in times))
    return statistics.median(times)


class Pass:
    """One timed pass: wall time, CPU time and its checked ops."""

    def __init__(self, wl: Workload, out: Path, cli: Cli):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()  # so the previous pass's garbage is not collected during this one
        cpu0 = _cpu_s()
        start = time.perf_counter()
        self.ops: list[Op] = wl.run(out, cli)
        self.wall_s = time.perf_counter() - start
        self.cpu_s = _cpu_s() - cpu0
        wl.check(self.ops)
        self.digests = [op.digest() if op.error is None else None for op in self.ops]


def check_outputs(passes: list[Pass], workload: str, seed: int) -> None:
    """Outputs must be identical across passes; with the reference seed,
    each file-writing op must also match its recorded digest."""
    reference = json.loads(REFERENCE.read_text())
    ref = reference["digests"].get(workload, {}) if seed == reference["seed"] else None
    first = passes[0]
    for p in passes:
        if [op.name for op in p.ops] != [op.name for op in first.ops]:
            raise RuntimeError("passes ran different operations")
        for op, digest, first_digest in zip(p.ops, p.digests, first.digests):
            if op.error is not None:
                continue
            if digest != first_digest:
                op.error = "output differs from the first pass"
            elif ref is not None and op.outputs and ref.get(op.name) != digest:
                op.error = "output differs from the reference digest"


def record_reference(passes: list[Pass], workload: str, seed: int) -> None:
    reference = json.loads(REFERENCE.read_text())
    if seed != reference["seed"]:
        raise SystemExit(f"--record needs --seed {reference['seed']}")
    reference["digests"][workload] = {op.name: d for op, d in zip(passes[0].ops,
                                                                 passes[0].digests)
                                      if op.outputs}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def fresh_import_s() -> float:
    """`import storymetrics.cli` timed inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import storymetrics.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def src_lines(src: Path) -> dict[str, float]:
    counts = {}
    for path in sorted((src / "storymetrics").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    out = {f"src_lines.{m}": float(counts.get(m, 0)) for m in MODULES}
    out["src_lines.total"] = float(sum(counts.values()))
    return out


def end_to_end(wl: Workload, cli: Cli, passes: list[Pass], setup_s: float, attempted: int,
               failed: int) -> dict[str, float]:
    sentences = wl.sentences_per_pass
    return {
        "sentences_per_s": statistics.median(sentences / p.wall_s for p in passes),
        "cpu_ms_per_sentence": 1000.0 * sum(p.cpu_s for p in passes) / (sentences * len(passes)),
        "peak_rss_mb": _peak_rss_mib(cli.in_process),
        "setup_s": setup_s,
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(wl: Workload, out: Path, cli: Cli, seconds: float, src: Path):
    """Alternate plain and traced passes for `seconds`; returns all passes
    and the per-layer values (medians over the traced passes)."""
    from instrument import derived, instrument
    from spans import Recorder, covered_length, self_times

    import_s = statistics.median(fresh_import_s() for _ in range(IMPORT_REPEATS))
    rec = Recorder()
    plain, traced, samples = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(Pass(wl, out, cli))
            continue
        rec.clear()
        with instrument(rec):
            p = Pass(wl, out, cli)
        traced.append(p)
        spans = list(rec.spans)
        sample = {f"{name}.s": v for name, v in self_times(spans).items()}
        sample.update(rec.counts)
        sample.update(derived(rec.counts))
        roots = [(s.start, s.end) for s in spans if s.parent is None]
        sample["trace.unattributed_s"] = p.wall_s - covered_length(roots)
        samples.append(sample)

    values = {name: statistics.median(s.get(name, 0.0) for s in samples)
              for name in set().union(*samples)}
    plain_s = statistics.median(p.wall_s for p in plain)
    traced_s = statistics.median(p.wall_s for p in traced)
    values.update({"cli.import_s": import_s, "trace.untraced_pass_s": plain_s,
                   "trace.traced_pass_s": traced_s, "trace.overhead_s": traced_s - plain_s})
    values.update(src_lines(src))
    return plain + traced, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests as the reference")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up into DIR, print the set-up time and exit "
                             "(the run itself does this in fresh interpreters)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "storymetrics" / "__init__.py").is_file():
        print("perfbench: ./src/storymetrics not found; run from the root of a "
              "storymetrics checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    narr_threads = os.environ.pop("NARR_THREADS", None)  # measure the users' default

    # Traced corpus passes call cli.main in-process, so spans can be recorded.
    cli = Cli(in_process=args.workload != "corpus" or args.trace == 1)
    wl = WORKLOADS[args.workload]()
    if args.setup_only:
        set_up(wl, Path(args.setup_only), args.seed, cli)
        print(time.perf_counter() - PROCESS_START)
        return 0
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        set_up(wl, work / "inputs", args.seed, cli)
        setup_s = repeat_set_up(args, work, time.perf_counter() - PROCESS_START,
                                work / "inputs")
        import storymetrics
        if not Path(storymetrics.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"imported storymetrics from {storymetrics.__file__}, not ./src")
        if args.trace:
            passes, layer_values = per_layer(wl, work / "out", cli, args.seconds, src)
        else:
            passes = []
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                passes.append(Pass(wl, work / "out", cli))
        check_outputs(passes, wl.name, args.seed)
        if args.record:
            record_reference(passes, wl.name, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run, or never made
            work.parent.rmdir()

    ops = [op for p in passes for op in p.ops]
    failures = [op for op in ops if op.error is not None]
    attempted, failed = len(ops), len(failures)
    for op in failures[:10]:
        print(f"FAILED {op.name}: {op.error}")
    print(f"perfbench workload={wl.name} seed={args.seed} passes={len(passes)} "
          f"sentences/pass={wl.sentences_per_pass} nproc={os.cpu_count()} "
          f"NARR_THREADS={narr_threads or 'unset (default)'} "
          f"error_rate={failed / attempted:.6g} ({failed}/{attempted} ops failed)")
    if args.trace:
        names = spec["per_layer"]
        values = layer_values
    else:
        names = spec["end_to_end"]
        values = end_to_end(wl, cli, passes, setup_s, attempted, failed)
        print("pass wall s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    metrics = {}
    for m in names:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<48} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
