"""End-to-end benchmark of the zipfent command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are declared in BENCHMARK.json; bench/README.md
says why each was chosen and which metric each layer should move.

Set-up builds the workload's inputs from the seed and works out the expected
outputs without zipfent.  Then, in a closed loop with one client, the
benchmark spawns ``python -m zipfent`` one invocation at a time until their
wall times add up to ``--seconds``, reads each child's ``ru_maxrss`` with
``os.wait4`` and checks its output.  Between invocations it times the
set-up of fresh children.  The first output gets the full check;
every later one must be byte-identical to it.  ``--trace 1`` instead runs
the workload once untraced and then, for the rest of the time, in-process
under ``tracer.py``, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the spans of
a traced run, goes to .bench-work/results/.  The exit code is 0 when every
invocation passed its checks, 1 when one did not, and 2 when the checkout
holds no zipfent sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = SRC / "zipfent" / "schemas" / "analysis_report.schema.json"
WORK = ROOT / ".bench-work"

# No single invocation may run longer than this; the child is killed.
INVOCATION_TIMEOUT_S = 120
# Edge probes run with this address-space limit, so a probe that tries to
# materialize a huge corpus fails instead of exhausting the machine.
PROBE_MEMORY_BYTES = 2 << 30
# Set-up samples per timed run.  One takes about 0.1 s.  A set-up is short,
# so a single sample reads the machine's speed of the moment; only the median
# of many, spread over the run, is steady from run to run.
SETUP_SAMPLES = 40

# Input sizes.  analyze_large matches the ROADMAP baseline: 5M tokens,
# vocabulary ~192k.  The benchmark's own tests replace this with small sizes.
SIZE = {
    "large_tokens": 5_000_000, "ranks": 200_000, "files": 400, "file_tokens": 2_500,
    "sweep_a": (1.0, 1.5, 2.0), "sweep_b": (-1.0, 4.0, 8.0, 12.0, 14.0),
    "gen_a": 1.0, "gen_b": 8.5,
}

# Each ends today in an uncaught OverflowError from the law's k_max.
SWEEP_PROBES = (["sweep", "--a", "1", "--b", "800"], ["sweep", "--a", "1", "--b", "inf"])
# `gen --a 1 --b 14` is left out: it would build ~1.4e12 tokens in a list.
GEN_PROBES = (["gen", "--a", "1", "--b", "inf"],)

SETUP_CODE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
import zipfent.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        zipfent.cli.main(["--help"])
    except SystemExit:
        pass
print(time.perf_counter() - t0, zipfent.cli.__file__)
"""


@dataclass
class Workload:
    argv: list[str]
    check: Callable[[Path], None]  # full check of one output file
    tokens: float  # tokens counted, written or (sweep) described by the spectra
    points: int  # spectrum points built
    probes: tuple = ()


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    exit_code: int
    stderr: str
    output: Path


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


# --- workloads -------------------------------------------------------------


def prepare_analyze_large(work: Path, seed: int) -> Workload:
    stats = inputs.write_zipf_text(work / "corpus.txt", seed, SIZE["large_tokens"], SIZE["ranks"])
    validator = checks.load_validator(SCHEMA)
    return Workload(
        argv=["analyze", "corpus.txt"],
        check=lambda out: checks.check_analyze(out.read_bytes(), stats, "corpus.txt", validator),
        tokens=stats.n_tokens,
        points=stats.distinct_k,
    )


def prepare_analyze_per_file(work: Path, seed: int) -> Workload:
    names = [f"doc{i:03d}.txt" for i in range(SIZE["files"])]
    stats = inputs.write_zipf_files([work / n for n in names], seed, SIZE["file_tokens"], SIZE["ranks"])
    validator = checks.load_validator(SCHEMA)
    return Workload(
        argv=["analyze", "--per-file", *names],
        check=lambda out: checks.check_analyze_per_file(out.read_bytes(), stats, names, validator),
        tokens=sum(s.n_tokens for s in stats),
        points=sum(s.distinct_k for s in stats),
    )


def prepare_sweep_grid(work: Path, seed: int) -> Workload:
    # sweep takes no input: the grid fixes the work, and the seed changes
    # nothing.  (Shuffling the grid by seed moved peak RSS by 5%.)
    a_grid, b_grid = SIZE["sweep_a"], SIZE["sweep_b"]
    cells = [(a, b) for a in a_grid for b in b_grid]
    expected = {(a, b): inputs.exact_law_tokens(a, b) for a, b in cells if b >= 0}
    return Workload(
        argv=["sweep", "--mode", "exact",
              "--a=" + ",".join(f"{a:g}" for a in a_grid), "--b=" + ",".join(f"{b:g}" for b in b_grid)],
        check=lambda out: checks.check_sweep(out.read_bytes(), cells, expected),
        tokens=sum(n for _, n in expected.values()),
        points=sum(k for k, _ in expected.values()),
        probes=SWEEP_PROBES,
    )


def prepare_gen_corpus(work: Path, seed: int) -> Workload:
    # gen takes no input: (a, b) fix the corpus, and the seed changes nothing.
    a, b = SIZE["gen_a"], SIZE["gen_b"]
    k_max, tokens, words = inputs.rounded_law_corpus(a, b)
    return Workload(
        argv=["gen", "--mode", "rounded", "--a", f"{a:g}", "--b", f"{b:g}"],
        check=lambda out: checks.check_gen_corpus(out, tokens, words),
        tokens=tokens,
        points=k_max,
        probes=GEN_PROBES,
    )


WORKLOADS = {
    "analyze_large": prepare_analyze_large,
    "analyze_per_file": prepare_analyze_per_file,
    "sweep_grid": prepare_sweep_grid,
    "gen_corpus": prepare_gen_corpus,
}


# --- running zipfent -------------------------------------------------------


class Runner:
    """Runs commands in the work directory, one at a time, through ``launcher.py``."""

    def __init__(self, work: Path):
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=INVOCATION_TIMEOUT_S)
        self._launcher.stdout.close()

    def spawn(self, cmd: list[str], out: Path, memory_limit: int | None = None) -> Invocation:
        """Run cmd to exit, stdout to ``out``; wall time is spawn to exit."""
        err = self.work / "stderr.txt"
        request = {"cmd": cmd, "out": str(out), "err": str(err),
                   "memory_limit": memory_limit, "timeout_s": INVOCATION_TIMEOUT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        r = json.loads(reply)
        return Invocation(r["wall_s"], r["rss_mb"], r["exit_code"], err.read_text("utf-8", "replace"), out)

    def zipfent(self, argv: list[str], out: Path, memory_limit: int | None = None) -> Invocation:
        return self.spawn([sys.executable, "-m", "zipfent", *argv], out, memory_limit)

    def traced(self, argv: list[str], out: Path, spans: Path) -> Invocation:
        return self.spawn([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *argv], out)

    def setup_time(self) -> float:
        """Import of zipfent.cli plus parser construction, timed inside a fresh child."""
        out = self.work / "setup.out"
        inv = self.spawn([sys.executable, "-c", SETUP_CODE], out)
        if inv.exit_code != 0:
            raise RuntimeError(f"set-up child failed: {inv.stderr.strip()[-500:]}")
        seconds, module = out.read_text("utf-8").split()
        if not Path(module).resolve().is_relative_to(SRC):
            raise RuntimeError(f"zipfent was imported from {module}, not from {SRC}")
        return float(seconds)


class Verifier:
    """Full check of the first output; every later output must equal it byte for byte."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.digest = None

    def __call__(self, inv: Invocation, tally: Tally) -> bool:
        tally.attempted += 1
        try:
            if inv.exit_code != 0:
                raise checks.CheckError(f"exit code {inv.exit_code}: {inv.stderr.strip()[-500:]}")
            if "Traceback" in inv.stderr:
                raise checks.CheckError(f"traceback on stderr: {inv.stderr.strip()[-500:]}")
            with open(inv.output, "rb") as f:
                digest = hashlib.file_digest(f, "sha256").hexdigest()
            if self.digest is None:
                self.workload.check(inv.output)
                self.digest = digest
            elif digest != self.digest:
                raise checks.CheckError("output differs from the first invocation's")
        except checks.CheckError as exc:
            tally.failed += 1
            tally.errors.append(str(exc))
            print(f"bench: check failed: {exc}", file=sys.stderr)
            return False
        return True


def run_probes(runner: Runner, probes) -> list[dict]:
    """Edge probes, untimed: each must end with exit code 0-3 and no traceback."""
    results = []
    for argv in probes:
        inv = runner.zipfent(argv, runner.work / "probe.out", memory_limit=PROBE_MEMORY_BYTES)
        ok = inv.exit_code in (0, 1, 2, 3) and "Traceback" not in inv.stderr
        last = inv.stderr.strip().splitlines()[-1:] or [""]
        results.append({"argv": argv, "ok": ok, "exit_code": inv.exit_code, "stderr_last_line": last[0]})
    return results


# --- measuring -------------------------------------------------------------


def timed_run(runner: Runner, wl: Workload, seconds: float, tally: Tally) -> dict:
    """Invocations until their wall times add up to ``seconds``, with set-up samples between them."""
    runner.setup_time()  # warm-up: byte-compiles the sources
    verify = Verifier(wl)
    setup, walls, rss = [], [], []
    measured = 0.0
    while measured < seconds:
        inv = runner.zipfent(wl.argv, runner.work / "out")
        measured += inv.wall_s
        if verify(inv, tally):
            walls.append(inv.wall_s)
            rss.append(inv.rss_mb)
        # Set-up samples keep pace with the invocations, so that they spread
        # over the run instead of falling into one slow spell of the machine.
        while len(setup) < SETUP_SAMPLES * min(1.0, measured / seconds):
            setup.append(runner.setup_time())
    record = {"wall_s_samples": walls, "peak_rss_mb_samples": rss, "setup_s_samples": setup}
    if walls:
        wall = statistics.median(walls)
        record["metrics"] = {
            "wall_s": wall,
            "tokens_per_s": wl.tokens / wall,
            "points_per_s": wl.points / wall,
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
        }
    return record


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per span name: total time ``.s``, self time ``.self_s``, summed counts, max ``.rss_mb``.

    Self time is a span's duration minus its children's; spans of one
    thread never overlap, so the children's durations add up.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, inner in zip(spans, child_time):
        name, dur = s["name"], s["end"] - s["start"]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - inner
        for k, v in s.get("counts", {}).items():
            out[f"{name}.{k}"] = out.get(f"{name}.{k}", 0) + v
        if "rss_mb" in s:
            out[f"{name}.rss_mb"] = max(out.get(f"{name}.rss_mb", 0.0), s["rss_mb"])
    return out


def traced_run(runner: Runner, wl: Workload, seconds: float, tally: Tally) -> dict:
    verify = Verifier(wl)
    deadline = time.perf_counter() + seconds
    untraced = runner.zipfent(wl.argv, runner.work / "out")
    verify(untraced, tally)
    runs = []
    while True:
        spans_path = runner.work / "spans.json"
        inv = runner.traced(wl.argv, runner.work / "out", spans_path)
        if verify(inv, tally):
            spans = json.loads(spans_path.read_text("utf-8"))["spans"]
            layers = layer_metrics(spans)
            main_s = layers.get("cli.main.s", 0.0)
            layers.update({
                "cli.output.bytes": inv.output.stat().st_size,
                "trace.untraced_wall_s": untraced.wall_s,
                "trace.traced_wall_s": inv.wall_s,
                "trace.overhead_s": inv.wall_s - untraced.wall_s,
                "trace.span_coverage": 1 - layers.get("cli.main.self_s", 0.0) / main_s if main_s else 0.0,
            })
            runs.append({"wall_s": inv.wall_s, "layers": layers, "spans": spans})
        if time.perf_counter() >= deadline:
            break
    record = {"untraced_wall_s": untraced.wall_s, "traced_runs": runs}
    if runs:
        names = set().union(*(r["layers"] for r in runs))
        record["metrics"] = {n: statistics.median(r["layers"].get(n, 0) for r in runs) for n in names}
    return record


# --- reporting -------------------------------------------------------------


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any lies above the median."""
    n = len(samples)
    if n <= 20:
        return f"none above the median ({n} samples; one needs more than 20)"
    return f"p{100 * (n - 10) / n:.0f} = {sorted(samples)[n - 11]:.6f} s ({n} samples)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zipfent" / "cli.py").is_file():
        print(f"bench: no zipfent sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    runner = Runner(work)
    try:
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](work, args.seed)
        input_s = time.perf_counter() - t0
        measure = traced_run if args.trace else timed_run
        record = measure(runner, wl, args.seconds, tally)
        probes = run_probes(runner, wl.probes)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    measured = record.pop("metrics", None)
    if measured is not None:
        measured["edge.probes"] = len(probes)
        measured["edge.probe_failures"] = sum(not p["ok"] for p in probes)
    correct = tally.failed == 0 and measured is not None
    metrics = {}
    if measured is not None:
        for m in declared:
            metrics[m["name"]] = {"value": measured.get(m["name"], 0), "unit": m["unit"]}
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}

    env = environment()
    print(f"zipfent bench: workload={args.workload} seed={args.seed} trace={args.trace}"
          f" python={env['python']} nproc={env['nproc']} git={env['git_sha']} src={env['src_sha256'][:12]}")
    print(f"input set-up: {input_s:.2f} s; invocations: {tally.attempted} attempted, {tally.failed} failed")
    if not args.trace and "wall_s_samples" in record:
        print(f"wall_s: median of {len(record['wall_s_samples'])} samples;"
              f" higher percentile: {high_percentile(record['wall_s_samples'])}")
    if tally.attempted:
        print(f"failed_share: {tally.failed / tally.attempted:.4f} of timed invocations;"
              f" edge probes: {sum(not p['ok'] for p in probes)} of {len(probes)} failed")
    for p in probes:
        status = "ok" if p["ok"] else "FAILED"
        print(f"edge probe {' '.join(p['argv'])}: {status} (exit {p['exit_code']}) {p['stderr_last_line']}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>20.6f} {m['unit']}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "environment": env, "errors": tally.errors,
                               "probes": probes, "input_setup_s": input_s, **record}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
