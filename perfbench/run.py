"""circmatch benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload filter-dna --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The inputs are generated from the seed (gen.py) and written once
under perfbench/.work.  Each repetition runs in a fresh interpreter, one at
a time, single-threaded, and repetitions go on until --seconds is used up.
Every output is checked (check.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
medians over repetitions of the end-to-end metrics (--trace 0) or of the
per-layer metrics from a traced run (--trace 1, spans.py).

Workloads (see gen.WORKLOADS):
  filter-dna      library, 2M-letter text, 32:1 64:2 128:4, filter plans
  verify-all-dna  library, 20k-letter text, 32:4 64:8, verify-all plans
  reads-cli       the circmatch CLI on 500 FASTA reads, 48:2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_rows
from gen import WORKLOADS, Inputs, generate, stream
from spans import SPAN_METRICS, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
# the console script `circmatch`, spelled out so no install is needed
CLI_MAIN = "import sys; from circmatch.cli import main; sys.exit(main())"
SAMPLE_ROWS = 200
CHILD_TIMEOUT_S = 150
LIBRARY_TOP = {"searcher.plan", "qgramindex.build_index", "searcher.search"}
# per-layer counters reported as they are; ratios are added in layer_metrics
COUNTERS = [
    "qgramindex.entries", "searcher.plan_filter_queries", "searcher.filter_calls",
    "searcher.windows_examined", "searcher.windows_verified", "searcher.qgrams_read",
    "verifier.blocks", "verifier.hit_blocks", "bitparallel.screen_passes",
    "vectordp.band_calls", "verifier.rows_in", "verifier.rows_out", "cli.records",
]


class RepError(RuntimeError):
    pass


@dataclass
class Rep:
    wall_s: float
    setup_s: float
    scan_mchars_s: float
    peak_rss_mb: float
    status: int
    tsv: bytes
    trace: dict | None = None  # spans and counts of a traced repetition
    traced_wall_s: float = 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list[str], stdout: Path | None = None) -> tuple[float, float, int]:
    """Run cmd to completion: (seconds from spawn to exit, peak RSS in MB,
    exit status)."""
    with open(stdout or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024, proc.returncode


def library_rep(work: Path, traced: bool) -> Rep:
    result, spans = work / "rep.json", work / "spans.json"
    spans.unlink(missing_ok=True)
    _, rss, status = spawn([sys.executable, WORKER, "lib", str(work), str(result), str(spans) if traced else "-"])
    if status != 0:
        raise RepError(f"library worker exited with status {status}")
    r = json.loads(result.read_text())
    setup = r["import_s"] + r["setup_s"]
    rep = Rep(setup + r["scan_s"], setup, r["letters"] / r["scan_s"] / 1e6, rss, status, (work / "rows.tsv").read_bytes())
    if traced:
        rep.trace = json.loads(spans.read_text())
        top = sum(e - s for name, s, e, parent, _ in rep.trace["spans"] if parent < 0 and name in LIBRARY_TOP)
        rep.traced_wall_s = r["import_s"] + top / 1e9
    return rep


def cli_rep(work: Path, inputs: Inputs, traced: bool) -> Rep:
    setup, _, status = spawn([sys.executable, WORKER, "setup", str(work)])
    if status != 0:
        raise RepError(f"setup probe exited with status {status}")
    ((pattern, k),) = inputs.queries.values()
    args = ["--pattern", pattern.decode(), "--text", str(work / "reads.fa"), "-k", str(k), "--alphabet", "dna"]
    spans = work / "spans.json"
    spans.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, WORKER, "cli-trace", str(spans), "--", *args]
    else:
        cmd = [sys.executable, "-c", CLI_MAIN, *args]
    wall, rss, status = spawn(cmd, work / "rows.tsv")
    letters = sum(len(t) for t in inputs.texts.values())
    rep = Rep(wall, setup, letters / wall / 1e6, rss, status, (work / "rows.tsv").read_bytes())
    if traced:
        rep.trace = json.loads(spans.read_text())
        rep.traced_wall_s = wall
    return rep


def layer_metrics(rep: Rep) -> dict:
    """Per-layer values of one traced repetition."""
    selfs = self_times(rep.trace["spans"])
    out = {metric: selfs.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    c = rep.trace["counts"]
    out.update({name: c.get(name, 0) for name in COUNTERS})
    out["searcher.verify_rate"] = c.get("searcher.windows_verified", 0) / max(1, c.get("searcher.windows_examined", 0))
    out["searcher.chars_per_letter"] = c.get("searcher.chars_inspected", 0) / max(1, c.get("searcher.letters", 0))
    out["verifier.hit_rate"] = c.get("verifier.hit_blocks", 0) / max(1, c.get("verifier.blocks", 0))
    out["bitparallel.passes_per_block"] = c.get("bitparallel.screen_passes", 0) / max(1, c.get("verifier.blocks", 0))
    out["cli.rows_written"] = rep.tsv.count(b"\n") if "cli.run" in selfs else 0
    out["trace.coverage"] = sum(selfs.get(span, 0.0) for span in SPAN_METRICS) / rep.traced_wall_s
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    inputs = generate(workload, seed)
    work = HERE / ".work" / f"{workload}-{seed}"
    inputs.write(work)

    def one(with_trace: bool) -> Rep:
        if inputs.kind == "library":
            return library_rep(work, with_trace)
        return cli_rep(work, inputs, with_trace)

    plain, traced_reps = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        plain.append(one(False))
        if traced:
            traced_reps.append(one(True))
        if time.perf_counter() - start + (time.perf_counter() - t) > seconds:
            break

    first = plain[0]
    checks = check_rows(inputs, first.tsv, stream(workload, seed, "sample"), SAMPLE_ROWS)
    digest = hashlib.sha256(first.tsv).hexdigest()
    for rep in plain + traced_reps:
        checks.expect(rep.status == 0, f"exit status {rep.status}")
        checks.expect(rep.tsv == first.tsv, "output differs between repetitions")
    rows = first.tsv.count(b"\n")
    print(f"{workload} seed {seed}: {len(plain)} reps, {rows} rows, sha256 {digest}")
    print("wall_s per rep: " + " ".join(f"{r.wall_s:.3f}" for r in plain))
    print("setup_s per rep: " + " ".join(f"{r.setup_s:.3f}" for r in plain))

    if not traced:
        metrics = {
            name: (statistics.median(getattr(r, name) for r in plain), unit)
            for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("scan_mchars_s", "Mchar/s"), ("peak_rss_mb", "MB"))
        }
    else:
        layers = [layer_metrics(r) for r in traced_reps]
        for name in COUNTERS:
            checks.expect(len({lay[name] for lay in layers}) == 1, f"counter {name} differs between repetitions")
        recorded = sorted({s[0] for r in traced_reps for s in r.trace["spans"]})
        print(f"spans recorded: {', '.join(recorded)}")
        missing = sorted({m for r in traced_reps for m in r.trace["missing"]})
        if missing:
            print(f"spans missing (function not found): {', '.join(missing)}")
        metrics = {name: (statistics.median(lay[name] for lay in layers), unit_of(name)) for name in layers[0]}
        overhead = statistics.median(r.traced_wall_s for r in traced_reps) / statistics.median(r.wall_s for r in plain)
        metrics["trace.overhead"] = (overhead, "ratio")
    print(f"checks: {checks.attempted - checks.failed}/{checks.attempted} passed")
    for problem in checks.problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in COUNTERS or name == "cli.rows_written":
        return "count"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "circmatch" / "__init__.py").is_file():
        print(f"error: no circmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
