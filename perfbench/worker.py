"""One repetition of a workload, in a fresh interpreter started by run.py.

    worker.py lib DIR RESULT SPANS   library queries on DIR/text.bin; SPANS is
                                     a path for the traced run, or '-'
    worker.py setup DIR              import circmatch, plan and build the
                                     index for DIR/pattern.txt, then exit
    worker.py cli-trace SPANS -- ARGS  the circmatch CLI, traced

The untraced CLI run does not come here: run.py starts the program's own
entry point.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def lib(directory: Path, result: Path, spans_path: str) -> None:
    t0 = time.perf_counter_ns()
    from circmatch import build_alphabet, build_index, plan, search

    t1 = time.perf_counter_ns()
    text = (directory / "text.bin").read_bytes()
    queries = json.loads((directory / "queries.json").read_text())
    alphabet = build_alphabet("dna")
    calls = {"plan": plan, "build_index": build_index, "search": search}
    tracer = None
    if spans_path != "-":
        from spans import Tracer, instrument

        tracer = Tracer()
        tracer.record("process.import", t0, t1)
        instrument(tracer, calls)
    setup = scan = 0.0
    rows = []
    for qi, (key, spec) in enumerate(queries.items()):
        pattern, k = spec["pattern"].encode(), spec["k"]
        if tracer is not None:
            tracer.query = qi
        a = time.perf_counter()
        pln = calls["plan"](len(pattern), k, alphabet)
        idx = calls["build_index"](pattern, pln.q, alphabet) if pln.mode == "filter" else None
        b = time.perf_counter()
        occs, _ = calls["search"](text, pattern, k, pln, idx)
        c = time.perf_counter()
        setup += b - a
        scan += c - b
        rows.extend(f"{key}\t{o.start}\t{o.length}\t{o.rotation}\t{o.distance}\n" for o in occs)
    (directory / "rows.tsv").write_text("".join(rows))
    out = {"import_s": (t1 - t0) / 1e9, "setup_s": setup, "scan_s": scan, "letters": len(text) * len(queries)}
    result.write_text(json.dumps(out))
    if tracer is not None:
        tracer.dump(spans_path)


def setup(directory: Path) -> None:
    from circmatch import build_alphabet, build_index, plan

    pattern = (directory / "pattern.txt").read_bytes()
    k = int((directory / "k.txt").read_text())
    alphabet = build_alphabet("dna")
    pln = plan(len(pattern), k, alphabet)
    if pln.mode == "filter":
        build_index(pattern, pln.q, alphabet)


def cli_trace(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter_ns()
    from circmatch import cli

    t1 = time.perf_counter_ns()
    from spans import Tracer, instrument

    tracer = Tracer()
    tracer.record("process.import", t0, t1)
    table = vars(cli)
    if "search" in table:
        search = table["search"]

        def next_record(*args, **kwargs):
            tracer.query += 1
            return search(*args, **kwargs)

        table["search"] = next_record

    def ingested(records, _):
        tracer.counts["cli.records"] += len(records)

    instrument(tracer, table)
    tracer.patch(cli, "_read_text_source", "cli.ingest")
    tracer.patch(cli, "_records_from_bytes", "cli.ingest", ingested)
    tracer.patch(cli, "run", "cli.run")
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "lib":
        lib(Path(rest[0]), Path(rest[1]), rest[2])
    elif mode == "setup":
        setup(Path(rest[0]))
    elif mode == "cli-trace" and rest[1] == "--":
        sys.exit(cli_trace(rest[0], rest[2:]))
    else:
        sys.exit(f"usage: {__doc__}")
