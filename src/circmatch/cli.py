"""Command-line front end.

Search usage (flags at top level), e.g.:

    circmatch --pattern ACGTACGT --text genome.fa -k 2 --alphabet dna --stats

`circmatch bench ...` runs the benchmark driver instead.

Output is one TSV row per occurrence: record, start, length, rotation,
distance.  Exit status follows grep: 0 when something was found, 1 when
nothing was, 2 on errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .alphabet import AlphabetError, build_alphabet, to_bytes
from .qgramindex import IndexBudgetError, QGramIndex, build_index, pattern_digest
from .searcher import PlanError, SearchPlan, SearchStats, check_overrides, plan, search

ORACLE_SCALE_LIMIT = 10**8
NEEDS_NUMPY = "numpy, the optional extra circmatch[reference]"


class FastaError(ValueError):
    pass


def ingest_fasta(stream) -> list[tuple[str, bytes]]:
    """Parse FASTA records from an iterable of text lines."""
    records: list[tuple[str, bytearray]] = []
    saw_any = False
    for raw in stream:
        line = raw.rstrip("\r\n")
        if not line:
            continue
        saw_any = True
        if line.startswith(">"):
            records.append((line[1:].split()[0] if line[1:].split() else "", bytearray()))
        else:
            if not records:
                raise FastaError("sequence line before any FASTA header")
            records[-1][1].extend(line.strip().encode("latin-1"))
    if not saw_any:
        raise FastaError("empty FASTA input")
    if not records:
        raise FastaError("no FASTA records found")
    return [(name, bytes(seq)) for name, seq in records]


class RunConfig:
    """One search run.  `text_records` is [(name, bytes)], `alphabet_spec`
    is "dna", "auto" or the letters as bytes (see `parse_alphabet`), and
    `mode` is auto, filter, verify-all or oracle."""

    def __init__(
        self,
        pattern: bytes,
        text_records: list,
        k: int,
        alphabet_spec: str | bytes = "auto",
        q: int | None = None,
        c: float | None = None,
        epsilon: float = 0.5,
        mode: str = "auto",
        stats: bool = False,
        index_cache: str | None = None,
        header: bool = False,
        strict: bool = False,
        fold_case: bool = False,
        out=None,
    ):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.pattern = pattern
        self.text_records = text_records
        self.k = k
        self.alphabet_spec = alphabet_spec
        self.q = q
        self.c = c
        self.epsilon = epsilon
        self.mode = mode
        self.stats = stats
        self.index_cache = index_cache
        self.header = header
        self.strict = strict
        self.fold_case = fold_case
        self.out = sys.stdout if out is None else out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


def parse_alphabet(arg: str) -> str | bytes:
    """The `--alphabet` argument as a `build_alphabet` spec: "dna" or
    "auto" in any case, or the letters of letters:STR as bytes, which
    `build_alphabet` always takes as a letter list."""
    if arg.lower() in ("dna", "auto"):
        return arg.lower()
    if arg.startswith("letters:"):
        return to_bytes(arg[len("letters:") :])
    raise ValueError(f"unknown alphabet {arg!r}; use dna, auto or letters:STR")


def _load_cached_index(cfg, alphabet, pattern):
    if not cfg.index_cache:
        return None
    try:
        idx = QGramIndex.load(cfg.index_cache)
    except FileNotFoundError:
        return None
    if idx.digest != pattern_digest(pattern):
        raise ValueError(
            "cached index was built for a different pattern; remove the cache file"
        )
    if idx.alphabet != alphabet:
        raise ValueError(
            "cached index was built for a different alphabet; remove the cache file"
        )
    if cfg.q is not None and idx.q != cfg.q:
        raise ValueError(f"cached index has q={idx.q} but q={cfg.q} was requested")
    return idx


def run(cfg: RunConfig) -> int:
    """Execute one search run; returns the process exit status."""
    out = cfg.out
    pattern = cfg.pattern.upper() if cfg.fold_case else cfg.pattern
    records = [
        (name, seq.upper() if cfg.fold_case else seq) for name, seq in cfg.text_records
    ]
    m = len(pattern)
    if m == 0:
        print("error: empty pattern", file=sys.stderr)
        return 2
    if cfg.k >= m:
        print(f"error: k={cfg.k} must be smaller than the pattern length {m}", file=sys.stderr)
        return 2
    data = [pattern] + [seq for _, seq in records]
    spec = cfg.alphabet_spec
    if cfg.fold_case and spec not in ("dna", "auto"):
        spec = spec.upper()
    try:
        alphabet = build_alphabet(spec, data=data)
    except AlphabetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.strict:
        for name, seq in records:
            for ch in set(seq):
                if alphabet.rank(ch) is None:
                    print(
                        f"error: record {name!r} contains letter {chr(ch)!r} outside the alphabet",
                        file=sys.stderr,
                    )
                    return 2
    totals = {"examined": 0, "verified": 0, "qgrams": 0, "chars": 0, "occ": 0}
    mode_used = cfg.mode
    found_any = False
    if cfg.header:
        out.write("record\tstart\tlength\trotation\tdistance\n")
    try:
        check_overrides(m, cfg.q, cfg.c, cfg.epsilon)
        if cfg.mode == "oracle":
            for name, seq in records:
                if len(seq) * m * m > ORACLE_SCALE_LIMIT:
                    print(
                        f"error: oracle mode refuses n*m^2 = {len(seq) * m * m} > {ORACLE_SCALE_LIMIT}",
                        file=sys.stderr,
                    )
                    return 2
            # imported here: the oracle needs numpy, which searching does not
            try:
                from .reference import oracle_search
            except ModuleNotFoundError as exc:
                print(f"error: oracle mode needs {NEEDS_NUMPY}: {exc}", file=sys.stderr)
                return 2
        else:
            if cfg.mode == "verify-all":
                pln = SearchPlan.verify_all(m, cfg.k, cfg.epsilon)
            else:
                pln = plan(m, cfg.k, alphabet, q=cfg.q, c=cfg.c, epsilon=cfg.epsilon)
                if cfg.mode == "filter" and pln.mode != "filter":
                    print(
                        "error: no feasible filter parameters; "
                        "c must satisfy k/(eps*m-k-q) <= c < 1 - e/sqrt(sigma) with d(c) > 0 "
                        "and the window must hold 2q + k/c",
                        file=sys.stderr,
                    )
                    return 2
            mode_used = pln.mode
            idx = None
            if pln.mode == "filter":
                idx = _load_cached_index(cfg, alphabet, pattern)
                if idx is not None and idx.q != pln.q:
                    # the cache fixes q; replan around it (raises if infeasible)
                    pln = plan(m, cfg.k, alphabet, q=idx.q, c=cfg.c, epsilon=cfg.epsilon)
                if idx is None:
                    idx = build_index(pattern, pln.q, alphabet)
                    if cfg.index_cache:
                        idx.save(cfg.index_cache)
        for name, seq in records:
            if cfg.mode == "oracle":
                occs, st = oracle_search(seq, pattern, cfg.k), SearchStats()
            else:
                occs, st = search(seq, pattern, cfg.k, pln, idx)
            found_any |= bool(occs)
            totals["examined"] += st.windows_examined
            totals["verified"] += st.windows_verified
            totals["qgrams"] += st.qgrams_read
            totals["chars"] += st.chars_inspected
            totals["occ"] += len(occs)
            for o in occs:
                out.write(f"{name}\t{o.start}\t{o.length}\t{o.rotation}\t{o.distance}\n")
    except (PlanError, IndexBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.stats:
        out.write(f"# mode={mode_used}\n")
        out.write(f"# windows_examined={totals['examined']}\n")
        out.write(f"# windows_verified={totals['verified']}\n")
        out.write(f"# qgrams_read={totals['qgrams']}\n")
        out.write(f"# chars_inspected={totals['chars']}\n")
        out.write(f"# occurrences_reported={totals['occ']}\n")
    return 0 if found_any else 1


def _read_text_source(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _records_from_bytes(blob: bytes) -> list[tuple[str, bytes]]:
    if blob.lstrip().startswith(b">"):
        lines = blob.decode("latin-1").splitlines()
        return ingest_fasta(lines)
    data = blob
    while data.endswith(b"\n") or data.endswith(b"\r"):
        data = data[:-1]
    return [("text", data)]


def _search_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="circmatch",
        description="Find factors of a text within edit distance k of any rotation of a pattern.",
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pattern", help="pattern given literally")
    g.add_argument("--pattern-file", help="file containing the pattern")
    p.add_argument("--text", required=True, help="text file, FASTA or plain ('-' for stdin)")
    p.add_argument("-k", type=int, default=0, help="maximum number of differences")
    p.add_argument(
        "--alphabet",
        default="auto",
        help="dna or auto (in any case), or letters:STR for an explicit ordered letter list",
    )
    p.add_argument("--q", type=int, default=None, help="override the q-gram length")
    p.add_argument("--c", type=float, default=None, help="override the difference-rate parameter")
    p.add_argument("--epsilon", type=float, default=0.5, help="window slack parameter in (0,1)")
    p.add_argument(
        "--mode",
        choices=["auto", "filter", "verify-all", "oracle"],
        default="auto",
    )
    p.add_argument("--stats", action="store_true", help="append a commented stats block")
    p.add_argument("--index-cache", default=None, help="path for reusing the q-gram index")
    p.add_argument("--header", action="store_true", help="emit a TSV header line")
    p.add_argument("--strict", action="store_true", help="reject letters outside the alphabet")
    p.add_argument("--fold-case", action="store_true", help="uppercase inputs at ingestion")
    return p


def _bench_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="circmatch bench", description="Scan-cost benchmark driver.")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairs", required=True, help="comma-separated m:k pairs, e.g. 64:2,128:4")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["auto", "verify-all"], default="auto")
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        # imported here: the benchmark's generator needs numpy
        try:
            from .bench import Experiment, format_table, run_experiment
        except ModuleNotFoundError as exc:
            print(f"error: circmatch bench needs {NEEDS_NUMPY}: {exc}", file=sys.stderr)
            return 2

        args = _bench_parser().parse_args(argv[1:])
        try:
            pairs = tuple(
                (int(mk.split(":")[0]), int(mk.split(":")[1])) for mk in args.pairs.split(",")
            )
            exp = Experiment(
                seed=args.seed, sigma=args.sigma, n=args.n, pairs=pairs,
                reps=args.reps, mode=args.mode,
            )
            sys.stdout.write(format_table(run_experiment(exp)))
        except (ValueError, PlanError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    args = _search_parser().parse_args(argv)
    try:
        if args.pattern is not None:
            pattern = to_bytes(args.pattern)
        else:
            raw = Path(args.pattern_file).read_bytes()
            while raw.endswith(b"\n") or raw.endswith(b"\r"):
                raw = raw[:-1]
            pattern = raw
        records = _records_from_bytes(_read_text_source(args.text))
        cfg = RunConfig(
            pattern=pattern,
            text_records=records,
            k=args.k,
            alphabet_spec=parse_alphabet(args.alphabet),
            q=args.q,
            c=args.c,
            epsilon=args.epsilon,
            mode=args.mode,
            stats=args.stats,
            index_cache=args.index_cache,
            header=args.header,
            strict=args.strict,
            fold_case=args.fold_case,
        )
    except (OSError, FastaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
