"""Command-line front end.

Search usage (flags at top level), e.g.:

    circmatch --pattern ACGTACGT --text genome.fa -k 2 --alphabet dna --stats

`circmatch bench ...` runs the benchmark driver instead.

Output is one TSV row per occurrence: record, start, length, rotation,
distance.  Exit status follows grep: 0 when something was found, 1 when
nothing was, 2 on errors.

`main` reads the pattern and the records with `_records_from_bytes`, whose
rules the README states; `run` checks them, plans and builds or loads the
index, then searches every record and writes its rows.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys

from .alphabet import build_alphabet
from .qgramindex import IndexBudgetError, QGramIndex, build_index, pattern_digest
from .searcher import PlanError, SearchPlan, SearchStats, check_overrides, plan, search

ORACLE_SCALE_LIMIT = 10**8
NEEDS_NUMPY = "numpy, the optional extra circmatch[reference]"


def parse_alphabet(arg: str) -> str | bytes:
    """The `--alphabet` argument as a `build_alphabet` spec: "dna" or
    "auto" in any case, or the letters of letters:STR as the bytes of the
    argument, which `build_alphabet` always takes as a letter list."""
    if arg.lower() in ("dna", "auto"):
        return arg.lower()
    if arg.startswith("letters:"):
        return os.fsencode(arg[len("letters:") :])
    raise ValueError(f"unknown alphabet {arg!r}; use dna, auto or letters:STR")


def _load_cached_index(args, alphabet, pattern):
    if not args.index_cache:
        return None
    try:
        idx = QGramIndex.load(args.index_cache)
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
    if args.q is not None and idx.q != args.q:
        raise ValueError(f"cached index has q={idx.q} but q={args.q} was requested")
    return idx


def _checked_inputs(args, pattern, records):
    """The pattern, records and alphabet the run searches, after
    --fold-case; ValueError for arguments or input the run refuses."""
    spec = parse_alphabet(args.alphabet)
    if args.k < 0:
        raise ValueError("k must be non-negative")
    if args.fold_case:
        pattern = pattern.upper()
        records = [(name, seq.upper()) for name, seq in records]
        if spec not in ("dna", "auto"):
            spec = spec.upper()
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    if args.k >= m:
        raise ValueError(f"k={args.k} must be smaller than the pattern length {m}")
    alphabet = build_alphabet(spec, data=[pattern] + [seq for _, seq in records])
    if args.strict:
        named = [(f"record {name.decode('latin-1')!r}", seq) for name, seq in records]
        for what, seq in [("the pattern", pattern), *named]:
            for ch in set(seq):
                if alphabet.rank(ch) is None:
                    raise ValueError(f"{what} contains letter {chr(ch)!r} outside the alphabet")
    check_overrides(m, args.q, args.c, args.epsilon)
    if args.mode == "oracle":
        for name, seq in records:
            if len(seq) * m * m > ORACLE_SCALE_LIMIT:
                raise ValueError(
                    f"oracle mode refuses n*m^2 = {len(seq) * m * m} > {ORACLE_SCALE_LIMIT}"
                )
        try:  # the oracle needs numpy, which searching does not
            from . import reference  # noqa: F401
        except ModuleNotFoundError as exc:
            raise ValueError(f"oracle mode needs {NEEDS_NUMPY}: {exc}") from None
    return pattern, records, alphabet


def _plan_and_index(args, pattern, alphabet):
    """The plan of the run (None in oracle mode) and, for a filter plan,
    its index: loaded from --index-cache when the file exists, else built
    and saved there."""
    m = len(pattern)
    if args.mode == "oracle":
        return None, None
    if args.mode == "verify-all":
        return SearchPlan.verify_all(m, args.k, args.epsilon), None
    pln = plan(m, args.k, alphabet, q=args.q, c=args.c, epsilon=args.epsilon)
    if pln.mode != "filter":
        if args.mode == "filter":
            raise PlanError(
                "no feasible filter parameters; "
                "c must satisfy k/(eps*m-k-q) <= c < 1 - e/sqrt(sigma) with d(c) > 0 "
                "and the window must hold 2q + k/c"
            )
        return pln, None
    idx = _load_cached_index(args, alphabet, pattern)
    if idx is None:
        idx = build_index(pattern, pln.q, alphabet)
        if args.index_cache:
            idx.save(args.index_cache)
    elif idx.q != pln.q:
        # the cache fixes q; replan around it (raises if infeasible)
        pln = plan(m, args.k, alphabet, q=idx.q, c=args.c, epsilon=args.epsilon)
    return pln, idx


def _search_and_emit(args, pattern, records, pln, idx) -> int:
    """Write each record's rows, then the --stats block summed over the
    records, as bytes, so that a record name prints as it was read; 0 when
    a row was written, else 1.  A stdout without a byte buffer, such as an
    io.StringIO under contextlib.redirect_stdout, gets each chunk decoded
    as latin-1, one character a byte."""
    if pln is None:
        from .reference import oracle_search
    out = sys.stdout
    if hasattr(out, "buffer"):
        write = out.buffer.write
    else:
        write = lambda chunk: out.write(chunk.decode("latin-1"))  # noqa: E731
    if args.header:
        write(b"record\tstart\tlength\trotation\tdistance\n")
    # the --stats lines, in the order of SearchStats' fields, skips aside
    total = dict.fromkeys(SearchStats._fields[:-1], 0)
    for name, seq in records:
        if pln is None:
            occs = oracle_search(seq, pattern, args.k)
            st = SearchStats(occurrences_reported=len(occs))
        else:
            occs, st = search(seq, pattern, args.k, pln, idx)
        for field in total:
            total[field] += getattr(st, field)
        for o in occs:
            write(b"%s\t%d\t%d\t%d\t%d\n" % (name, o.start, o.length, o.rotation, o.distance))
    if args.stats:
        write(f"# mode={args.mode if pln is None else pln.mode}\n".encode())
        write("".join(f"# {field}={value}\n" for field, value in total.items()).encode())
    return 0 if total["occurrences_reported"] else 1


def run(args, pattern: bytes, records: list[tuple[bytes, bytes]]) -> int:
    """One search run over the parsed arguments; returns the exit status."""
    try:
        pattern, records, alphabet = _checked_inputs(args, pattern, records)
        pln, idx = _plan_and_index(args, pattern, alphabet)
    except (ValueError, IndexBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _search_and_emit(args, pattern, records, pln, idx)


def _read_text_source(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _records_from_bytes(blob: bytes) -> list[tuple[bytes, bytes]]:
    """The (name, letters) records of a FASTA or plain input.

    A leading UTF-8 byte-order mark is dropped.  Lines end at LF, CR LF
    or CR; each is stripped of ASCII whitespace, and blank lines are
    skipped.  A line that starts with `>` opens a record named by the
    first word after it, kept as bytes, and the lines up to the next such
    header are joined into its letters.  An input with no header is one
    record, `text`, of all its lines joined.  A header with no name, and a
    header after lines that have none, raise ValueError.
    """
    records: list[tuple[bytes, list[bytes]]] = []
    lines: list[bytes] = []  # of the record that is open
    for no, line in enumerate(blob.removeprefix(codecs.BOM_UTF8).splitlines(), 1):
        line = line.strip()
        if line.startswith(b">"):
            words = line[1:].split(None, 1)
            if not words:
                raise ValueError(f"line {no}: FASTA header with no name")
            if lines and not records:
                raise ValueError(f"line {no}: FASTA header after sequence lines that have none")
            lines = []
            records.append((words[0], lines))
        elif line:
            lines.append(line)
    if not records:
        records.append((b"text", lines))
    return [(name, b"".join(parts)) for name, parts in records]


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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        from .bench import main as bench_main
        return bench_main(argv[1:])
    args = _search_parser().parse_args(argv)
    try:
        if args.pattern is not None:
            pattern = os.fsencode(args.pattern)  # the bytes the shell passed
        else:
            with open(args.pattern_file, "rb") as fh:
                (_, pattern), *more = _records_from_bytes(fh.read())
            if more:
                raise ValueError(
                    f"pattern file holds {len(more) + 1} FASTA records; it must hold one"
                )
        records = _records_from_bytes(_read_text_source(args.text))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        status = run(args, pattern, records)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout, as `head` does: stop without a traceback,
        # and send what is still buffered to devnull, where the flush at exit
        # cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
