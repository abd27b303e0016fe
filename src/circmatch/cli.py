"""Command-line front end.

Search usage (flags at top level), e.g.:

    circmatch --pattern ACGTACGT --text genome.fa -k 2 --alphabet dna --stats

`circmatch bench ...` runs the benchmark driver instead.

Output is one TSV row per occurrence: record, start, length, rotation,
distance.  Exit status follows grep: 0 when something was found, 1 when
nothing was, 2 on errors.  `main` is the one place where an error becomes
exit 2 with one line: refused input, a failed read, and a failed write to
stdout, `--help` included.

`_search_main` reads the pattern and the records with
`_records_from_bytes`, whose rules the README states; `run` checks them,
plans and builds or loads the index, then searches every record and
writes its rows.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys

from .alphabet import build_alphabet
from .qgramindex import QGramIndex, build_index, pattern_digest
from .searcher import SearchPlan, SearchStats, check_overrides, plan, search

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


def _load_cached_index(path, pattern, q, alphabet):
    """The index in the --index-cache file `path`, or None for no path, no
    file, or a file of another q or alphabet; a file that is not a valid
    index of this pattern raises one ValueError that names it."""
    if not path:
        return None
    try:
        idx = QGramIndex.load(path)
        if idx.digest != pattern_digest(pattern):
            raise ValueError("it was built for a different pattern")
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise ValueError(f"cannot use index cache {path!r}: {exc}; remove the cache file") from None
    return idx if (idx.q, idx.alphabet) == (q, alphabet) else None


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
            foreign = seq.translate(None, alphabet.letters)
            if foreign:
                raise ValueError(f"{what} contains letter {chr(foreign[0])!r} outside the alphabet")
    check_overrides(m, args.q, args.c, args.epsilon)
    if args.mode == "oracle":
        for name, seq in records:
            if len(seq) * m * m > ORACLE_SCALE_LIMIT:
                raise ValueError(
                    f"oracle mode refuses n*m^2 = {len(seq) * m * m} > {ORACLE_SCALE_LIMIT}"
                )
    return pattern, records, alphabet


def _plan_and_index(args, pattern, alphabet):
    """The plan of the run (None in oracle mode) and, for a filter plan,
    its index: loaded from --index-cache when the file holds the plan's q
    and alphabet, else built and saved there."""
    m = len(pattern)
    if args.mode == "oracle":
        return None, None
    if args.mode == "verify-all":
        return SearchPlan.verify_all(m, args.k, args.epsilon), None
    pln = plan(
        m, args.k, alphabet, q=args.q, c=args.c, epsilon=args.epsilon,
        fallback=args.mode != "filter",
    )
    if pln.mode != "filter":
        return pln, None
    idx = _load_cached_index(args.index_cache, pattern, pln.q, alphabet)
    if idx is None:
        idx = build_index(pattern, pln.q, alphabet)
        if args.index_cache:
            idx.save(args.index_cache)
    return pln, idx


def _search_and_emit(args, pattern, records, pln, idx) -> int:
    """Write each record's rows, then the --stats block summed over the
    records, as bytes, so that a record name prints as it was read; 0 when
    a row was written, else 1.  A stdout without a byte buffer, such as an
    io.StringIO under contextlib.redirect_stdout, gets each chunk decoded
    as latin-1, one character a byte."""
    if pln is None:
        try:  # the oracle needs numpy, which searching does not
            from .reference import oracle_search
        except ModuleNotFoundError as exc:
            raise ValueError(f"oracle mode needs {NEEDS_NUMPY}: {exc}") from None
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
        # the mode, a filter plan's parameters, then the counters
        block = {"mode": args.mode if pln is None else pln.mode}
        if pln is not None and pln.mode == "filter":
            block.update((field, getattr(pln, field)) for field in ("q", "c", "epsilon", "j_grams"))
        block.update(total)
        write("".join(f"# {field}={value}\n" for field, value in block.items()).encode())
    return 0 if total["occurrences_reported"] else 1


def run(args, pattern: bytes, records: list[tuple[bytes, bytes]]) -> int:
    """One search run over the parsed arguments; returns the exit status."""
    pattern, records, alphabet = _checked_inputs(args, pattern, records)
    pln, idx = _plan_and_index(args, pattern, alphabet)
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


class ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose help is a plain write to stdout: argparse's
    own drops an OSError, so that `--help` into a full disk exited 0."""

    def print_help(self, file=None):
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()  # parse_args exits next, before main's flush


def _search_parser() -> argparse.ArgumentParser:
    p = ArgumentParser(
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


def _search_main(argv: list[str]) -> int:
    """A search run's exit status: its arguments parsed, its inputs read."""
    args = _search_parser().parse_args(argv)
    if args.pattern is not None:
        pattern = os.fsencode(args.pattern)  # the bytes the shell passed
    else:
        with open(args.pattern_file, "rb") as fh:
            (_, pattern), *more = _records_from_bytes(fh.read())
        if more:
            raise ValueError(f"pattern file holds {len(more) + 1} FASTA records; it must hold one")
    records = _records_from_bytes(_read_text_source(args.text))
    return run(args, pattern, records)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "bench":
            from .bench import main as bench_main
            status = bench_main(argv[1:])
        else:
            status = _search_main(argv)
        sys.stdout.flush()  # so that a failed write shows here, not at exit
        return status
    except (ValueError, OSError) as exc:
        # a reader that closed stdout, as `head` does, stops the run without
        # a word; any other error gets one line
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # then what is buffered goes to devnull, to flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
