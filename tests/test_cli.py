import contextlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from circmatch import bitparallel, cli, searcher
from circmatch.bitparallel import rotation_screen
from circmatch.cli import _records_from_bytes, main
from helpers import (
    brute_search, count_half_tables, load_mutant, plant_edited_rotation, random_string,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(script: str, **kwargs) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports circmatch from src."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
        **kwargs,
    )


def rows_of(name: str, occs) -> str:
    return "".join(f"{name}\t{o.start}\t{o.length}\t{o.rotation}\t{o.distance}\n" for o in occs)


def test_records_from_bytes_concatenates_lines():
    assert _records_from_bytes(b">s1 some description\nACGT\r\n  ACGT \n\n") == [(b"s1", b"ACGTACGT")]


def test_records_from_bytes_multiple_records():
    recs = _records_from_bytes(b">a\nAC\n>b\nGT")
    assert recs == [(b"a", b"AC"), (b"b", b"GT")]


@pytest.mark.parametrize("blob, line", [
    pytest.param(b"ACGT\n>r1\nACGT", 2, id="header-after-sequence"),
    pytest.param(b">\nACGT\n", 1, id="header-without-name"),
    pytest.param(b">r1\nACGT\n> \t\nACGT\n", 3, id="blank-name-later"),
])
def test_records_from_bytes_rejects_bad_headers(blob, line):
    with pytest.raises(ValueError, match=f"^line {line}: FASTA header "):
        _records_from_bytes(blob)


def test_records_from_bytes_splits_lines_at_line_breaks_only():
    # form feed, vertical tab, the separators \x1c-\x1e and \x85 are
    # letters inside a line; only LF, CR LF and CR end one
    blob = b">r\x85x\nA\x0bC\x0cG\x1cT\x1d\x1e\x85\rAC\n"
    assert _records_from_bytes(blob) == [(b"r\x85x", b"A\x0bC\x0cG\x1cT\x1d\x1e\x85AC")]


def test_records_from_bytes_empty_input_is_one_empty_text():
    assert _records_from_bytes(b"") == _records_from_bytes(b"\r\n \n") == [(b"text", b"")]


def test_cli_reports_rotation(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("xxxxbabbcabaxxxx\n")
    code, out, err = run_cli(
        ["--pattern", "abababbc", "--text", str(text), "-k", "0"], capsys
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert ["text", "4", "8", "3", "0"] in rows


def test_cli_self_match_exit_zero(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("abc")
    code, out, err = run_cli(["--pattern", "abc", "--text", str(text), "-k", "0"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "text\t0\t3\t0\t0"


def test_cli_no_match_exit_one(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("zzzzzz")
    code, out, _ = run_cli(["--pattern", "abc", "--text", str(text), "-k", "0"], capsys)
    assert code == 1
    assert out == ""


def test_cli_error_exit_two(tmp_path, capsys):
    code, _, err = run_cli(
        ["--pattern", "abc", "--text", str(tmp_path / "missing.txt")], capsys
    )
    assert code == 2
    assert "error" in err


def test_cli_invalid_override_reports_constraint(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("ACGT" * 50)
    code, _, err = run_cli(
        ["--pattern", "ACGTACGTACGTACGT", "--text", str(text), "-k", "2",
         "--alphabet", "dna", "--q", "6", "--c", "0.9"],
        capsys,
    )
    assert code == 2
    assert "d(c" in err or "not positive" in err


@pytest.mark.parametrize(
    "extra, shown",
    [
        pytest.param(["--c", "1.5"], "1.5", id="above-one"),
        pytest.param(["--c", "0"], "0.0", id="zero"),
        pytest.param(["--mode", "filter", "--c", "2"], "2.0", id="filter-mode"),
        pytest.param(["--c", "nan"], "nan", id="nan"),
        pytest.param(["--mode", "verify-all", "--c", "1.5"], "1.5", id="verify-all-mode"),
        pytest.param(["--mode", "oracle", "--c", "0"], "0.0", id="oracle-mode"),
    ],
)
def test_cli_c_out_of_range_exits_2(tmp_path, capsys, extra, shown):
    # c without q goes straight to the exponent d(c), which is undefined
    # outside (0, 1); modes that never plan reject it all the same
    text = tmp_path / "t.txt"
    text.write_text("ACGTACGTTGCAACGTACGTACGTTGCA")
    code, out, err = run_cli(
        ["--pattern", "ACGTACGTACGTTGCA", "--text", str(text), "-k", "1"] + extra, capsys
    )
    assert code == 2 and out == ""
    assert err == f"error: c must lie in (0, 1), got c={shown}\n"


@pytest.mark.parametrize("mode", ["auto", "filter", "verify-all", "oracle"])
@pytest.mark.parametrize(
    "extra, message",
    [
        pytest.param(["--q", "0"], "q must satisfy 1 <= q < m, got q=0", id="q-zero"),
        pytest.param(["--q", "16"], "q must satisfy 1 <= q < m, got q=16", id="q-at-m"),
        pytest.param(
            ["--epsilon", "1.5"], "epsilon must lie in (0, 1), got epsilon=1.5", id="epsilon-above-one"
        ),
    ],
)
def test_cli_override_out_of_range_exits_2(tmp_path, capsys, mode, extra, message):
    text = tmp_path / "t.txt"
    text.write_text("ACGTACGTTGCAACGTACGTACGTTGCA")
    code, out, err = run_cli(
        ["--pattern", "ACGTACGTACGTTGCA", "--text", str(text), "-k", "1", "--mode", mode]
        + extra,
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_cli_fasta_multi_record(tmp_path, capsys):
    fa = tmp_path / "in.fa"
    fa.write_text(">r1\nAACGTACGTA\n>r2\nTTTTTTTTTT\n")
    code, out, _ = run_cli(
        ["--pattern", "ACGTACGTAC", "--text", str(fa), "-k", "1", "--alphabet", "dna"],
        capsys,
    )
    assert code == 0
    recs = {line.split("\t")[0] for line in out.strip().splitlines()}
    assert recs == {"r1"}


def test_cli_builds_one_screen_per_run(tmp_path, capsys):
    # every search of every record shares the screen of (pattern, k) and
    # looks it up once
    fa = tmp_path / "reads.fa"
    fa.write_text("".join(f">r{i}\n{'TTGA' * i}CGTTGCAACGTACGTA{'ACGT' * i}\n" for i in range(4)))
    args = ["--pattern", "ACGTACGTTGCAACGT", "--text", str(fa), "-k", "1",
            "--mode", "verify-all", "--stats"]
    rotation_screen.cache_clear()
    code, out, err = run_cli(args, capsys)
    info = rotation_screen.cache_info()
    verified = int(re.search(r"# windows_verified=(\d+)", out).group(1))
    assert code == 0, err
    assert info.misses == 1 and info.hits + info.misses == 4 < verified


@pytest.mark.parametrize("cached", [False, True])
def test_cli_builds_half_tables_once_per_run(tmp_path, capsys, monkeypatch, cached):
    # every record's filter scan shares the half tables of the index's
    # alphabet and q, whether the index was built or loaded from the cache
    fa = tmp_path / "reads.fa"
    fa.write_text("".join(f">r{i}\n{'TTGA' * i}CGTTGCAACGTACGTA{'ACGT' * i}\n" for i in range(4)))
    args = ["--pattern", "ACGTACGTTGCAACGT", "--text", str(fa), "-k", "1",
            "--mode", "filter", "--stats", "--index-cache", str(tmp_path / "idx.bin")]
    if cached:
        assert run_cli(args, capsys)[0] == 0
    built = count_half_tables(monkeypatch)
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert len(built) == 2 and int(re.search(r"# qgrams_read=(\d+)", out).group(1)) > 0


def test_cli_stats_block(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("ACGT" * 100)
    code, out, _ = run_cli(
        ["--pattern", "ACGTACGT", "--text", str(text), "-k", "0", "--stats"], capsys
    )
    assert code == 0
    assert "# mode=" in out
    assert "# windows_examined=" in out
    assert "# chars_inspected=" in out


def test_cli_header_flag(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("abcabc")
    code, out, _ = run_cli(
        ["--pattern", "abc", "--text", str(text), "--header"], capsys
    )
    assert out.splitlines()[0] == "record\tstart\tlength\trotation\tdistance"


def test_cli_three_way_mode_agreement(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("gattacagattacaagtcaatgcaggacctgga")
    args = ["--pattern", "acagatt", "--text", str(text), "-k", "1"]
    outs = []
    for mode in ("auto", "verify-all", "oracle"):
        code, out, err = run_cli(args + ["--mode", mode], capsys)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_cli_strict_rejects_foreign_letters(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("ACGTNNACGT")
    code, _, err = run_cli(
        ["--pattern", "ACGT", "--text", str(text), "--alphabet", "dna", "--strict"],
        capsys,
    )
    assert code == 2 and "outside the alphabet" in err


def test_cli_strict_rejects_foreign_pattern_letters(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("ACGTACGTAA")
    code, out, err = run_cli(
        ["--pattern", "ACGNA", "--text", str(text), "-k", "1", "--alphabet", "dna", "--strict"],
        capsys,
    )
    assert (code, out, err) == (2, "", "error: the pattern contains letter 'N' outside the alphabet\n")


def test_cli_fold_case(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("acgtacgt")
    code, out, _ = run_cli(
        ["--pattern", "ACGTACGT", "--text", str(text), "--fold-case"], capsys
    )
    assert code == 0 and out.count("\n") >= 1


def test_cli_fold_case_filter_matches_oracle(tmp_path, capsys):
    # the index must be built from the folded pattern, or a lower-case
    # pattern gets entries for letters outside the alphabet
    rng = random.Random(32)
    pattern = random_string(rng, b"acgt", 32)
    t = bytearray(random_string(rng, b"acgt", 3000))
    for _ in range(6):
        plant_edited_rotation(rng, t, pattern, 1, b"acgt")
    text = tmp_path / "t.txt"
    text.write_bytes(bytes(t))
    args = ["--pattern", pattern.decode(), "--text", str(text), "-k", "1",
            "--alphabet", "dna", "--fold-case"]
    code, auto, _ = run_cli(args + ["--stats"], capsys)
    assert code == 0 and "# mode=filter\n" in auto
    auto = "".join(line for line in auto.splitlines(True) if not line.startswith("#"))
    code, oracle, _ = run_cli(args + ["--mode", "oracle"], capsys)
    assert code == 0 and oracle and auto == oracle


def test_cli_alphabet_presets_in_any_case(tmp_path, capsys):
    # dna and auto are read in any case; every spelling gives the rows of
    # brute force
    rng = random.Random(13)
    x = random_string(rng, b"ACGT", 16)
    t = bytearray(random_string(rng, b"ACGT", 150))
    plant_edited_rotation(rng, t, x, 1, b"ACGT")
    text = tmp_path / "t.txt"
    text.write_bytes(bytes(t))
    want = "".join(f"text\t{o.start}\t{o.length}\t{o.rotation}\t{o.distance}\n"
                   for o in brute_search(bytes(t), x, 1))
    assert want
    for spec in ("dna", "DNA", "Dna", "auto", "AUTO", "letters:ACGT"):
        code, out, err = run_cli(
            ["--pattern", x.decode(), "--text", str(text), "-k", "1", "--alphabet", spec], capsys
        )
        assert (code, out, err) == (0, want, ""), spec


def test_cli_alphabet_letters_are_never_a_preset(tmp_path, capsys):
    # letters:dna is the letter list d, n, a, not the preset ACGT
    text = tmp_path / "t.txt"
    text.write_text("nnadnadnannn")
    code, out, err = run_cli(
        ["--pattern", "dnadna", "--text", str(text), "--alphabet", "letters:dna", "--strict"],
        capsys,
    )
    assert code == 0 and err == "" and "text\t3\t6\t0\t0\n" in out


@pytest.mark.parametrize("spec", ["rna", "RNA", "ACGT", "letters", ""])
def test_cli_unknown_alphabet_exits_2(tmp_path, capsys, spec):
    text = tmp_path / "t.txt"
    text.write_text("ACGTACGT")
    code, out, err = run_cli(
        ["--pattern", "ACGT", "--text", str(text), "--alphabet", spec], capsys
    )
    assert (code, out) == (2, "")
    assert err == f"error: unknown alphabet {spec!r}; use dna, auto or letters:STR\n"


def _cache_args(tmp_path, pattern):
    text = tmp_path / "t.txt"
    text.write_text("ACGTTGCAACGTACGTACGTTGCA" * 8)
    return ["--pattern", pattern, "--text", str(text), "-k", "1",
            "--alphabet", "dna", "--index-cache", str(tmp_path / "idx.bin")]


def test_cli_index_cache_rejects_other_pattern(tmp_path, capsys):
    code, _, _ = run_cli(_cache_args(tmp_path, "ACGTACGTACGTTGCA"), capsys)
    assert code == 0
    code, out, err = run_cli(_cache_args(tmp_path, "TTGCAACGTACGTACG"), capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "different pattern" in err


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda blob: blob[:8], id="magic-only"),
        pytest.param(lambda blob: blob[:44], id="cut-inside-letters"),
        pytest.param(lambda blob: blob[:-1] + bytes([blob[9] + 1]), id="entry-above-q"),
        pytest.param(lambda blob: b"CIRCIDX1" + blob[8:10] + blob[42:], id="old-layout"),
    ],
)
def test_cli_corrupt_index_cache_exits_2(tmp_path, capsys, corrupt):
    args = _cache_args(tmp_path, "ACGTACGTACGTTGCA")
    run_cli(args, capsys)
    cache = tmp_path / "idx.bin"
    cache.write_bytes(corrupt(cache.read_bytes()))
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_index_cache_roundtrip(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("ACGTTGCAACGTACGTACGTTGCA" * 8)
    cache = tmp_path / "idx.bin"
    args = ["--pattern", "ACGTACGTACGTTGCA", "--text", str(text), "-k", "1",
            "--alphabet", "dna", "--index-cache", str(cache)]
    code1, out1, _ = run_cli(args, capsys)
    assert cache.exists()
    code2, out2, _ = run_cli(args, capsys)
    assert (code1, out1) == (code2, out2)


def test_cli_periodic_multi_record_modes_match_oracle(tmp_path, capsys):
    # a period-3 pattern in repetitive records gives many (start, rotation)
    # hits per block; auto mode takes a filter plan at 16:1 on DNA
    rng = random.Random(12)
    records = []
    for i in range(4):
        seq = bytearray(b"ACG" * 60)
        for _ in range(6):
            seq[rng.randrange(len(seq))] = rng.choice(b"ACGT")
        records.append(f">r{i}\n{bytes(seq).decode()}\n")
    records.append(">r4\n" + random_string(rng, b"ACGT", 150).decode() + "\n")
    text = tmp_path / "reads.fa"
    text.write_text("".join(records))
    args = ["--pattern", "ACGACGACGACGACGA", "--text", str(text), "-k", "1"]
    outs = {}
    for extra in (["--mode", "oracle"], ["--mode", "auto"], ["--mode", "verify-all"]):
        code, out, err = run_cli(args + extra, capsys)
        assert code == 0, err
        outs[" ".join(extra)] = out
    assert outs["--mode oracle"].count("\n") > 100
    assert len({outs[key] for key in outs}) == 1
    _, stats, _ = run_cli(args + ["--stats"], capsys)
    assert "# mode=filter" in stats


def test_cli_pattern_file_and_stdin(tmp_path, capsys, monkeypatch):
    pf = tmp_path / "p.txt"
    pf.write_text("abcabc\n")
    monkeypatch.setattr(
        sys, "stdin",
        type("S", (), {"buffer": io.BytesIO(b"zzabcabczz")})(),
    )
    code, out, _ = run_cli(["--pattern-file", str(pf), "--text", "-", "-k", "0"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("text\t2\t6\t")


def _planted(seed: int, m: int, n: int, k: int) -> tuple[bytes, bytes]:
    rng = random.Random(seed)
    x = random_string(rng, b"ACGT", m)
    t = bytearray(random_string(rng, b"ACGT", n))
    for _ in range(3):
        plant_edited_rotation(rng, t, x, k, b"ACGT")
    return x, bytes(t)


def test_cli_plain_text_lines_are_joined(tmp_path, capsys):
    # a plain text is one record of all its lines: the line breaks, CR LF
    # and CR included, are not letters, so occurrences run across them
    text = tmp_path / "t.txt"
    text.write_bytes(b"ACGTAC\nGTACGT\r\n")
    code, out, err = run_cli(["--pattern", "ACGTACGT", "--text", str(text), "-k", "1"], capsys)
    assert (code, err) == (0, "") and out == rows_of("text", brute_search(b"ACGTACGTACGT", b"ACGTACGT", 1))
    x, t = _planted(41, 16, 400, 2)
    text.write_bytes(b"".join(t[i : i + 50] + b"\r\n\r"[i % 3 :] for i in range(0, len(t), 50)))
    code, out, err = run_cli(["--pattern", x.decode(), "--text", str(text), "-k", "2"], capsys)
    want = rows_of("text", brute_search(t, x, 2))
    assert want.count("\n") >= 3 and (code, out, err) == (0, want, "")


@pytest.mark.parametrize("body, name", [
    pytest.param(b">r1 planted\n{}\n", "r1", id="fasta"),
    pytest.param(b"{}\n", "text", id="plain"),
])
def test_cli_leading_byte_order_mark_is_dropped(tmp_path, capsys, body, name):
    x, t = _planted(42, 12, 200, 1)
    text = tmp_path / "t.fa"
    text.write_bytes(b"\xef\xbb\xbf" + body.replace(b"{}", t))
    code, out, err = run_cli(["--pattern", x.decode(), "--text", str(text), "-k", "1"], capsys)
    want = rows_of(name, brute_search(t, x, 1))
    assert want and (code, out, err) == (0, want, "")


@pytest.mark.parametrize("blob, message", [
    pytest.param(b"ACGT\n>r1\nACGT\n", "line 2: FASTA header after sequence lines that have none",
                 id="header-after-sequence"),
    pytest.param(b">\nACGTACGT\n", "line 1: FASTA header with no name", id="header-without-name"),
    pytest.param(b">r1\nACGTACGT\n>  \nACGT\n", "line 3: FASTA header with no name",
                 id="later-header-without-name"),
])
def test_cli_refused_fasta_headers_exit_2(tmp_path, capsys, blob, message):
    text = tmp_path / "t.fa"
    text.write_bytes(blob)
    code, out, err = run_cli(["--pattern", "ACGTACGT", "--text", str(text), "-k", "1"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("alphabet", ["auto", "dna"])
def test_cli_fasta_pattern_file_gives_its_record(tmp_path, capsys, alphabet):
    # the pattern file goes through the text reader: one FASTA record gives
    # its letters, not the header and line breaks
    rng = random.Random(43)
    x, t = b"ACGTACGA", bytearray(random_string(rng, b"ACGT", 300))
    for _ in range(3):
        plant_edited_rotation(rng, t, x, 1, b"ACGT")
    t = bytes(t)
    pf = tmp_path / "p.fa"
    pf.write_bytes(b">p\nACGT\r\nACGA\n")
    text = tmp_path / "t.txt"
    text.write_bytes(t)
    code, out, err = run_cli(
        ["--pattern-file", str(pf), "--text", str(text), "-k", "1", "--alphabet", alphabet], capsys
    )
    want = rows_of("text", brute_search(t, x, 1))
    assert want and (code, out, err) == (0, want, "")


def test_cli_pattern_file_with_two_records_exits_2(tmp_path, capsys):
    pf = tmp_path / "p.fa"
    pf.write_bytes(b">p\nACGT\n>q\nACGA\n")
    text = tmp_path / "t.txt"
    text.write_bytes(b"ACGTACGA")
    code, out, err = run_cli(["--pattern-file", str(pf), "--text", str(text)], capsys)
    assert (code, out, err) == (2, "", "error: pattern file holds 2 FASTA records; it must hold one\n")


@pytest.mark.parametrize("cache", [
    pytest.param(lambda tmp: tmp, id="a-directory"),
    pytest.param(lambda tmp: tmp / "missing" / "idx.bin", id="parent-missing"),
])
def test_cli_index_cache_path_errors_exit_2(tmp_path, capsys, cache):
    args = _cache_args(tmp_path, "ACGTACGTACGTTGCA")
    args[args.index("--index-cache") + 1] = str(cache(tmp_path))
    code, out, err = run_cli(args + ["--header", "--stats"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("reader", ["reads-one-line", "gone-before-start"])
def test_cli_closed_stdout_stops_quietly(tmp_path, reader, buffered):
    # a reader that goes away stops the run with exit 2 and an empty
    # stderr.  One that reads a line first leaves about 1.2 MB of rows of an
    # 80 000-letter record unread, more than any pipe buffers, so the
    # program is still writing when it goes; one that is gone before the
    # start leaves two rows, which a buffered stdout writes at its last flush
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-c", "import sys; from circmatch.cli import main; sys.exit(main())"]
    fa = tmp_path / "t.fa"
    if reader == "reads-one-line":
        fa.write_text(">big\n" + "ACGT" * 20_000 + "\n")
        proc = subprocess.Popen(
            cmd + ["--pattern", "ACGT", "--text", str(fa), "-k", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        assert first == b"big\t0\t4\t0\t0\n"
    else:
        fa.write_text(">r1\nTTACGTACGTTGCATT\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                cmd + ["--pattern", "ACGTACGTTGCA", "--text", str(fa), "-k", "0"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (2, b"")


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_cli_prints_record_names_byte_for_byte(tmp_path, encoding):
    # a name is written as the bytes it was read as, whatever the encoding
    # of stdout; latin-1 \xe9 is neither ASCII nor UTF-8
    fa = tmp_path / "t.fa"
    fa.write_bytes(b">r\xe9\nTTACGTACGTTGCATT\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env["PYTHONIOENCODING"] = encoding
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from circmatch.cli import main; sys.exit(main())",
         "--pattern", "ACGTACGTTGCA", "--text", str(fa), "-k", "0"],
        env=env, capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"r\xe9\t2\t12\t0\t0\n", b"")


def test_cli_writes_to_a_text_only_stdout(tmp_path, capfdbinary):
    # an io.StringIO under redirect_stdout has no byte buffer: it gets the
    # same rows, header and --stats block, each byte one latin-1 character
    fa = tmp_path / "t.fa"
    fa.write_bytes(b">r\xe9\nTTACGTACGTTGCATT\n>s\nGGTTGCAACGTACGGG\n")
    argv = ["--pattern", "ACGTACGTTGCA", "--text", str(fa), "-k", "1", "--header", "--stats"]
    assert main(argv) == 0
    sys.stdout.flush()
    want = capfdbinary.readouterr().out
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert want.count(b"\n") > 4 and out.getvalue() == want.decode("latin-1")


def test_cli_bench_subcommand(capsys):
    code, out, _ = run_cli(
        ["bench", "--sigma", "4", "--n", "2000", "--pairs", "12:1,16:1",
         "--reps", "1", "--seed", "9"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#m")
    assert len(lines) == 3


SIGMA_RANGE = "sigma must lie in [2, 255]: one letter leaves no filter to measure"


@pytest.mark.parametrize("extra, message", [
    pytest.param(["--pairs", "16"], "pair '16' must be M:K with integers M and K", id="no-k"),
    pytest.param(["--pairs", "16:1:3"], "pair '16:1:3' must be M:K with integers M and K",
                 id="three-fields"),
    pytest.param(["--pairs", "16:1", "--n", "0"], "n must be at least 1", id="n-zero"),
    pytest.param(["--pairs", "16:1", "--n", "-5"], "n must be at least 1", id="n-negative"),
    pytest.param(["--pairs", "16:1", "--sigma", "300"], SIGMA_RANGE, id="sigma-300"),
    pytest.param(["--pairs", "16:1", "--sigma", "1"], SIGMA_RANGE, id="sigma-1"),
])
def test_cli_bench_bad_arguments_exit_2(capsys, extra, message):
    code, out, err = run_cli(["bench", "--sigma", "4", "--n", "2000", *extra], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_oracle_mode_desk_scale_guard(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("A" * 3000)
    code, _, err = run_cli(
        ["--pattern", "ACGT" * 60, "--text", str(text), "--mode", "oracle", "-k", "0"],
        capsys,
    )
    assert code == 2 and "oracle mode refuses" in err


def test_search_path_loads_no_numpy_reference_or_bench(tmp_path):
    # numpy is for the oracle only, and the benchmark is no part of a
    # search; a fresh interpreter
    # that searches in verify-all mode, or in filter mode with an index it
    # builds and saves and then loads, never loads it, nor dataclasses and
    # inspect (about 10 ms of import), nor hashlib and OpenSSL (about 3.5 MB)
    text = tmp_path / "t.fa"
    text.write_text(">r1\nTTACGTACGTTGCATT\n>r2\nGGTTGCAACGTACGGG\n")
    cache = tmp_path / "idx.bin"
    script = f"""
import contextlib, io, os, sys
import circmatch
from circmatch import SearchPlan, search
from circmatch import cli
occs, _ = search(b"TTACGTACGTTGCATT", b"ACGTACGTTGCA", 1, SearchPlan.verify_all(12, 1))
assert occs

def run(*extra):
    out = io.TextIOWrapper(io.BytesIO(), write_through=True)  # the CLI writes to its buffer
    with contextlib.redirect_stdout(out):
        code = cli.main(["--pattern", "ACGTACGTTGCA", "--text", {str(text)!r}, "-k", "1", *extra])
    assert code == 0, code
    return out.buffer.getvalue().decode()

rows = run("--mode", "verify-all")
for step in ("build", "load"):
    assert os.path.exists({str(cache)!r}) == (step == "load"), step
    assert run("--mode", "filter", "--epsilon", "0.8", "--index-cache", {str(cache)!r}) == rows
sys.stdout.write(rows)
unwanted = ("numpy", "circmatch.reference", "circmatch.bench", "dataclasses", "inspect", "hashlib", "_hashlib")
loaded = [n for n in unwanted if n in sys.modules]
assert not loaded, loaded
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("r1\t")


def test_filter_search_runs_without_numpy():
    # with numpy made unimportable, a filter search builds its index and
    # returns what brute force returns
    rng = random.Random(21)
    x, k = random_string(rng, b"ACGT", 16), 2
    t = bytearray(random_string(rng, b"ACGT", 300))
    for _ in range(3):
        plant_edited_rotation(rng, t, x, k, b"ACGT")
    script = f"""
import sys
sys.modules["numpy"] = None
from circmatch import build_alphabet, build_index, plan, search
a = build_alphabet("ACGT")
p = plan(16, {k}, a, epsilon=0.8)
assert p.mode == "filter", p
occs, _ = search({bytes(t)!r}, {x!r}, {k}, p, build_index({x!r}, p.q, a))
print([tuple(o) for o in occs])
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    want = brute_search(bytes(t), x, k)
    assert want and proc.stdout == f"{[tuple(o) for o in want]}\n"


@pytest.mark.parametrize("argv", [
    ["--pattern", "ACGTACGTTGCA", "--text", "-", "-k", "1", "--mode", "oracle"],
])
def test_numpy_modes_without_numpy_exit_2(argv):
    # the oracle needs numpy, which is optional: without it the run stops
    # with one line and exit 2
    script = f"""
import sys
sys.modules["numpy"] = None
from circmatch.cli import main
sys.exit(main({argv!r}))
"""
    proc = run_python(script, input=">r1\nTTACGTACGTTGCATT\n")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "needs numpy" in proc.stderr


def test_bench_runs_without_numpy(capsys):
    # the benchmark needs only the standard library: without numpy it
    # prints the table it prints with numpy, wall_time aside
    argv = ["bench", "--sigma", "4", "--n", "2000", "--pairs", "16:1,32:1", "--seed", "1"]
    script = f"""
import sys
sys.modules["numpy"] = None
from circmatch.cli import main
sys.exit(main({argv!r}))
"""
    proc = run_python(script)
    code, out, err = run_cli(argv, capsys)
    assert (proc.returncode, proc.stderr) == (code, err) == (0, "")
    without, with_numpy = ([line.rsplit("\t", 1)[0] for line in table.splitlines()]
                           for table in (proc.stdout, out))
    assert len(with_numpy) == 3 and without == with_numpy


# The CLI against a plain DP: drawn inputs go through `main`, whose rows
# and exit status must be those of the straight-line DP below, which
# shares no code with circmatch.

def plain_rows(name: bytes, t: bytes, x: bytes, k: int) -> bytes:
    """The rows of t for pattern x: for every start p and rotation r, the
    least edit distance from the rotation to a factor t[p:p+j], when it is
    at most k, and the least such j."""
    m = len(x)
    rows = []
    for p in range(len(t)):
        chunk = t[p : p + m + k]  # a longer factor is more than k away
        for r in range(m):
            prev = list(range(len(chunk) + 1))
            for i, a in enumerate(x[r:] + x[:r], 1):
                cur = [i]
                for j, b in enumerate(chunk, 1):
                    cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a != b)))
                prev = cur
            d = min(prev)
            if d <= k:
                rows.append(b"%s\t%d\t%d\t%d\t%d\n" % (name, p, prev.index(d), r, d))
    return b"".join(rows)


# mostly DNA, some lower case, and N and a latin-1 e-acute, which the dna
# alphabet lacks; the latin-1 byte is no UTF-8 text, and reaches --pattern
# through os.fsdecode, as the shell would pass it
DRAWN_LETTERS = b"ACGTACGTACGTacgtN\xe9"


@st.composite
def cli_cases(draw) -> dict:
    m = draw(st.integers(2, 12))
    k = min(draw(st.sampled_from([0, 1, 1, 2, 3])), m - 1)  # filter plans need k <= 1 here
    letter = st.sampled_from(DRAWN_LETTERS)
    pattern = bytes(draw(st.lists(letter, min_size=m, max_size=m)))
    if draw(st.booleans()):
        pattern = pattern.lower()
    records = []
    for i in range(draw(st.integers(1, 3))):
        seq = bytearray(draw(st.lists(letter, max_size=40)))
        if draw(st.booleans()):  # plant a rotation, in the case of the pattern or upper
            r, at = draw(st.integers(0, m - 1)), draw(st.integers(0, len(seq)))
            rot = pattern[r:] + pattern[:r]
            seq[at:at] = rot.upper() if draw(st.booleans()) else rot
        records.append((b"r%d" % i, bytes(seq[:40])))
    fasta = len(records) > 1 or draw(st.booleans())
    if not fasta:
        records = [(b"text", records[0][1])]
    eol = st.sampled_from([b"\n", b"\r\n"])
    sometimes = st.integers(0, 3).map(lambda v: v == 0)
    blob = b""
    for name, seq in records:
        if fasta:
            blob += b">" + name + draw(st.sampled_from([b"", b" a description"])) + draw(eol)
        width = draw(st.integers(1, 40))
        for at in range(0, len(seq), width):
            blob += seq[at : at + width] + draw(eol)
            if draw(sometimes):
                blob += draw(st.sampled_from([b"\n", b"\r\n", b" \t\r\n"]))
    return dict(
        pattern=pattern, k=k, records=records, blob=blob,
        mode=draw(st.sampled_from(["auto", "filter", "verify-all", "oracle"])),
        alphabet=draw(st.sampled_from(["dna", "auto", "letters:ACGT", "letters:acgt"])),
        fold_case=draw(st.booleans()), strict=draw(sometimes), pattern_file=draw(st.booleans()),
        cache=draw(st.booleans()), q=draw(st.none() | st.none() | st.none() | st.integers(0, m)),
        c=draw(st.none() | st.none() | st.none() | st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.5])),
        epsilon=draw(st.none() | st.sampled_from([0.3, 0.8, 0.9, 0.95, 1.0])),
    )


def _run_main(main_fn, argv) -> tuple[int, bytes, str]:
    out, err = io.TextIOWrapper(io.BytesIO(), write_through=True), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main_fn(argv)
    return code, out.buffer.getvalue(), err.getvalue()


def check_cli_against_plain_dp(main_fn, case: dict) -> None:
    pattern, k, records = case["pattern"], case["k"], case["records"]
    m = len(pattern)
    argv = ["-k", str(k), "--mode", case["mode"], "--alphabet", case["alphabet"]]
    for flag in ("q", "c", "epsilon"):
        if case[flag] is not None:
            argv += [f"--{flag}", str(case[flag])]
    for flag in ("fold_case", "strict"):
        if case[flag]:
            argv.append("--" + flag.replace("_", "-"))
    # what the run must refuse, and what it searches
    if case["fold_case"]:
        pattern, records = pattern.upper(), [(name, seq.upper()) for name, seq in records]
    data = pattern + b"".join(seq for _, seq in records)
    if case["alphabet"] == "dna":
        letters = b"ACGT"
    elif case["alphabet"] == "auto":
        letters = data
    else:
        letters = case["alphabet"][len("letters:") :].encode()
        letters = letters.upper() if case["fold_case"] else letters
    foreign = set(data) - set(letters)
    q, c, epsilon = case["q"], case["c"], case["epsilon"]
    refused = (case["strict"] and foreign) or not (
        (q is None or 1 <= q < m)
        and (c is None or 0 < c < 1)
        and (epsilon is None or 0 < epsilon < 1)
    )
    # a filter plan the overrides or --mode filter ask for may be infeasible
    may_refuse = case["mode"] == "filter" or (
        case["mode"] == "auto" and (q is not None or c is not None)
    )
    rows = b"".join(plain_rows(name, seq, pattern, k) for name, seq in records)
    with tempfile.TemporaryDirectory() as tmp:
        text = os.path.join(tmp, "t.fa")
        with open(text, "wb") as fh:
            fh.write(case["blob"])
        argv += ["--text", text]
        if case["pattern_file"]:
            argv += ["--pattern-file", os.path.join(tmp, "p.fa")]
            with open(argv[-1], "wb") as fh:
                fh.write(b">p\r\n" + case["pattern"] + b"\r\n")
        else:
            argv += ["--pattern", os.fsdecode(case["pattern"])]
        if case["cache"]:
            argv += ["--index-cache", os.path.join(tmp, "idx.bin")]
        # with a cache, the first run builds and saves the index and the
        # second loads it
        for _ in range(1 + case["cache"]):
            code, out, err = _run_main(main_fn, argv)
            if refused or (may_refuse and code == 2):
                assert (code, out) == (2, b"") and err.startswith("error: ")
                assert err.count("\n") == 1
                assert not (case["strict"] and foreign) or "outside the alphabet" in err
            else:
                assert (code, out, err) == (0 if rows else 1, rows, ""), argv


def test_cli_one_letter_alphabet(tmp_path):
    text = tmp_path / "t.txt"
    text.write_bytes(b"AAAA")
    argv = ["--pattern", "AA", "--text", str(text), "-k", "0"]
    code, out, err = _run_main(main, argv)
    assert (code, out, err) == (0, plain_rows(b"text", b"AAAA", b"AA", 0), "")
    assert out.count(b"\n") == 6
    code, out, err = _run_main(main, [*argv, "--mode", "filter"])
    assert (code, out) == (2, b"") and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("pattern, text, row", [
    pytest.param("café".encode(), "un café noir".encode(), b"text\t3\t5\t0\t0\n", id="utf-8"),
    pytest.param(b"caf\xe9", b"un caf\xe9 noir", b"text\t3\t4\t0\t0\n", id="latin-1"),
])
def test_cli_pattern_argument_is_its_bytes(tmp_path, pattern, text, row):
    # --pattern and letters:STR take the bytes the shell passed, which
    # os.fsdecode turns into the str that sys.argv holds, so --pattern
    # finds what --pattern-file finds, and --strict accepts the text's own
    # letters
    (tmp_path / "t.txt").write_bytes(text)
    (tmp_path / "p.txt").write_bytes(pattern)
    argv = ["--text", str(tmp_path / "t.txt"), "-k", "0"]
    by_file = _run_main(main, [*argv, "--pattern-file", str(tmp_path / "p.txt")])
    by_arg = _run_main(main, [*argv, "--pattern", os.fsdecode(pattern)])
    letters = "letters:" + os.fsdecode(bytes(sorted(set(text))))
    strict = _run_main(main, [*argv, "--pattern", os.fsdecode(pattern), "--alphabet", letters,
                              "--strict"])
    assert by_file == by_arg == strict == (0, row, "")


@settings(max_examples=200, deadline=None)
@given(case=cli_cases())
# an auto alphabet of one letter: every plan verifies all windows
@example(case=dict(
    pattern=b"AA", k=0, records=[(b"text", b"AAAA")], blob=b"AAAA\n", mode="auto",
    alphabet="auto", fold_case=False, strict=False, pattern_file=False, cache=False,
    q=None, c=None, epsilon=None,
))
def test_cli_matches_plain_dp(case):
    check_cli_against_plain_dp(main, case)


@pytest.mark.parametrize("module, old, new", [
    pytest.param(bitparallel, "data[p : p + self.m + self.k]", "data[p : p + self.m + self.k - 1]",
                 id="length-pass-one-letter-short"),
    pytest.param(cli, "pattern = pattern.upper()", "pattern = pattern",
                 id="fold-case-skips-the-pattern"),
    pytest.param(cli, 'b"".join(parts)) for', 'b"".join(parts)[:-1]) for',
                 id="record-ends-one-letter-early"),
])
def test_cli_plain_dp_check_catches_mutants(monkeypatch, module, old, new):
    mutant = load_mutant(module, old, new)
    if module is bitparallel:
        monkeypatch.setattr(searcher, "rotation_screen", mutant.rotation_screen)
    mutant_main = getattr(mutant, "main", main)

    def fails(case) -> bool:
        try:
            check_cli_against_plain_dp(mutant_main, case)
        except (AssertionError, KeyError):  # a wrong row, or a traceback out of main
            return True
        return False

    case = find(cli_cases(), fails, settings=settings(
        max_examples=500, phases=[Phase.generate], derandomize=True, database=None))
    monkeypatch.undo()
    check_cli_against_plain_dp(main, case)  # the case the mutant fails, the program passes
