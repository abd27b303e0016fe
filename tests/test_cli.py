import io
import random
import sys

import pytest

from circmatch.cli import FastaError, ingest_fasta, main
from helpers import plant_edited_rotation, random_string


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_fasta_concatenates_lines():
    assert ingest_fasta([">s1", "ACGT", "ACGT"]) == [("s1", b"ACGTACGT")]


def test_ingest_fasta_multiple_records():
    recs = ingest_fasta([">a", "AC", ">b", "GT"])
    assert recs == [("a", b"AC"), ("b", b"GT")]


def test_ingest_fasta_rejects_headerless():
    with pytest.raises(FastaError):
        ingest_fasta(["ACGT"])


def test_ingest_fasta_rejects_empty():
    with pytest.raises(FastaError):
        ingest_fasta([])


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


def test_cli_threads_match_single(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("gattacagattacaagtcaatgcaggacctggaacgt" * 20)
    args = ["--pattern", "gattacag", "--text", str(text), "-k", "1"]
    _, out1, _ = run_cli(args, capsys)
    _, out4, _ = run_cli(args + ["--threads", "4"], capsys)
    assert out1 == out4


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


def test_cli_oracle_mode_desk_scale_guard(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("A" * 3000)
    code, _, err = run_cli(
        ["--pattern", "ACGT" * 60, "--text", str(text), "--mode", "oracle", "-k", "0"],
        capsys,
    )
    assert code == 2 and "oracle mode refuses" in err
