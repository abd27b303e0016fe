import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from circmatch.bitparallel import rotation_screen
from circmatch.cli import FastaError, ingest_fasta, main
from helpers import brute_search, count_half_tables, plant_edited_rotation, random_string


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
    # every record's filter scan shares the index's half tables, whether
    # the index was built or loaded from the cache
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


def test_search_path_loads_no_numpy_reference_or_bench(tmp_path):
    # numpy is for the oracle and the benchmark only; a fresh interpreter
    # that searches in verify-all mode, or in filter mode with an index it
    # builds and saves and then loads, never loads it
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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--pattern", "ACGTACGTTGCA", "--text", {str(text)!r}, "-k", "1", *extra])
    assert code == 0, code
    return out.getvalue()

rows = run("--mode", "verify-all")
for step in ("build", "load"):
    assert os.path.exists({str(cache)!r}) == (step == "load"), step
    assert run("--mode", "filter", "--epsilon", "0.8", "--index-cache", {str(cache)!r}) == rows
sys.stdout.write(rows)
loaded = [n for n in ("numpy", "circmatch.reference", "circmatch.bench") if n in sys.modules]
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
    ["bench", "--sigma", "4", "--n", "200", "--pairs", "16:1"],
])
def test_numpy_modes_without_numpy_exit_2(argv):
    # the oracle and the benchmark need numpy, which is optional: without it
    # they stop with one line and exit 2
    script = f"""
import sys
sys.modules["numpy"] = None
from circmatch.cli import main
sys.exit(main({argv!r}))
"""
    proc = run_python(script, input=">r1\nTTACGTACGTTGCATT\n")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "needs numpy" in proc.stderr
