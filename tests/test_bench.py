import pytest

from circmatch.bench import Experiment, format_table, run_experiment


def _strip_wall(rows):
    return [
        (r.m, r.k, r.mode, r.q, r.c, r.windows_verified_rate, r.chars_per_text_char)
        for r in rows
    ]


def test_determinism_across_runs():
    e = Experiment(seed=42, sigma=4, n=5000, pairs=((16, 1), (32, 2)), reps=2)
    assert _strip_wall(run_experiment(e)) == _strip_wall(run_experiment(e))


def test_seed_changes_nothing_structural_but_everything_else():
    base = Experiment(seed=1, sigma=4, n=4000, pairs=((24, 1),), reps=1)
    other = Experiment(seed=2, sigma=4, n=4000, pairs=((24, 1),), reps=1)
    r1, r2 = run_experiment(base)[0], run_experiment(other)[0]
    assert (r1.m, r1.k, r1.mode, r1.q) == (r2.m, r2.k, r2.mode, r2.q)


def test_verify_all_control_rows():
    e = Experiment(seed=3, sigma=4, n=2000, pairs=((16, 1),), reps=1, mode="verify-all")
    rows = run_experiment(e)
    assert rows[0].mode == "verify-all"
    assert rows[0].windows_verified_rate == 1.0


def test_table_format():
    e = Experiment(seed=5, sigma=4, n=2000, pairs=((16, 0),), reps=1)
    text = format_table(run_experiment(e))
    lines = text.strip().split("\n")
    assert lines[0].startswith("#m\tk\tmode")
    assert len(lines) == 2
    assert lines[1].split("\t")[0] == "16"


def test_sublinear_inspection_on_random_text():
    e = Experiment(seed=7, sigma=4, n=50000, pairs=((64, 2),), reps=2)
    row = run_experiment(e)[0]
    assert row.mode == "filter"
    assert row.chars_per_text_char < 1.0


# the deterministic columns (m, k, mode, q, c, rate, chars) of seed 11,
# n = 4000, pairs 16:1, 32:1 and 64:2; the letters come from the plain
# splitmix64 formula, and these rows are those of the earlier numpy
# generator with plan's default budgets
PINNED_TABLES = {
    2: """\
16	1	verify-all	-	-	1.000000	1.000000
32	1	filter	3	0.09	1.000000	1.483750
64	2	filter	7	0.09	0.214286	1.352250
""",
    4: """\
16	1	filter	2	0.20	0.708054	1.614000
32	1	filter	8	0.15	0.000000	0.358000
64	2	filter	8	0.10	0.000000	0.222000
""",
    20: """\
16	1	filter	3	0.25	0.000000	0.265500
32	1	filter	3	0.09	0.000000	0.140250
64	2	filter	3	0.08	0.000000	0.114000
""",
}


@pytest.mark.parametrize("sigma", sorted(PINNED_TABLES))
def test_pinned_table(sigma):
    e = Experiment(seed=11, sigma=sigma, n=4000, pairs=((16, 1), (32, 1), (64, 2)))
    lines = format_table(run_experiment(e)).splitlines(True)[1:]
    assert "".join(line.rsplit("\t", 1)[0] + "\n" for line in lines) == PINNED_TABLES[sigma]
