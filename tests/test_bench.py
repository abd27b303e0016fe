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
