"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data import load_jsonl, save_jsonl, small_dataset


@pytest.fixture()
def dataset_path(tiny_log, tmp_path):
    path = tmp_path / "cohort.jsonl"
    save_jsonl(tiny_log, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


def test_figure1(capsys):
    code, output = run(capsys, "figure1")
    assert code == 0
    assert "ADA-HEALTH architecture" in output
    assert "kdb" in output


def test_generate_jsonl(capsys, tmp_path):
    target = tmp_path / "out.jsonl"
    code, output = run(
        capsys,
        "generate",
        str(target),
        "--patients", "80",
        "--exam-types", "20",
        "--records", "1200",
        "--seed", "2",
    )
    assert code == 0
    assert "80 patients" in output
    log = load_jsonl(target)
    assert log.n_patients == 80
    assert log.n_exam_types == 20


def test_generate_csv(capsys, tmp_path):
    target = tmp_path / "csvdir"
    code, __ = run(
        capsys,
        "generate",
        str(target),
        "--patients", "60",
        "--exam-types", "20",
        "--records", "900",
        "--format", "csv",
    )
    assert code == 0
    assert (target / "records.csv").exists()
    assert (target / "exam_types.csv").exists()


def test_describe_file(capsys, dataset_path):
    code, output = run(capsys, "describe", dataset_path)
    assert code == 0
    assert "patients      : 60" in output
    assert "sparsity" in output
    assert "most frequent exams:" in output


def test_describe_synthetic(capsys):
    code, output = run(capsys, "describe", "--synthetic", "100")
    assert code == 0
    assert "patients      : 100" in output


def test_describe_without_dataset_errors(capsys):
    with pytest.raises(SystemExit):
        main(["describe"])


def test_analyze(capsys):
    code, output = run(
        capsys, "analyze", "--synthetic", "200", "--top", "4",
    )
    assert code == 0
    assert "end-goals:" in output
    assert "top 4 knowledge items:" in output
    assert "  1. [" in output


def test_analyze_restricted_goal(capsys):
    code, output = run(
        capsys,
        "analyze",
        "--synthetic", "200",
        "--goal", "co-prescription-patterns",
        "--top", "2",
    )
    assert code == 0
    assert "[itemset]" in output
    assert "[cluster" not in output


def test_table1_small(capsys, dataset_path):
    code, output = run(
        capsys, "table1", dataset_path, "--k", "3", "4", "--folds", "3",
    )
    assert code == 0
    assert "SSE" in output
    assert "selected K =" in output


def test_partial(capsys, dataset_path):
    code, output = run(capsys, "partial", dataset_path)
    assert code == 0
    assert "selected subset" in output


def test_kdb_stats_and_compact(capsys, tmp_path):
    import json

    from repro.kdb.shards import ShardedDocumentStore

    directory = tmp_path / "kdb"
    store = ShardedDocumentStore(directory, n_shards=2)
    store["c"].insert_many([{"x": i} for i in range(5)])
    store.close()

    code, output = run(capsys, "kdb", "stats", str(directory))
    assert code == 0
    stats = json.loads(output)
    assert stats["c"]["documents"] == 5
    assert stats["c"]["pending_ops"] == 5

    code, output = run(capsys, "kdb", "compact", str(directory))
    assert code == 0
    assert "folded 5 pending op(s)" in output

    code, output = run(capsys, "kdb", "stats", str(directory))
    assert code == 0
    assert json.loads(output)["c"]["pending_ops"] == 0


def test_kdb_stats_and_compact_migrate_a_flat_directory(capsys, tmp_path):
    import json

    from repro.kdb.documentstore import DocumentStore
    from tests.flat_store import write_flat_store

    store = DocumentStore()
    store["c"].insert_many([{"x": i} for i in range(5)])
    store["c"].create_index("x", unique=True)
    directory = write_flat_store(store, tmp_path / "kdb")

    # fsck reads only the framed format
    assert main(["kdb", "fsck", str(directory)]) == 1
    assert "no sharded K-DB" in capsys.readouterr().err

    code = main(["kdb", "stats", str(directory)])
    captured = capsys.readouterr()
    assert code == 0
    assert "migrated the flat K-DB" in captured.err
    stats = json.loads(captured.out)
    assert stats["c"]["documents"] == 5
    assert stats["c"]["indexes"] == ["x_1"]
    assert not (directory / "_manifest.json").exists()

    directory = write_flat_store(store, tmp_path / "again")
    code, output = run(capsys, "kdb", "compact", str(directory))
    assert code == 0
    code, output = run(capsys, "kdb", "stats", str(directory))
    assert json.loads(output)["c"]["documents"] == 5


def test_kdb_stats_missing_directory(capsys, tmp_path):
    code = main(["kdb", "stats", str(tmp_path / "nowhere")])
    err = capsys.readouterr().err
    assert code == 1
    assert "no sharded K-DB" in err


def test_kdb_fsck_detects_and_repairs(capsys, tmp_path):
    import json

    from repro.kdb.shards import ShardedDocumentStore

    directory = tmp_path / "kdb"
    store = ShardedDocumentStore(directory, n_shards=2)
    store["c"].insert_many([{"x": i} for i in range(8)])
    store.close()

    code, output = run(capsys, "kdb", "fsck", str(directory))
    assert code == 0
    assert "clean" in output

    # tear the tail of a non-empty shard log
    victim = next(
        path
        for path in sorted(directory.glob("c.shard-*.log.jsonl"))
        if path.stat().st_size > 4
    )
    victim.write_bytes(victim.read_bytes()[:-4])

    code, output = run(capsys, "kdb", "fsck", str(directory))
    assert code == 1
    assert "torn" in output

    code, output = run(
        capsys, "kdb", "fsck", str(directory), "--repair", "--json"
    )
    assert code == 0
    report = json.loads(output)
    assert report["ok"] is True
    assert any(issue["repaired"] for issue in report["issues"])

    code, output = run(capsys, "kdb", "fsck", str(directory))
    assert code == 0


def test_shm_ls_and_reap(capsys):
    code, output = run(capsys, "shm", "ls")
    assert code == 0
    code, output = run(capsys, "shm", "reap")
    assert code == 0
    assert "reaped 0 segment(s)" in output


@pytest.mark.parametrize("command", ["describe", "analyze", "table1"])
def test_malformed_log_prints_one_line_and_exits_2(
    capsys, dataset_path, command
):
    from pathlib import Path

    path = Path(dataset_path)
    lines = path.read_text().splitlines()
    lines[2] = '{"patient_id": 3, "day": "abc"'
    path.write_text("\n".join(lines) + "\n")

    code = main([command, dataset_path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"repro: {dataset_path}:3: invalid JSON:"
        " Expecting ',' delimiter\n"
    )


def test_missing_log_is_a_typed_error(capsys, tmp_path):
    missing = tmp_path / "nowhere.jsonl"
    code = main(["describe", str(missing)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"repro: no such file: {missing}\n"
