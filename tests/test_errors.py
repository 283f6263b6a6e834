import os

import pytest

from persona_miner.errors import ConfigError, write_csv, write_json


def _rows_failing_after(n, exc):
    for i in range(n):
        yield [f"row{i}", i]
    raise exc


@pytest.mark.parametrize("exc", [ValueError("boom"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_write_csv_failing_partway_keeps_the_old_file(tmp_path, exc):
    path = tmp_path / "out.csv"
    with pytest.raises(type(exc)):
        write_csv(path, ["name", "value"], _rows_failing_after(3, exc))
    assert list(tmp_path.iterdir()) == []

    write_csv(path, ["name", "value"], ([f"old{i}", i] for i in range(1000)))
    before = path.read_bytes()
    with pytest.raises(type(exc)):
        write_csv(path, ["name", "value"], _rows_failing_after(500, exc))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_json_of_unserializable_object_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 1, "a": [1.5, None]}, sort_keys=True)
    before = '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'
    assert path.read_text("utf-8") == before
    with pytest.raises(TypeError):
        write_json(path, {"a": object()})
    assert path.read_text("utf-8") == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("kind", ["fifo", "link-to-fifo", "directory"])
def test_write_csv_rejects_a_path_that_is_not_a_regular_file(tmp_path, kind):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    path = {"fifo": fifo, "link-to-fifo": tmp_path / "link", "directory": tmp_path}[kind]
    if kind == "link-to-fifo":
        path.symlink_to(fifo)
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(ConfigError, match="not a regular file"):
        write_csv(path, ["name"], [["a"]])
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert fifo.is_fifo()
    assert path.is_symlink() == (kind == "link-to-fifo")


def test_write_csv_follows_a_symbolic_link_to_a_file(tmp_path):
    target = tmp_path / "data" / "out.csv"
    target.parent.mkdir()
    target.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_csv(link, ["name"], [["a"]])
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == b"name\r\na\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.csv"]
    assert [p.name for p in target.parent.iterdir()] == ["out.csv"]


def test_write_csv_where_no_file_can_be_made_is_a_config_error(tmp_path):
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(ConfigError, match=f"{path}: cannot write"):
        write_csv(path, ["name"], [["a"]])
    assert list(tmp_path.iterdir()) == []
