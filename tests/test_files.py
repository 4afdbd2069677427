import os
import stat

import pytest

from metovec.files import whole_file


def test_failed_block_keeps_the_old_file(tmp_path):
    """An exception in the block leaves the old file and no temporary
    file; a block that ends replaces the file."""
    path = tmp_path / "out"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with whole_file(path) as out:
            out.write("new")
            raise RuntimeError
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out"]
    with whole_file(path) as out:
        out.write("new")
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["out"]


def test_symlink_is_written_through(tmp_path):
    target = tmp_path / "target"
    target.write_text("old")
    link = tmp_path / "link"
    link.symlink_to(target)
    with whole_file(link) as out:
        out.write("new")
    assert link.is_symlink() and target.read_text() == "new"
    assert sorted(os.listdir(tmp_path)) == ["link", "target"]


def test_file_mode_is_that_of_a_direct_write(tmp_path):
    """A new file gets the mode that open() gives it; a replaced file
    keeps its own, as a write in place keeps it."""
    with open(tmp_path / "direct", "w"):
        pass
    with whole_file(tmp_path / "whole"):
        pass
    assert os.stat(tmp_path / "whole").st_mode \
        == os.stat(tmp_path / "direct").st_mode
    os.chmod(tmp_path / "whole", 0o600)
    with whole_file(tmp_path / "whole"):
        pass
    assert stat.S_IMODE(os.stat(tmp_path / "whole").st_mode) == 0o600


def test_named_pipe_is_written_in_place(tmp_path):
    """Renaming onto a pipe, or a device such as /dev/null, would replace
    it with a regular file; it is written as it is."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with whole_file(pipe) as out:
            out.write("through\n")
        assert os.read(reader, 100) == b"through\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_longest_name_and_failed_open_name_the_output(tmp_path):
    """A name of 255 bytes, the longest a file system takes, leaves room
    for the temporary file's suffix; a temporary file that cannot be made
    fails naming the output."""
    path = tmp_path / ("\u00e9" * 127 + "x")  # 2 bytes a character
    with whole_file(path) as out:
        out.write("long")
    assert path.read_text() == "long"
    missing = tmp_path / "missing" / "out"
    with pytest.raises(FileNotFoundError) as err:
        with whole_file(missing):
            pass
    assert err.value.filename == str(missing)
