"""Whole-file writes: an output replaces its file only once it is complete."""

from __future__ import annotations

import contextlib
import io
import os
import stat
import sys


@contextlib.contextmanager
def whole_file(path, mode="w", encoding=None):
    """Open ``path`` for writing, as ``open(path, mode, encoding=encoding)``
    would, but write to ``.<name>.<pid>.tmp`` in the same directory and
    ``os.replace`` that onto ``path`` once the block ends and the file is
    closed.  A failed write, from a full disk or a file size limit, or an
    exception in the block, removes the temporary file and leaves the old
    file whole; an ``OSError`` of the temporary file is raised again naming
    ``path``.  The temporary file is made by ``open``, so a new output gets
    the mode a direct write gives it; a replaced file keeps its permission
    bits, as it would if written in place.

    A symlink is written through to the file it points to.  A ``path`` that
    is the process's own standard output (the file of descriptor 1), such
    as ``/dev/stdout`` on a pipe or redirected to a file, is written through
    ``sys.stdout``'s buffer, after what was printed before and before what
    is printed after.  Any other ``path`` that exists and is not a regular
    file, such as ``/dev/null`` or a named pipe, is written in place:
    renaming onto it would replace the device or pipe with a regular
    file."""
    try:
        status = os.stat(path)
    except OSError:  # missing, or an error the open below reports
        old = None
    else:
        old = status.st_mode
        if _is_stdout(status):
            yield from _through_stdout(mode, encoding)
            return
    if old is not None and not stat.S_ISREG(old):
        with open(path, mode, encoding=encoding) as out:
            yield out
        return
    target = os.fsencode(os.path.realpath(path))
    directory, name = os.path.split(target)
    # <name> is cut to its first 200 bytes: a name of 255, the longest a
    # file system takes, leaves room for the rest
    temporary = os.path.join(directory, b".%s.%d.tmp" % (name[:200],
                                                         os.getpid()))
    try:
        with open(temporary, mode, encoding=encoding) as out:
            if old is not None:
                os.chmod(out.fileno(), old & 0o777)
            yield out
        os.replace(temporary, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        # gone once renamed; never made if the open failed
        with contextlib.suppress(OSError):
            os.remove(temporary)


def _is_stdout(status):
    """Whether ``status``, an ``os.stat`` result, is that of file
    descriptor 1."""
    try:
        out = os.fstat(1)
    except OSError:  # closed
        return False
    return (status.st_dev, status.st_ino) == (out.st_dev, out.st_ino)


def _through_stdout(mode, encoding):
    """Yield a writer onto ``sys.stdout``'s buffer: the buffer itself for a
    binary ``mode``, else a text layer over it in ``encoding``, detached
    once the block ends, so the buffer stays open."""
    sys.stdout.flush()
    if "b" in mode:
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    out = io.TextIOWrapper(sys.stdout.buffer, encoding=encoding)
    try:
        yield out
        out.flush()
    finally:
        out.detach()
