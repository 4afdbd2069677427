"""Whole-file writes: an output replaces its file only once it is complete."""

from __future__ import annotations

import contextlib
import os
import stat


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
    exists and is not a regular file, such as ``/dev/stdout``, ``/dev/null``
    or a named pipe, is written in place: renaming onto it would replace the
    device or pipe with a regular file."""
    try:
        old = os.stat(path).st_mode
    except OSError:  # missing, or an error the open below reports
        old = None
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
