"""How the package writes a file: every output is written whole to
``<name>.<pid>.tmp`` beside it and then renamed over it, so an interrupted
write leaves the old file, or none, and never half of a new one."""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import ExitStack, contextmanager
from pathlib import Path
from types import SimpleNamespace


_SYSTEM_DIRS = ("/dev/", "/proc/")


def _leads_into_system_dirs(path: str | Path) -> bool:
    """Whether ``path``, or a link on the way to the file it names, lies
    under /dev or /proc (/dev/stdout is a link to /proc/self/fd/1)."""
    name = os.path.abspath(path)
    for _ in range(40):  # as many links as the kernel follows
        name = os.path.join(os.path.realpath(os.path.dirname(name)),
                            os.path.basename(name))
        if name.startswith(_SYSTEM_DIRS):
            return True
        if not os.path.islink(name):
            return False
        name = os.path.join(os.path.dirname(name), os.readlink(name))
    return True


def check_target(path: str | Path) -> None:
    """Raise OSError for a ``path`` that ``replacing`` refuses: one under
    /dev or /proc, or a link that leads there, and one that exists and,
    links followed, is not a regular file."""
    if _leads_into_system_dirs(path):
        raise OSError(f"{path} is under /dev or /proc, or links there")
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{path} exists and is not a regular file")


@contextmanager
def replacing(path: str | Path, binary: bool = False):
    """A file for ``path``'s new contents: bytes, or UTF-8 text with no
    newline translation. It replaces ``path`` on a clean exit and is
    removed on any exception. A ``path`` that ``check_target`` refuses is
    refused before anything is written."""
    check_target(path)
    temp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with (open(temp, "wb") if binary
              else open(temp, "w", encoding="utf-8", newline="")) as f:
            yield f
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def replace_together(files) -> None:
    """Each ``(path, bytes)`` of ``files`` written whole to its temporary
    file; the files replace their paths only once every temporary file is
    complete, and a failure before then removes them all."""
    with ExitStack() as stack:
        for path, data in files:
            stack.enter_context(replacing(path, binary=True)).write(data)


def csv_writer(f, lineterminator: str = "\n"):
    """A ``csv.writer`` on ``f`` whose rows end in ``lineterminator``. It
    quotes as it does for the line end ``"\\r\\n"``, so a field holding a
    bare ``\\r`` is quoted too and ``csv.reader`` reads every field back."""
    # csv.writer hands each whole row, line end included, to one write()
    rows = SimpleNamespace(write=lambda row: f.write(row[:-2] + lineterminator))
    return csv.writer(rows, lineterminator="\r\n")


def rows_text(header, rows, lineterminator: str = "\n") -> str:
    """A CSV table: ``header`` and then each of ``rows``."""
    table = io.StringIO(newline="")
    writer = csv_writer(table, lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    return table.getvalue()


def write_rows(path: str | Path, header, rows, lineterminator: str = "\n") -> None:
    """``rows_text(header, rows, lineterminator)`` as the file at ``path``."""
    with replacing(path) as f:
        f.write(rows_text(header, rows, lineterminator))


def json_text(payload, indent: int | None = 2) -> str:
    """``payload`` as JSON with sorted keys and a final newline."""
    return json.dumps(payload, sort_keys=True, indent=indent) + "\n"


def write_json(path: str | Path, payload, indent: int | None = 2) -> None:
    """``json_text(payload, indent)`` as the file at ``path``."""
    with replacing(path) as f:
        f.write(json_text(payload, indent))
