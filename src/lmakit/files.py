"""The file boundary: every input file is read through `read_text`, and every
output file is opened through `open_output`.  A missing, unreadable or
non-UTF-8 input, and an output that cannot be written, is a data error
naming its path."""

import csv
import io
import json
from contextlib import contextmanager

from .errors import LmaError


def read_text(path):
    """The UTF-8 text of the file at `path`, every line ending read as '\\n'."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise LmaError(f"{path}: cannot read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise LmaError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from e


@contextmanager
def open_output(path):
    """`path` opened for writing UTF-8 text, with no line-end translation."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as e:
        raise LmaError(f"{path}: cannot write: {e.strerror or e}") from e


def write_csv(path, header, rows):
    """A header line, then one line per row, each ending in '\\n'."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def csv_cell(field):
    """`field` as csv.writer puts it on a line beside other fields; a line of
    one empty field alone would be quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((field, ""))
    return buf.getvalue()[:-2]


def write_json(path, payload):
    """`payload` indented by 2 with sorted keys, and a final newline."""
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
