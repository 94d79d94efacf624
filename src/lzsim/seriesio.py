"""Series file reading/writing: CSV for plotting, JSON for programs.

Every file carries the schema version and a flattened provenance block.
Floats are written in their shortest round-trip form, exactly as ``repr``
writes them, so identical runs produce identical bytes.  The CSV body is
rendered by orjson, whose shortest digits are ``repr``'s; only rows holding a
cell that orjson writes in another notation (non-zero below 1e-4, from 1e16
up, non-finite) go through ``repr``.  Writes go to a temporary file in the
target directory followed by an atomic rename; a failed run leaves nothing
behind.

orjson reads the CSV body too, one block of rows per call, when the body
holds only the bytes lzsim writes; any other body is read cell by cell.  A
row of the wrong width, or a cell that is not a number, is refused with the
file and its line.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .model import Basis, DriveParameters, epsilon_at
from .propagator import Trajectory

SCHEMA_VERSION = 1
# rows per orjson call, written or read: one block's strings are alive at a time
_BLOCK_ROWS = 4096
# the bytes of every CSV body lzsim writes
_PLAIN_BYTES = b"0123456789.eE+-,\n"


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    elif isinstance(obj, (list, tuple)):
        out[prefix] = ",".join(_scalar_str(x) for x in obj)
    else:
        out[prefix] = _scalar_str(obj)


def _scalar_str(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def atomic_write_text(path: Path, text: str) -> None:
    """Write text via a same-directory temp file and atomic rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def series_table(
    traj: Trajectory,
    drive: DriveParameters | None = None,
    adiabatic: Trajectory | None = None,
) -> tuple[list[str], np.ndarray]:
    """Column names and the (rows, columns) float table of a trajectory.

    Optional columns: the instantaneous detuning (needs the drive) and
    adiabatic-basis populations, populated only at the sample times the
    masked adiabatic trajectory kept (NaN elsewhere, written as empty cells).
    """
    columns = ["t_ns", "P0", "P1"]
    cols: list[np.ndarray] = [traj.times, traj.p0, traj.p1]
    if drive is not None:
        columns.append("epsilon_MHz")
        cols.append(np.asarray(epsilon_at(drive, traj.times)))
    if adiabatic is not None:
        if adiabatic.basis is not Basis.ADIABATIC:
            raise ValueError("overlay trajectory must be adiabatic-basis")
        columns += ["P_adiab_g", "P_adiab_e"]
        g = np.full(traj.times.size, np.nan)
        e = np.full(traj.times.size, np.nan)
        idx = np.searchsorted(traj.times, adiabatic.times)
        ok = (idx < traj.times.size) & np.isclose(
            traj.times[np.minimum(idx, traj.times.size - 1)], adiabatic.times
        )
        if not np.all(ok):
            raise ValueError("adiabatic overlay samples are not a subset of the base grid")
        g[idx] = adiabatic.p0
        e[idx] = adiabatic.p1
        cols += [g, e]
    data = np.column_stack(cols).astype(float, copy=False)
    # only the overlay cells may be NaN (outside its mask)
    nan_rows = np.flatnonzero(np.isnan(data[:, 1:3]).any(axis=1))
    if nan_rows.size:
        raise ValueError(f"P0/P1 hold NaN at t_ns = {float(data[nan_rows[0], 0])}")
    # probabilities must sit in [0, 1]; clamp defensible float dust only
    p_cols = [j for j, name in enumerate(columns) if name.startswith("P")]
    probs = data[:, p_cols]
    bad = np.argwhere((probs < -1e-9) | (probs > 1 + 1e-9))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"column {columns[p_cols[j]]} out of [0, 1]: {float(probs[i, j])}")
    np.clip(probs, 0.0, 1.0, out=probs)
    probs += 0.0  # turns a clamped -0.0 into 0.0
    data[:, p_cols] = probs
    return columns, data


def render_series_csv(columns, rows, provenance: dict) -> str:
    """Header, column names and one line per row; NaN cells are left empty, so
    a one-column table holding NaN is refused (readers skip a blank line)."""
    import orjson  # only commands that write a CSV pay its import

    data = np.ascontiguousarray(rows, dtype=np.float64)  # orjson refuses other layouts
    if len(columns) == 1 and np.isnan(data).any():
        raise ValueError(f"column {columns[0]} holds NaN, which a one-column CSV cannot write")
    flat: dict[str, str] = {}
    _flatten("", provenance, flat)
    lines = [f"# lzsim-series schema={SCHEMA_VERSION}"]
    lines += [f"# {k} = {v}" for k, v in sorted(flat.items())]
    lines.append(",".join(columns))
    for start in range(0, len(data), _BLOCK_ROWS):
        block = data[start:start + _BLOCK_ROWS]
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        block_lines = text[2:-2].split("],[")  # '[[a,b],[c,d]]' -> ['a,b', 'c,d']
        # orjson writes repr's digits, but in its own notation below 1e-4 and
        # from 1e16 up, and non-finite cells as 'null': those rows go through repr
        mag = np.abs(block)
        off_notation = (block != 0) & ~((mag >= 1e-4) & (mag < 1e16))
        for i in np.flatnonzero(off_notation.any(axis=1)):
            # repr writes NaN as 'nan', and no other float's repr contains it
            block_lines[i] = ",".join(map(repr, block[i].tolist())).replace("nan", "")
        lines.append("\n".join(block_lines))
    return "\n".join(lines) + "\n"


def render_series_json(columns, rows, provenance: dict) -> str:
    data = np.asarray(rows, dtype=float)
    doc = {
        "schema": SCHEMA_VERSION,
        "provenance": provenance,
        "columns": list(columns),
        "rows": np.where(np.isnan(data), None, data).tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_series(
    path: Path,
    traj: Trajectory,
    provenance: dict,
    fmt: str = "csv",
    drive: DriveParameters | None = None,
    adiabatic: Trajectory | None = None,
) -> None:
    columns, rows = series_table(traj, drive=drive, adiabatic=adiabatic)
    if fmt == "csv":
        text = render_series_csv(columns, rows, provenance)
    elif fmt == "json":
        text = render_series_json(columns, rows, provenance)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    atomic_write_text(Path(path), text)


def read_series(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """Parse a series file (either format) into (meta, columns, data).

    Missing values come back as NaN, and a file without rows as shape
    (0, len(columns)).  CSV meta is the flattened provenance; JSON meta is the
    nested provenance dict.

    A CSV body made only of the bytes lzsim writes (digits, ``.eE+-``, commas
    and line breaks) is parsed by orjson, ``_BLOCK_ROWS`` rows per call; any
    other body (blanks, CR, ``nan``/``inf``, comment lines) is parsed cell by
    cell as ``float()`` reads it, skipping blank lines and ``#`` comments.
    Both read an empty cell as NaN.  A row whose width is not the number of
    columns, or a cell that is not a number, raises ValueError naming the file
    and its line; so does a header that is not UTF-8, and a JSON file that
    does not parse, lacks a key or holds no table of numbers.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw.lstrip().startswith(b"{"):
        try:  # bad JSON or UTF-8, a missing key, rows of unequal width or not numbers
            doc = json.loads(raw)
            meta, columns = doc["provenance"], list(doc["columns"])
            data = np.array(doc["rows"], dtype=float)  # a None cell becomes NaN
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a JSON series ({type(exc).__name__}: {exc})") from None
        return meta, columns, _table(path, columns, data)
    meta: dict[str, str] = {}
    columns: list[str] = []
    # the header is the leading '#' and blank lines, then the column names;
    # only the header is decoded
    start = 0
    while start < len(raw) and not columns:
        end = raw.find(b"\n", start) + 1 or len(raw)
        try:
            line = raw[start:end].decode().strip()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: the header is not UTF-8 text") from None
        start = end
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and not body.startswith("lzsim-series"):
                k, _, v = body.partition("=")
                meta[k.strip()] = v.strip()
        elif line:
            columns = line.split(",")
    if not columns:
        raise ValueError(f"{path}: no column header found")
    # the body without its leading and trailing line breaks, cut in one copy
    stop = len(raw)
    while stop > start and raw[stop - 1] in b"\r\n":
        stop -= 1
    while start < stop and raw[start] in b"\r\n":
        start += 1
    first_line = raw.count(b"\n", 0, start) + 1
    body = raw[start:stop]
    del raw  # parse with only the body alive
    if not body or body.isspace():
        return meta, columns, _table(path, columns, np.array([], dtype=float))
    if body.translate(None, _PLAIN_BYTES):
        return meta, columns, _parse_cells(path, body.splitlines(), first_line, columns)
    return meta, columns, _parse_plain(path, body, first_line, columns)


def _parse_plain(path: Path, body: bytes, first_line: int, columns: list[str]) -> np.ndarray:
    """A body of plain bytes as a (rows, columns) table: the widths checked
    from the comma and line-break positions, the cells parsed by orjson."""
    import orjson  # only commands that read a CSV pay its import

    n = len(columns)
    b = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(b == 10)  # the line break after every row but the last
    if ends.size and (np.diff(ends) == 1).any():  # blank lines are skipped there
        return _parse_cells(path, body.splitlines(), first_line, columns)
    commas = np.flatnonzero(b == 44)
    rows = ends.size + 1
    # n - 1 commas in every row: as many in all, and each line break between
    # the last comma of its row and the first of the next
    even = commas.size == rows * (n - 1)
    if even and n > 1:
        by_row = commas.reshape(rows, n - 1)
        even = bool(((by_row[:-1, -1] < ends) & (by_row[1:, 0] > ends)).all())
    if not even:  # the first ragged row, for the message
        widths = np.bincount(np.searchsorted(ends, commas), minlength=rows) + 1
        row = int(np.flatnonzero(widths != n)[0])
        raise ValueError(_width_error(path, first_line + row, int(widths[row]), columns))
    # each cell ends at a separator: a comma, a line break or the body's end
    seps = np.concatenate((commas, ends, [b.size]))
    del commas
    before = b[seps - 1]
    has_empty = b[0] == 44 or bool(((before == 44) | (before == 10)).any())
    # JSON reads the integer '-0' as 0, float() as -0.0: such bodies go cell by cell
    minus_zero = seps[(before == 48) & (b[np.maximum(seps - 2, 0)] == 45)]
    lead = b[np.maximum(minus_zero - 3, 0)]
    if ((minus_zero == 2) | (lead == 44) | (lead == 10)).any():
        return _parse_cells(path, body.splitlines(), first_line, columns)
    del seps, before
    # block k is body[cuts[k] + 1:cuts[k + 1]]
    cuts = np.concatenate(([-1], ends[_BLOCK_ROWS - 1::_BLOCK_ROWS], [b.size])).tolist()
    data = np.empty((rows, n))
    for first, lo, hi in zip(range(0, rows, _BLOCK_ROWS), cuts, cuts[1:]):
        chunk = body[lo + 1:hi]
        text = b"[" + chunk.replace(b"\n", b",") + b"]"
        if has_empty:  # an empty cell sits between two separators or at an end
            for _ in range(2):  # a run of n empty cells needs two non-overlapping passes
                text = text.replace(b",,", b",null,")
            text = text.replace(b"[,", b"[null,").replace(b",]", b",null]")
        try:
            cells = orjson.loads(text)
        except orjson.JSONDecodeError:  # a number JSON does not write, such as '.5' or '1e400'
            cells = _parse_cells(path, chunk.splitlines(), first_line + first, columns)
        block = data[first:first + _BLOCK_ROWS]
        block[...] = np.array(cells, dtype=float).reshape(block.shape)  # None -> NaN
    return data


def _parse_cells(path: Path, lines: list[bytes], first_line: int, columns: list[str]) -> np.ndarray:
    """Body lines parsed cell by cell with ``float()``: an empty cell is NaN,
    blank lines and ``#`` comments are skipped."""
    n = len(columns)
    rows = []
    for line_no, line in enumerate(lines, first_line):
        line = line.partition(b"#")[0]
        if not line.strip():
            continue
        cells = line.split(b",")
        if len(cells) != n:
            raise ValueError(_width_error(path, line_no, len(cells), columns))
        row = []
        for cell in cells:
            try:
                row.append(float(cell) if cell else math.nan)
            except ValueError:
                text = cell.decode(errors="replace").strip()
                raise ValueError(f"{path}: line {line_no}: {text!r} is not a number") from None
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, n)


def _width_error(path: Path, line_no: int, width: int, columns: list[str]) -> str:
    return (f"{path}: line {line_no}: a row of {width} cells under "
            f"{len(columns)} columns ({','.join(columns)})")


def _table(path: Path, columns: list[str], data: np.ndarray) -> np.ndarray:
    """``data`` as a (rows, columns) table: no rows is shape (0, len(columns));
    rows of another width are refused."""
    if not len(data):
        return np.empty((0, len(columns)))
    if data.ndim != 2:
        raise ValueError(f"{path}: the rows are not lists of cells")
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: rows of {data.shape[1]} cells under "
                         f"{len(columns)} columns ({','.join(columns)})")
    return data


def render_table_csv(columns, rows, provenance: dict) -> str:
    """Plain table (sweep output): same header discipline as series files."""
    return render_series_csv(columns, rows, provenance)
