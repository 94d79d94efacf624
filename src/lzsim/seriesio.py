"""Series file reading/writing: CSV for plotting, JSON for programs.

Every file carries the schema version and a flattened provenance block.
Floats are written in their shortest round-trip form, exactly as ``repr``
writes them, so identical runs produce identical bytes.  The CSV body is
rendered by orjson, whose shortest digits are ``repr``'s, one flat dump per
block of ``_BLOCK_ROWS`` rows; only the cells that orjson writes in another
notation (non-zero below 1e-4, from 1e16 up, non-finite) go through ``repr``,
spliced into the block's buffer between their commas.  Each block goes
straight to a temporary file in the target directory, so no whole-file text
is built, and an atomic rename ends the write; a failed run leaves nothing
behind.

orjson reads the CSV body too, one block of about ``_READ_BLOCK_BYTES`` cut at
a line break per call, taken from the file's bytes without copying the body,
when the body holds only the bytes lzsim writes; any other body is read cell
by cell.  A row of the wrong width, or a cell that is not a number, is
refused with the file and its line.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .model import Basis, DriveParameters, epsilon_at
from .propagator import Trajectory

SCHEMA_VERSION = 1
# rows per orjson dump and bytes per orjson parse: one block's buffers and
# objects are alive at a time
_BLOCK_ROWS = 4096
_READ_BLOCK_BYTES = 1 << 18
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
    _atomic_write(path, (text.encode(),))


def _atomic_write(path: Path, chunks) -> None:
    """Write an iterable of bytes chunks via a same-directory temp file and
    atomic rename.  The temp file is created as ``open()`` creates a file,
    mode 0o666 less the umask, and the rename keeps that mode."""
    path = Path(path)
    # a random name, and O_EXCL: an existing file is never opened
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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
    # the checks read a contiguous copy of the P columns, P0 and P1 first: a
    # column of the interleaved table is several times slower to scan
    p_cols = [j for j, name in enumerate(columns) if name.startswith("P")]
    probs = data[:, p_cols]
    # only the overlay cells may be NaN (outside its mask)
    nan = np.isnan(probs[:, :2])
    if nan.any():
        i = np.flatnonzero(nan.any(axis=1))[0]
        raise ValueError(f"P0/P1 hold NaN at t_ns = {float(data[i, 0])}")
    # probabilities must sit in [0, 1]; clamp defensible float dust only
    bad = (probs < -1e-9) | (probs > 1 + 1e-9)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"column {columns[p_cols[j]]} out of [0, 1]: {float(probs[i, j])}")
    np.clip(probs, 0.0, 1.0, out=probs)
    probs += 0.0  # turns a clamped -0.0 into 0.0
    data[:, p_cols] = probs
    return columns, data


def render_series_csv(columns, rows, provenance: dict) -> str:
    """Header, column names and one line per row; NaN cells are left empty, so
    a one-column table holding NaN is refused (readers skip a blank line)."""
    return b"".join(_csv_chunks(columns, rows, provenance)).decode()


def _csv_chunks(columns, rows, provenance: dict):
    """The CSV file of ``render_series_csv`` as bytes chunks: the header, then
    each block of ``_BLOCK_ROWS`` rows as one orjson buffer, with only the
    cells that orjson writes in another notation spliced in through ``repr``."""
    import orjson  # only commands that write a CSV pay its import

    data = np.ascontiguousarray(rows, dtype=np.float64)  # orjson refuses other layouts
    if len(columns) == 1 and np.isnan(data).any():
        raise ValueError(f"column {columns[0]} holds NaN, which a one-column CSV cannot write")
    flat: dict[str, str] = {}
    _flatten("", provenance, flat)
    lines = [f"# lzsim-series schema={SCHEMA_VERSION}"]
    lines += [f"# {k} = {v}" for k, v in sorted(flat.items())]
    lines.append(",".join(columns))
    yield ("\n".join(lines) + "\n").encode()
    n = data.shape[-1]
    for start in range(0, len(data), _BLOCK_ROWS):
        cells = data[start:start + _BLOCK_ROWS].ravel()
        # '[a,b,c,d]' -> '[a,b\nc,d\n': every n-th comma and the ']' end a row
        buf = bytearray(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY))
        b = np.frombuffer(buf, dtype=np.uint8)
        commas = np.flatnonzero(b == 44)
        b[commas[n - 1::n]] = b[-1] = 10
        view = memoryview(buf)
        # orjson writes repr's digits, but in its own notation below 1e-4 and
        # from 1e16 up, and non-finite cells as 'null': those cells go through repr
        mag = np.abs(cells)
        off_notation = np.flatnonzero((cells != 0) & ~((mag >= 1e-4) & (mag < 1e16)))
        # cell i lies between bounds[i] and bounds[i + 1]: the '[', the commas, the end
        bounds = np.concatenate(([0], commas, [b.size - 1]))
        parts, pos = [], 1  # past the '['
        for lo, hi, x in zip(bounds[off_notation].tolist(), bounds[off_notation + 1].tolist(),
                             cells[off_notation].tolist()):
            # a NaN is an empty cell
            parts += (view[pos:lo + 1], b"" if x != x else repr(x).encode())
            pos = hi
        parts.append(view[pos:])
        yield b"".join(parts)


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
        _atomic_write(Path(path), _csv_chunks(columns, rows, provenance))
    elif fmt == "json":
        atomic_write_text(Path(path), render_series_json(columns, rows, provenance))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_series(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """Parse a series file (either format) into (meta, columns, data).

    Missing values come back as NaN, and a file without rows as shape
    (0, len(columns)).  CSV meta is the flattened provenance; JSON meta is the
    nested provenance dict.

    A CSV body made only of the bytes lzsim writes (digits, ``.eE+-``, commas
    and line breaks) is parsed by orjson, about ``_READ_BLOCK_BYTES`` per call;
    any other body (blanks, CR, ``nan``/``inf``, comment lines) is parsed
    cell by cell as ``float()`` reads it, skipping blank lines and ``#``
    comments.
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
    # the body is raw[start:stop], without its leading and trailing line breaks
    stop = len(raw)
    while stop > start and raw[stop - 1] in b"\r\n":
        stop -= 1
    while start < stop and raw[start] in b"\r\n":
        start += 1
    if start == stop:
        return meta, columns, _table(path, columns, np.array([], dtype=float))
    return meta, columns, _parse_body(path, raw, start, stop, columns)


def _parse_body(path: Path, raw: bytes, start: int, stop: int, columns: list[str]) -> np.ndarray:
    """The body ``raw[start:stop]`` as a (rows, columns) table, read in blocks of
    about ``_READ_BLOCK_BYTES`` cut at a line break.  A block of plain bytes has
    its widths checked from the comma and line-break positions and its cells
    parsed by orjson; a body with any other byte or a blank line is read cell
    by cell, and so is a block holding a number JSON reads otherwise."""
    import orjson  # only commands that read a CSV pay its import

    first_line = raw.count(b"\n", 0, start) + 1
    n = len(columns)
    cuts, lo = [], start  # each block's (start, stop)
    while lo < stop:
        hi = raw.find(b"\n", lo + _READ_BLOCK_BYTES, stop)
        cuts.append((lo, stop if hi < 0 else hi))
        lo = cuts[-1][1] + 1
    whole = np.frombuffer(raw, dtype=np.uint8)
    data = np.empty((sum(int(np.count_nonzero(whole[lo:hi] == 10)) + 1 for lo, hi in cuts), n))
    view = memoryview(raw)
    row = 0  # the block's first row
    for lo, hi in cuts:
        # the block as '[cells]': '[' and ']' stand for the line breaks around it
        buf = bytearray(hi - lo + 2)
        buf[0], buf[1:-1], buf[-1] = 91, view[lo:hi], 93
        if buf.translate(None, _PLAIN_BYTES) != b"[]":  # blanks, CR, letters, '#'
            return _parse_cells(path, raw[start:stop].splitlines(), first_line, columns)
        # each cell ends at a separator: a comma, a line break or the ']'; it is
        # empty after another separator or the '['
        b = np.frombuffer(buf, dtype=np.uint8)
        is_sep = (b == 44) | (b == 10)
        is_sep[-1] = True
        seps = np.flatnonzero(is_sep)
        ends_row = b[seps] != 44
        before = b[seps - 1]
        after_row = (before == 10) | (before == 91)
        if (ends_row & after_row).any():  # a blank line
            return _parse_cells(path, raw[start:stop].splitlines(), first_line, columns)
        # every n-th separator ends a row: a line break, or the ']' at the end
        rows = int(np.count_nonzero(ends_row))
        if seps.size != rows * n or not ends_row[n - 1::n].all():
            widths = np.diff(np.flatnonzero(ends_row), prepend=-1)
            bad = int(np.flatnonzero(widths != n)[0])
            raise ValueError(_width_error(path, first_line + row + bad, int(widths[bad]), columns))
        has_empty = bool((after_row | (before == 44)).any())
        # JSON reads the integer '-0' as 0, float() as -0.0: such blocks go cell
        # by cell.  Few cells have a '-' just before their last byte, so that
        # is looked for first
        minus_zero = seps[b[seps - 2] == 45]
        minus_zero = minus_zero[b[minus_zero - 1] == 48]
        lead = b[minus_zero - 3]
        cells = None
        if not ((lead == 44) | (lead == 10) | (lead == 91)).any():
            b[seps[:-1]] = 44  # '[a,b\nc,d]' -> '[a,b,c,d]'
            if has_empty:
                for _ in range(2):  # a run of n empty cells needs two non-overlapping passes
                    buf = buf.replace(b",,", b",null,")
                buf = buf.replace(b"[,", b"[null,").replace(b",]", b",null]")
            try:
                cells = orjson.loads(buf)
            except orjson.JSONDecodeError:  # a number JSON does not write, such as '.5' or '1e400'
                pass
        out = data[row:row + rows]
        if cells is None:
            out[...] = _parse_cells(path, raw[lo:hi].splitlines(), first_line + row, columns)
        elif has_empty:
            out[...] = np.array(cells, dtype=float).reshape(out.shape)  # None -> NaN
        else:
            out[...] = np.fromiter(cells, dtype=float, count=out.size).reshape(out.shape)
        row += rows
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
