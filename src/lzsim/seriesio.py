"""Series file reading/writing: CSV for plotting, JSON for programs.

Every file carries the schema version and a flattened provenance block.
Floats are written in their shortest round-trip form, exactly as ``repr``
writes them, so identical runs produce identical bytes.  The CSV body is
rendered by orjson, whose shortest digits are ``repr``'s; only rows holding a
cell that orjson writes in another notation (non-zero below 1e-4, from 1e16
up, non-finite) go through ``repr``.  Writes go to a temporary file in the
target directory followed by an atomic rename; a failed run leaves nothing
behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .model import Basis, DriveParameters, epsilon_at
from .propagator import Trajectory

SCHEMA_VERSION = 1
# rows per orjson call: the row strings of one block are alive at a time
_BLOCK_ROWS = 4096


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
    """Header, column names and one line per row; NaN cells are left empty."""
    import orjson  # only commands that write a CSV pay its import

    flat: dict[str, str] = {}
    _flatten("", provenance, flat)
    lines = [f"# lzsim-series schema={SCHEMA_VERSION}"]
    lines += [f"# {k} = {v}" for k, v in sorted(flat.items())]
    lines.append(",".join(columns))
    data = np.ascontiguousarray(rows, dtype=np.float64)  # orjson refuses other layouts
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
    nested provenance dict.  Rows whose width is not the number of columns
    raise ValueError.
    """
    path = Path(path)
    text = path.read_text()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        columns = list(doc["columns"])
        data = np.array(doc["rows"], dtype=float)  # a None cell becomes NaN
        return doc["provenance"], columns, _table(path, columns, data)
    meta: dict[str, str] = {}
    columns: list[str] = []
    # the header is the leading '#' and blank lines, then the column names;
    # the body after it goes to the parser whole
    start = 0
    while start < len(text) and not columns:
        end = text.find("\n", start) + 1 or len(text)
        line = text[start:end].strip()
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
    stop = len(text)
    while stop > start and text[stop - 1] in "\r\n":
        stop -= 1
    while start < stop and text[start] in "\r\n":
        start += 1
    body = text[start:stop]
    del text  # parse with only the body alive
    if not body or body.isspace():
        return meta, columns, _table(path, columns, np.array([], dtype=float))
    lines = _fill_empty_cells(body).splitlines()
    if " " in body or "\t" in body:  # the parser refuses a line of blanks; skip those
        lines = [line for line in lines if line.strip()]
    data = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)
    return meta, columns, _table(path, columns, data)


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


def _fill_empty_cells(body: str) -> str:
    """The CSV body (no leading or trailing line break) with every empty cell
    written as 'nan', which the one-call parser reads as NaN (it refuses empty
    cells).  A body without empty cells comes back as it is, uncopied."""
    if ",," in body or "\n," in body or ",\n" in body or body[0] == "," or body[-1] == ",":
        body = "\n" + body + "\n"  # so that the first and last cells have neighbours
        for _ in range(2):  # a run of n empty cells needs two non-overlapping passes
            body = body.replace(",,", ",nan,")
        body = body.replace("\n,", "\nnan,").replace(",\n", ",nan\n")
    return body


def render_table_csv(columns, rows, provenance: dict) -> str:
    """Plain table (sweep output): same header discipline as series files."""
    return render_series_csv(columns, rows, provenance)
