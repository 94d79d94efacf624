"""Series tables and their rendering: the [0, 1] bound, the clamp of float
dust, empty overlay cells, and the exact bytes of real outputs and of any
table against one %r format."""

import json
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lzsim import DriveParameters, rabi_frequency, run_figure, stroboscopic_evolve
from lzsim.cli import main
from lzsim.model import Basis, epsilon_at
from lzsim.propagator import Trajectory
from lzsim import seriesio
from lzsim.seriesio import read_series, render_series_csv, write_series
from conftest import FIG3A


def _traj(times, p0, p1, basis=Basis.DIABATIC):
    return Trajectory(np.asarray(times, dtype=float), np.column_stack([p0, p1]), basis)


def _data_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def _reference_rows(traj, drive=None, adiabatic=None):
    """Row values cell by cell, as series files have always been written:
    NaN -> None, P columns checked against [0, 1] within 1e-9 and clamped."""
    columns = ["t_ns", "P0", "P1"]
    cols = [traj.times, traj.p0, traj.p1]
    if drive is not None:
        columns.append("epsilon_MHz")
        cols.append(np.asarray(epsilon_at(drive, traj.times)))
    if adiabatic is not None:
        columns += ["P_adiab_g", "P_adiab_e"]
        g = np.full(traj.times.size, np.nan)
        e = np.full(traj.times.size, np.nan)
        idx = np.searchsorted(traj.times, adiabatic.times)
        g[idx] = adiabatic.p0
        e[idx] = adiabatic.p1
        cols += [g, e]
    rows = []
    for row in np.column_stack(cols):
        cells = []
        for name, x in zip(columns, row):
            if np.isnan(x):
                cells.append(None)
                continue
            x = float(x)
            if name.startswith("P"):
                assert -1e-9 <= x <= 1 + 1e-9
                x = min(1.0, max(0.0, x))
            cells.append(x)
        rows.append(cells)
    return columns, rows


def _reference_csv_lines(columns, rows):
    return [",".join(columns)] + [",".join("" if x is None else repr(x) for x in row)
                                  for row in rows]


class TestBounds:
    def test_float_dust_is_clamped(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series(path, _traj([0.0, 1.0], [-1e-10, 1.0 + 1e-10], [1.0, -0.0]), {})
        assert _data_lines(path) == ["t_ns,P0,P1", "0.0,0.0,1.0", "1.0,1.0,0.0"]

    @pytest.mark.parametrize("bad", [-1e-8, 1.0 + 1e-8])
    def test_out_of_range_probability_raises(self, tmp_path, bad):
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            write_series(path, _traj([0.0, 1.0], [0.5, bad], [0.5, 0.5]), {})
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("column", [0, 1])
    def test_nan_population_raises(self, tmp_path, column):
        p = [[0.5, 0.5], [0.5, 0.5]]
        p[column][1] = np.nan
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="NaN at t_ns = 1.0"):
            write_series(path, _traj([0.0, 1.0], *p), {})
        assert not list(tmp_path.iterdir())


class TestWrite:
    """The streamed writer: the rendered text, block by block, into a file
    made as open() makes one."""

    def test_strobe_streams_the_rendered_text(self, tmp_path):
        # the 20000-period strobe of the benchmark: 40001 rows, 2.2 MB
        drive = DriveParameters(**FIG3A, n_periods=20000)
        traj = stroboscopic_evolve(drive, 20000)
        path = tmp_path / "strobe.csv"
        write_series(path, traj, {}, drive=drive)  # the writer's imports are done before tracing
        tracemalloc.start()
        try:
            write_series(path, traj, {}, drive=drive)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns, rows = seriesio.series_table(traj, drive=drive)
        assert path.read_text() == render_series_csv(columns, rows, {})
        assert peak < 1.5 * path.stat().st_size

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_file_mode_follows_the_umask(self, tmp_path, umask):
        traj = _traj([0.0, 1.0], [0.5, 0.25], [0.5, 0.75])
        old = os.umask(umask)
        try:
            write_series(tmp_path / "s.csv", traj, {})
            write_series(tmp_path / "s.json", traj, {}, fmt="json")
            seriesio.atomic_write_text(tmp_path / "t.txt", "x\n")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["s.csv", "s.json", "t.txt"], 0o666 & ~umask)

    def test_failed_stream_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("old\n")

        def chunks():
            yield b"new"
            raise ValueError("stopped mid-file")

        with pytest.raises(ValueError, match="stopped mid-file"):
            seriesio._atomic_write(path, chunks())
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
        assert path.read_text() == "old\n"


def _per_token_read(path):
    """A CSV series file parsed one token at a time with float(), empty -> NaN."""
    meta, columns, rows = {}, [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and not body.startswith("lzsim-series"):
                k, _, v = body.partition("=")
                meta[k.strip()] = v.strip()
        elif not line.strip():
            continue
        elif not columns:
            columns = line.split(",")
        else:
            rows.append([np.nan if tok == "" else float(tok) for tok in line.split(",")])
    return meta, columns, np.array(rows, dtype=float)


class TestEmptyCells:
    def _overlay_case(self):
        base = _traj([0.0, 1.0, 2.0], [0.5, 0.25, 0.125], [0.5, 0.75, 0.875])
        overlay = _traj([1.0], [0.0625], [0.9375], Basis.ADIABATIC)
        return base, overlay

    def test_csv_overlay_cells_stay_empty(self, tmp_path):
        base, overlay = self._overlay_case()
        path = tmp_path / "s.csv"
        write_series(path, base, {}, adiabatic=overlay)
        assert _data_lines(path) == [
            "t_ns,P0,P1,P_adiab_g,P_adiab_e",
            "0.0,0.5,0.5,,",
            "1.0,0.25,0.75,0.0625,0.9375",
            "2.0,0.125,0.875,,",
        ]
        _, _, data = read_series(path)
        assert np.isnan(data[0, 3:]).all() and np.isnan(data[2, 3:]).all()

    def test_csv_read_back_bit_for_bit(self, tmp_path):
        # the masked fig3c overlay, and hand-made rows with empty cells at the
        # start, in runs and at the end of a line
        assert main(["reproduce", "fig3c", "--out", str(tmp_path)]) == 0
        hand = tmp_path / "hand.csv"
        hand.write_text("# lzsim-series schema=1\n# a = 1,,2\nx,y,z,w\n"
                        ",1.5,,\n0.1,,,-2e-300\n\n,,,\n1e308,nan,inf,0.30000000000000004\n")
        for path in (tmp_path / "fig3c_series.csv", hand):
            meta, columns, data = read_series(path)
            ref_meta, ref_columns, ref_data = _per_token_read(path)
            assert (meta, columns) == (ref_meta, ref_columns)
            assert data.shape == ref_data.shape and data.tobytes() == ref_data.tobytes()
        assert np.isnan(data).sum() == 10 and read_series(hand)[0] == {"a": "1,,2"}

    def test_one_column_nan_refused_before_writing(self, tmp_path):
        # its empty cell would be a blank line, which the reader skips
        path = tmp_path / "a.csv"
        with pytest.raises(ValueError, match="column a holds NaN"):
            seriesio.atomic_write_text(path, render_series_csv(["a"], [[np.nan], [1.0], [2.0]], {}))
        assert list(tmp_path.iterdir()) == []
        seriesio.atomic_write_text(path, render_series_csv(["a"], [[0.5], [1.0], [2.0]], {}))
        assert read_series(path)[2].tolist() == [[0.5], [1.0], [2.0]]

    def test_json_overlay_cells_are_null(self, tmp_path):
        base, overlay = self._overlay_case()
        path = tmp_path / "s.json"
        write_series(path, base, {}, fmt="json", adiabatic=overlay)
        doc = json.loads(path.read_text())
        assert doc["rows"] == [[0.0, 0.5, 0.5, None, None],
                               [1.0, 0.25, 0.75, 0.0625, 0.9375],
                               [2.0, 0.125, 0.875, None, None]]


class TestBytes:
    """Whole outputs of real runs against the cell-by-cell reference rows."""

    def test_fig3c_reproduce(self, tmp_path):
        assert main(["reproduce", "fig3c", "--out", str(tmp_path)]) == 0
        result = run_figure("fig3c")
        drive = DriveParameters(**result.provenance["scenario"]["drive"])
        columns, rows = _reference_rows(result.series["ode"], drive, result.series["adiabatic"])
        assert any(None in row for row in rows)  # the masked overlay has empty cells
        assert _data_lines(tmp_path / "fig3c_series.csv") == _reference_csv_lines(columns, rows)

        assert main(["reproduce", "fig3c", "--out", str(tmp_path), "--format", "json"]) == 0
        doc = json.loads((tmp_path / "fig3c_series.json").read_text())
        assert doc["columns"] == columns
        assert doc["rows"] == rows
        text = (tmp_path / "fig3c_series.json").read_text()
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_transfer_matrix_simulate_200_periods(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("delta_mhz = 5.57\nepsilon_m_mhz = 100.0\nperiod_ns = 128.0\n"
                        "n_periods = 200\nmethod = transfer-matrix\n")
        out = tmp_path / "out"
        assert main(["simulate", str(conf), "--out", str(out)]) == 0
        drive = DriveParameters(**FIG3A, n_periods=200)
        columns, rows = _reference_rows(stroboscopic_evolve(drive, 200), drive)
        assert len(rows) == 401
        assert _data_lines(out / "custom_series.csv") == _reference_csv_lines(columns, rows)


def _percent_r_body(rows):
    """The CSV body as series files have always been written: one %r format
    over the whole table (%r is repr), NaN cells left empty."""
    data = np.asarray(rows, dtype=float)
    line = ",".join(["%r"] * (data.shape[1] if data.ndim == 2 else 0)) + "\n"
    return ((line * len(data)) % tuple(data.ravel().tolist())).replace("nan", "")


# both sides of the edges (1e-4, 1e16) of the notation orjson shares with
# repr, signed zeros, subnormals and non-finite cells
_EDGES = [float(x) for edge in (1e-4, 1e16)
          for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))]
_SPECIAL = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, np.inf, np.nan] + _EDGES
_CELLS = st.one_of(
    st.sampled_from(_SPECIAL + [-x for x in _SPECIAL]),
    st.floats(),  # every float: subnormals, NaN and both infinities included
    st.floats(0.0, 1.0),  # probabilities
)


@st.composite
def _tables(draw):
    """A table as callers pass one: C- or Fortran-ordered, column-sliced, or a
    list of tuples (the sweep rows), from no rows to more than one block."""
    n_rows = draw(st.sampled_from([*range(21), 4096, 4097, 8193]))
    n_cols = draw(st.integers(1, 5))
    layout = draw(st.sampled_from(["C", "F", "column-sliced", "tuples"]))
    width = 2 * n_cols if layout == "column-sliced" else n_cols
    drawn = draw(hnp.arrays(np.float64, (min(n_rows, 20), width), elements=_CELLS))
    table = np.resize(drawn, (n_rows, width))  # a longer table repeats the drawn rows
    if layout == "F":
        return np.asfortranarray(table)
    if layout == "column-sliced":
        return table[:, draw(st.sampled_from([slice(None, None, 2), slice(1, None, 2)]))]
    if layout == "tuples":
        return [tuple(row) for row in table.tolist()]
    return table


class TestRenderBody:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_tables())
    def test_same_bytes_as_percent_r(self, rows):
        names = [f"c{j}" for j in range(np.asarray(rows).shape[1] if len(rows) else 0)]
        if len(names) == 1 and np.isnan(np.asarray(rows)).any():
            with pytest.raises(ValueError, match="column c0 holds NaN"):
                render_series_csv(names, rows, {})
            return
        header, columns, body = render_series_csv(names, rows, {}).split("\n", 2)
        assert (header, columns) == ("# lzsim-series schema=1", ",".join(names))
        # row by row: on a failure, a diff of the whole body would take minutes
        got, want = body.split("\n"), _percent_r_body(rows).split("\n")
        wrong_rows = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert len(got) == len(want) and not wrong_rows[:3]

    def test_repr_rows_at_block_edges(self):
        # cells that go through repr (below 1e-4, from 1e16 up, non-finite) at
        # the first and last row of a block, in two rows in a row, filling a
        # whole block, and last; several in one row, in the first and the last
        # column, and beside an empty cell
        n = seriesio._BLOCK_ROWS
        table = np.arange(3.0 * (2 * n + 5)).reshape(-1, 3) / 7 + 0.5
        for i in (0, n - 1, 7, 8, 2 * n, 2 * n + 4):
            table[i, i % 3] = 1e-5 if i % 2 else np.nan
        table[n:2 * n, 1] = 2.5e-5  # the whole second block
        table[20] = [3e-7, -4e16, np.inf]  # every cell of a row
        table[21, [0, 2]] = [-6e-5, 2e17]  # the first and the last column
        table[22, :2] = [np.nan, 1e-9]  # beside an empty cell
        table[23, 1:] = [1e-300, np.nan]
        table[n + 3, [0, 2]] = [7e-08, np.nan]  # beside the second block's column
        body = render_series_csv(["a", "b", "c"], table, {}).split("\n", 2)[2]
        assert "1e-05" in body and "2.5e-05" in body and "\n," in body
        assert "\n3e-07,-4e+16,inf\n-6e-05," in body and ",2e+17\n,1e-09," in body
        assert ",1e-300,\n" in body and "\n7e-08,2.5e-05,\n" in body
        assert body == _percent_r_body(table)


# the cells written through repr (below 1e-4, from 1e16 up, non-finite) beside
# those orjson writes
_ROUND_TRIP_CELLS = st.one_of(_CELLS, st.sampled_from([1e-5, -1e-5, 1e16, -2.5e16, 1e300]))


@st.composite
def _series_tables(draw):
    """A table of up to three writing blocks and several reading blocks, its
    NaN cells (written empty) drawn as the one NaN the reader returns.  At least two columns: a
    one-column table holding NaN is refused by the writer."""
    n_rows = draw(st.sampled_from([*range(21), 4095, 4096, 4097, 8193]))
    n_cols = draw(st.integers(2, 6))
    drawn = draw(hnp.arrays(np.float64, (min(n_rows, 20), n_cols), elements=_ROUND_TRIP_CELLS))
    table = np.resize(drawn, (n_rows, n_cols))  # a longer table repeats the drawn rows
    table[np.isnan(table)] = np.nan
    return table


# cells JSON reads as float() does, and cells float() reads that JSON reads
# otherwise ('-0') or not at all ('.5', '1e400', '+1', '007'); an empty cell is NaN
_JSON_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.integers(-99, 99).map(str))
_FLOAT_CELLS = st.one_of(
    _JSON_CELLS,
    st.sampled_from(["", "0", "-0", "-0.0", ".5", "5.", "1e400", "-1e400", "+1", "007",
                     "1e-0", "-1E5", "2.5e-05"]),
)


@st.composite
def _hand_bodies(draw):
    """Column names and a CSV body over them, as a hand-edited file may hold
    it: in some bodies blank lines, comments, spaces and CRs among the rows;
    and either ragged rows of cells float() reads or rows of the full width
    holding any run of digits and ``.eE+-``.  Not both: a ragged row is
    refused before a cell that is not a number earlier in its block."""
    n = draw(st.integers(1, 4))
    ragged, edited = draw(st.booleans()), draw(st.booleans())
    cell = draw(st.sampled_from([_JSON_CELLS, _FLOAT_CELLS] if ragged else [
        _JSON_CELLS, st.one_of(_FLOAT_CELLS, st.text("0123456789.eE+-", min_size=1, max_size=5))]))
    pad = st.sampled_from(["", "", "", " "] if edited else [""])
    end = st.sampled_from([b""] * 6 + [b"\r", b"#1,2"] if edited else [b""])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if edited and draw(st.integers(0, 9)) < 2:
            lines.append(draw(st.sampled_from([b"", b"# a note"])))
            continue
        # a row one cell short or long, alone or beside one that makes up the count
        for width in draw(st.sampled_from([[n], [n - 1], [n + 1], [n + 1, n - 1], [n - 1, n + 1]]
                                          if ragged else [[n]])):
            lines.append(",".join(draw(pad) + draw(cell) for _ in range(width)).encode()
                         + draw(end))
    return [f"c{j}" for j in range(n)], b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"]))


def _write_csv(tmp_path, table):
    path = tmp_path / "table.csv"
    path.write_text(render_series_csv([f"c{j}" for j in range(table.shape[1])], table, {}))
    return path


def _same(data, table):
    return data.shape == table.shape and data.tobytes() == table.tobytes()


def _not_cell_by_cell(*args):
    raise AssertionError("a written body went cell by cell")


def _reader_blocks(table):
    """The first row of each block the reader cuts the written body of
    ``table`` into: each ends at the first line break from
    ``_READ_BLOCK_BYTES`` bytes past its start."""
    body = _percent_r_body(table).encode().rstrip(b"\n")
    starts, lo = [0], 0
    while (hi := body.find(b"\n", lo + seriesio._READ_BLOCK_BYTES)) >= 0:
        starts.append(starts[-1] + body.count(b"\n", lo, hi) + 1)
        lo = hi + 1
    return starts


def _sevenths(n_rows):
    return np.arange(3.0 * n_rows).reshape(n_rows, 3) / 7


# the first row of the reader's second and third blocks of _sevenths(n) for
# any n past them
_SECOND, _THIRD = _reader_blocks(_sevenths(12000))[1:3]


class TestRead:
    """Written tables read back bit for bit, across the reader's blocks."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_series_tables())
    def test_round_trip(self, tmp_path_factory, table):
        path = _write_csv(tmp_path_factory.mktemp("round_trip"), table)
        _, columns, data = read_series(path)
        assert columns == [f"c{j}" for j in range(table.shape[1])]
        assert _same(data, table)

    # around the writer's 4096-row blocks, then around the reader's blocks of bytes
    @pytest.mark.parametrize("n_rows", [4095, 4096, 4097, 8193,
                                        _SECOND - 1, _SECOND, _SECOND + 1, _THIRD + 1])
    def test_block_boundaries(self, tmp_path, monkeypatch, n_rows):
        monkeypatch.setattr(seriesio, "_parse_cells", _not_cell_by_cell)
        table = _sevenths(n_rows)
        assert len(_reader_blocks(table)) == 1 + (n_rows > _SECOND) + (n_rows > _THIRD)
        assert _same(read_series(_write_csv(tmp_path, table))[2], table)

    def test_empty_cells_at_block_ends(self, tmp_path, monkeypatch):
        monkeypatch.setattr(seriesio, "_parse_cells", _not_cell_by_cell)
        # the first and the last cell of each of the three blocks, and a run;
        # an empty cell shortens its row and can move a cut, so they are
        # placed again until the cuts stay
        table = _sevenths(_THIRD + 100)
        table[5] = np.nan
        starts = [0]
        for _ in range(5):
            table[0, 0] = table[-1, -1] = np.nan
            for cut in starts[1:]:
                table[cut - 1, -1] = table[cut, 0] = np.nan
            placed, starts = starts, _reader_blocks(table)
            if starts == placed:
                break
        assert len(placed) == 3 and starts == placed
        assert _same(read_series(_write_csv(tmp_path, table))[2], table)

    def test_lzsim_outputs_take_the_block_parser(self, tmp_path, monkeypatch):
        # the 20000-period strobe that `analyze rabi` reads, fig3c's series
        # with its empty overlay cells, and a resonance sweep table: none goes
        # cell by cell, and each reads as the cell-by-cell parser reads it
        drive = DriveParameters(**FIG3A, n_periods=20000)
        write_series(tmp_path / "strobe.csv", stroboscopic_evolve(drive, 20000), {}, drive=drive)
        assert main(["reproduce", "fig3c", "--out", str(tmp_path)]) == 0
        conf = tmp_path / "scan.conf"
        conf.write_text("sweep = resonance\ndelta_mhz = 5.57\nepsilon_m_mhz = 100.0\n"
                        "scan_start = 100.0\nscan_stop = 200.0\nscan_points = 2000\n")
        assert main(["sweep", str(conf), "--out", str(tmp_path)]) == 0
        parse_cells = seriesio._parse_cells
        monkeypatch.setattr(seriesio, "_parse_cells", _not_cell_by_cell)
        for name, rows, empty in [("strobe.csv", 40001, False), ("fig3c_series.csv", 481, True),
                                  ("sweep_resonance.csv", 2000, False)]:
            path = tmp_path / name
            _, columns, data = read_series(path)
            lines = [line for line in path.read_bytes().splitlines()
                     if not line.startswith(b"#")][1:]
            assert data.shape == (rows, len(columns))
            assert np.isnan(data).any() == empty
            assert np.array_equal(data, parse_cells(path, lines, 1, columns), equal_nan=True)
        assert b"e-" in (tmp_path / "strobe.csv").read_bytes()  # cells written through repr

    @pytest.mark.parametrize("edit, width", [("drop", 2), ("pull", 4), ("push", 2)])
    def test_ragged_row_in_second_block_names_its_line(self, tmp_path, edit, width):
        # the second block's first row (file line _SECOND + 3) loses its last
        # cell, pulls in the next row's first cell, or pushes its last cell to
        # the next row; the last two keep the count of cells in all
        path = _write_csv(tmp_path, _sevenths(_THIRD))
        lines = path.read_text().split("\n")
        i = 2 + _SECOND
        if edit == "drop":
            lines[i] = lines[i].rpartition(",")[0]
        elif edit == "pull":
            head, _, lines[i + 1] = lines[i + 1].partition(",")
            lines[i] += "," + head
        else:
            lines[i], _, cell = lines[i].rpartition(",")
            lines[i + 1] = cell + "," + lines[i + 1]
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=rf"table\.csv: line {_SECOND + 3}: "
                                             rf"a row of {width} cells under 3"):
            read_series(path)

    def test_bad_cell_in_second_block_names_its_line(self, tmp_path):
        path = _write_csv(tmp_path, _sevenths(_THIRD))
        lines = path.read_text().split("\n")
        i = 2 + _SECOND
        lines[i] = "1e5e" + lines[i][lines[i].index(","):]
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError,
                           match=rf"table\.csv: line {_SECOND + 3}: '1e5e' is not a number"):
            read_series(path)

    @pytest.mark.parametrize("text", ["x,y\n-0,1.5\n2.5,-0\n-0,-0.0\n",
                                      "x,y,z\n-0,.5,1e400\n+1,5.,007\n1e-0,-1E5,-0\n"],
                             ids=["json", "not-json"])
    def test_numbers_as_float_reads_them(self, tmp_path, text):
        # plain bytes that JSON reads otherwise (the integer -0 as 0) or not at all
        path = tmp_path / "hand.csv"
        path.write_text(text)
        _, _, data = read_series(path)
        assert _same(data, _per_token_read(path)[2])
        assert np.signbit(data[0, 0]) and np.signbit(data[-1, -1])

    def test_minus_zero_in_later_blocks_goes_cell_by_cell(self, tmp_path, monkeypatch):
        # a '-0' cell opening a row of the second block ('-0,') and the last
        # cell of the file ('-0]'): their blocks, and only those, are read by
        # float(), which keeps the sign JSON would drop
        table = _sevenths(_THIRD + 100)
        path = _write_csv(tmp_path, table)
        lines = path.read_text().split("\n")
        i = 2 + _SECOND + 5
        lines[i] = "-0" + lines[i][lines[i].index(","):]
        lines[-2] = lines[-2].rpartition(",")[0] + ",-0"
        path.write_text("\n".join(lines))
        table[_SECOND + 5, 0] = table[-1, -1] = -0.0
        parse_cells, firsts = seriesio._parse_cells, []

        def counted(path, lines, first_line, columns):
            firsts.append(first_line)
            return parse_cells(path, lines, first_line, columns)

        monkeypatch.setattr(seriesio, "_parse_cells", counted)
        data = read_series(path)[2]
        assert _same(data, table)
        assert np.signbit(data[_SECOND + 5, 0]) and np.signbit(data[-1, -1])
        assert len(firsts) == 2 and firsts[0] == _SECOND + 3 and firsts[1] > _SECOND + 3

    @pytest.mark.parametrize("edit", [".5", " ", "\r"], ids=["no-lead", "space", "cr"])
    def test_second_block_routing(self, tmp_path, monkeypatch, edit):
        # in the second block, a '.5' cell, which JSON refuses but float()
        # reads, sends only that block cell by cell; a space before a cell or
        # a CR before a line break, bytes lzsim never writes, send the whole
        # body cell by cell
        table = _sevenths(_THIRD + 100)
        path = _write_csv(tmp_path, table)
        lines = path.read_text().split("\n")
        i = 2 + _SECOND + 5
        if edit == ".5":
            lines[i] = ".5" + lines[i][lines[i].index(","):]
            table[_SECOND + 5, 0] = 0.5
        elif edit == " ":
            lines[i] = lines[i].replace(",", ", ", 1)
        else:
            lines[i] += "\r"
        path.write_bytes("\n".join(lines).encode())
        parse_cells, calls = seriesio._parse_cells, []

        def counted(path, lines, first_line, columns):
            calls.append((first_line, len(lines)))
            return parse_cells(path, lines, first_line, columns)

        monkeypatch.setattr(seriesio, "_parse_cells", counted)
        assert _same(read_series(path)[2], table)
        if edit == ".5":
            assert len(calls) == 1 and calls[0][0] == _SECOND + 3
        else:
            assert calls == [(3, len(table))]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_hand_bodies(), st.sampled_from([1, 16, 64, 1 << 18]))
    def test_blocks_read_as_cell_by_cell(self, tmp_path_factory, hand, block_bytes):
        # any body, cut into blocks of a few bytes and up: the same bits as
        # reading it cell by cell, or the same error
        columns, body = hand
        path = tmp_path_factory.mktemp("hand") / "hand.csv"
        path.write_bytes(b"# lzsim-series schema=1\n" + ",".join(columns).encode() + b"\n" + body)
        try:
            want = seriesio._parse_cells(path, body.splitlines(), 3, columns)
        except ValueError as exc:
            want = str(exc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seriesio, "_READ_BLOCK_BYTES", block_bytes)
            try:
                got = read_series(path)[2]
            except ValueError as exc:
                got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str) and _same(got, want)

    @pytest.mark.parametrize("body", ["1.5,2.5\n\n\n-1e-05,\n",
                                      "1.5,2.5\n# a note\n\n-1e-05,# inline\n"],
                             ids=["plain", "comments"])
    def test_blank_and_comment_lines_are_skipped(self, tmp_path, body):
        path = tmp_path / "hand.csv"
        path.write_text("# lzsim-series schema=1\nx,y\n" + body)
        expected = np.array([[1.5, 2.5], [-1e-05, np.nan]])
        assert _same(read_series(path)[2], expected)

    def test_peak_memory_of_the_strobe(self, tmp_path):
        # the 20000-period strobe of the benchmark: 40001 rows, 2.2 MB
        drive = DriveParameters(**FIG3A, n_periods=20000)
        path = tmp_path / "strobe.csv"
        write_series(path, stroboscopic_evolve(drive, 20000), {}, drive=drive)
        read_series(path)  # the reader's imports are done before tracing
        tracemalloc.start()
        try:
            data = read_series(path)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.shape == (40001, 4)
        assert peak < 5 * path.stat().st_size

    def test_peak_memory_of_the_strobe_fit(self):
        # the fit of the same 40001 samples, once warm: 2.56 MB with cos and
        # sin of every phase and their rows stacked, 1.87 MB with the rows
        # read off `_unit_phases` (numpy 2.4.6)
        traj = stroboscopic_evolve(DriveParameters(**FIG3A, n_periods=20000), 20000)
        fit = rabi_frequency(traj)  # numpy's FFT plans are made before tracing
        tracemalloc.start()
        try:
            assert rabi_frequency(traj) == fit
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6
