"""Seeded generated tables: a stored model reads files back exactly.

Each table mixes dotted raw names and levels, quoted cells with commas
and quotes, CRLF line ends, a byte-order mark, 0/1 columns and numeric
or two-level factor responses.  Its query file reorders the columns,
adds levels never seen in training, which are refused, and an extra
column named like one of the stored indicators.  The expected encodings
are computed from the generated values, not from the parsed file.
"""

import csv

import numpy as np
import pytest

from statnn.cli import main
from statnn.exceptions import DataError
from statnn.fit import evaluate_at
from statnn.model import Architecture, ColumnMeta, ParamVector
from statnn.preprocess import dataset_from_meta, ingest
from statnn.serialize import (model_document, model_to_json, parse_model,
                              save_model)

N_TABLES = 25
_TAGS = ("x", "grp.name", "has.flag", "v.1", "z,w", "q\"t")
_LEVELS = ("a.1", "b.2", "c", "x,y", "d e", "f\"g", "h.i.j")
_QUERY_ONLY = ("new.1", "zz")
_NA_TOKENS = ("", "NA", "nan", "N/A", "null")


def _column(rng, kind, n, query_n):
    """Training and query cells (strings) of one generated column."""
    if kind == "continuous":
        cells = [repr(float(v)) for v in rng.normal(50.0, 10.0, n + query_n)]
    elif kind == "binary":
        cells = [str(v) for v in rng.integers(0, 2, n + query_n)]
        cells[:2] = ["0", "1"]
    else:
        levels = list(rng.choice(_LEVELS, rng.integers(2, 5), replace=False))
        cells = list(rng.choice(levels, n + query_n))
        cells[:len(levels)] = levels
        for i in range(n, n + query_n, 3):
            cells[i] = str(rng.choice(_QUERY_ONLY))
    return cells[:n], cells[n:]


def _response(rng, kind, n, query_n):
    if kind == "gaussian":
        return _column(rng, "continuous", n, query_n)
    if kind == "binary":
        return _column(rng, "binary", n, query_n)
    cells = list(rng.choice(["yes.1", "no,2"], n + query_n))
    cells[:2] = ["no,2", "yes.1"]
    return cells[:n], cells[n:]


def _expected_records(kinds, train, response, response_kind):
    """The column records the generated training values call for."""
    def record(name, kind, cells):
        if kind == "continuous":
            v = np.array([float(c) for c in cells])
            return [ColumnMeta(name, "continuous", float(np.mean(v)),
                               float(np.std(v, ddof=1)))]
        if kind == "binary":
            return [ColumnMeta(name, "dummy")]
        levels = tuple(dict.fromkeys(cells))
        return [ColumnMeta(f"{name}.{lvl}", "dummy", raw=name, level=lvl,
                           levels=levels)
                for lvl in levels[1:]]

    columns = [m for name, kind in kinds.items()
               for m in record(name, kind, train[name])]
    kind = {"gaussian": "continuous", "binary": "binary"}.get(response_kind,
                                                             "factor")
    (resp,) = record(response, kind, train[response])
    return tuple(columns), resp


def _expected_encoding(cm, cells):
    if cm.level is not None:
        return np.array([1.0 if c == cm.level else 0.0 for c in cells])
    v = np.array([float(c) for c in cells])
    return v if cm.kind == "dummy" else (v - cm.mean) / cm.sd


def _write(path, header, rows, rng):
    """Write with a random dialect: CRLF or LF, quote all or minimal, and
    sometimes a byte-order mark."""
    crlf, quote_all, bom = rng.integers(0, 2, 3)
    with open(path, "w", encoding="utf-8-sig" if bom else "utf-8",
              newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n" if crlf else "\n",
                            quoting=csv.QUOTE_ALL if quote_all
                            else csv.QUOTE_MINIMAL)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def _table(seed, root):
    """Generate one table; returns its files, response and expectations."""
    rng = np.random.default_rng([20261018, seed])
    n, query_n = int(rng.integers(8, 25)), 7
    kinds = {}
    for k in range(int(rng.integers(1, 5))):
        name = f"c{k}.{rng.choice(_TAGS)}" if rng.random() < 0.7 else f"c{k}"
        kinds[name] = str(rng.choice(["continuous", "binary", "factor"]))
    response = "y.out" if rng.random() < 0.5 else "y"
    response_kind = str(rng.choice(["gaussian", "binary", "factor"]))
    train, query = {}, {}
    for name, kind in kinds.items():
        train[name], query[name] = _column(rng, kind, n, query_n)
    train[response], query[response] = _response(rng, response_kind, n,
                                                 query_n)
    header = list(train)
    train_path = _write(root / f"train{seed}.csv", header,
                        zip(*(train[c] for c in header)), rng)
    columns, resp = _expected_records(kinds, train, response, response_kind)
    # The query file puts the columns in another order and adds a column
    # named like a stored indicator, holding unrelated 0/1 values.
    query_header = list(rng.permutation(header))
    decoy = next((m.name for m in columns if m.level is not None), None)
    if decoy is not None:
        query[decoy] = [str(v) for v in rng.integers(0, 2, query_n)]
        query_header.insert(int(rng.integers(0, len(query_header) + 1)),
                            decoy)
    query_rows = [list(r) for r in zip(*(query[c] for c in query_header))]
    query_path = _write(root / f"query{seed}.csv", query_header, query_rows,
                        rng)
    return (train_path, query_path, query_header, query_rows, response,
            columns, resp, query)


def _document(data, train_path):
    """A width-1 model at theta = 0 of the training table, built as
    ``statnn fit`` builds its own."""
    family = ("gaussian" if data.response_meta.kind == "continuous"
              else "bernoulli")
    arch = Architecture(p=data.p, q=1, family=family)
    return model_document(evaluate_at(ParamVector(arch, np.zeros(arch.r)),
                                      data, 0.01),
                          data, train_path)


@pytest.mark.parametrize("seed", range(N_TABLES))
def test_generated_table_round_trip(tmp_path, seed):
    (train_path, query_path, query_header, query_rows, response, columns,
     resp, query) = _table(seed, tmp_path)
    data, _ = ingest(train_path, response)
    assert data.column_meta == columns
    assert data.response_meta == resp

    back = parse_model(model_to_json(_document(data, train_path)))
    assert back.column_meta == data.column_meta
    assert back.response_meta == data.response_meta
    again = dataset_from_meta(train_path, back.column_meta,
                              back.response_meta)
    assert again.x.tobytes() == data.x.tobytes()
    assert again.y.tobytes() == data.y.tobytes()

    factors = [cm for cm in columns if cm.levels is not None]
    if factors:
        # Every factor's query rows 1, 4 and 7 hold levels never seen in
        # training; the first factor's first row is named.
        first = factors[0]
        with pytest.raises(DataError) as err:
            dataset_from_meta(query_path, back.column_meta,
                              back.response_meta)
        assert str(err.value) == (
            f"level {query[first.raw][0]!r} in column {first.raw!r}, row 1 "
            "(first data row is row 1) was not seen in training; the model "
            f"knows the levels {list(map(str, first.levels))}")
        keep = [i for i in range(len(query_rows)) if i % 3]
        query_path = _write(tmp_path / f"seen{seed}.csv", query_header,
                            [query_rows[i] for i in keep],
                            np.random.default_rng(seed))
        query = {name: [cells[i] for i in keep]
                 for name, cells in query.items()}
    served = dataset_from_meta(query_path, back.column_meta,
                               back.response_meta)
    want_x = np.column_stack([_expected_encoding(cm, query[cm.raw])
                              for cm in columns])
    want_y = _expected_encoding(resp, query[resp.raw])
    assert served.x.tobytes() == want_x.tobytes()
    assert served.y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("seed", range(0, N_TABLES, 5))
def test_generated_malformed_query_exits_2(tmp_path, seed, capsys):
    """An NA token in a column the model reads, or a ragged row, makes
    ``statnn summary`` exit 2 with an error line and no traceback."""
    (train_path, _, header, rows, response, _, _, _) = _table(seed, tmp_path)
    data, _ = ingest(train_path, response)
    model = str(tmp_path / "model.json")
    save_model(_document(data, train_path), model)
    rng = np.random.default_rng(seed)
    used = [j for j, name in enumerate(header)
            if name in {cm.raw for cm in data.column_meta} | {response}]
    with_na = [list(r) for r in rows]
    row, col = int(rng.integers(0, len(rows))), int(rng.choice(used))
    with_na[row][col] = str(rng.choice(_NA_TOKENS))
    ragged = [list(r) for r in rows]
    ragged[int(rng.integers(0, len(rows)))].pop()
    for name, bad_rows in (("na", with_na), ("ragged", ragged)):
        path = _write(tmp_path / f"{name}.csv", header, bad_rows, rng)
        assert main(["summary", model, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("missing value" if name == "na" else "fields") in err
        assert "Traceback" not in err
