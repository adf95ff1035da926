"""CSV ingestion and preprocessing.

Raw data files carry a header row and a mix of numeric and categorical
columns.  Before fitting, numeric covariates are standardized to zero
mean and unit variance (sample standard deviation, n - 1 denominator)
and categorical covariates are dummy encoded: a c-level factor becomes
c - 1 indicator columns named ``variable.level``, with the reference
level (by default the first level observed in file order) absorbed into
the intercept.  A 0/1 numeric column passes through unchanged.  The
response is planned by the same rule, except that a factor response
must have two levels and becomes its second level's indicator, and a
schema may set only a numeric response's action.

:func:`infer_plan` records these decisions as one
:class:`~statnn.model.ColumnMeta` per model column: the raw CSV column
it is read from, the level it indicates and the factor's full level set
(for a factor level's indicator), and the training mean and sd.  A
stored model keeps these records.  :func:`ingest` and
:func:`dataset_from_meta` encode a file with the same code, which reads
each model column from its stored raw column and level and never looks
at the file's header to decide what a column means; so a query sees the
training transformation exactly, whatever other columns the query file
carries, and a factor cell outside the training level set is refused.

Missing values are a hard error naming the offending row and column; no
imputation is attempted.
"""

from __future__ import annotations

import codecs
import csv
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .exceptions import DataError
from .model import ColumnMeta, Dataset

ACTIONS = ("standardize", "dummy_encode", "passthrough")
RESPONSE_ACTIONS = ("standardize", "passthrough")

# Cell values treated as missing (case-insensitive, after stripping).
_MISSING = frozenset({"", "na", "nan", "n/a", "null"})

#: Rows read_csv turns into columns at a time.  The row lists of a whole
#: 10,000-row file at once would add 2 MB to its peak memory.
_BLOCK_ROWS = 1024


def read_csv(path):
    """Read a UTF-8 CSV with a header row into per-column string lists.

    A leading byte-order mark is dropped, so it never becomes part of
    the first column name.

    Returns ``(names, columns)`` where ``names`` is the header tuple and
    ``columns[i]`` is the list of (stripped) cell strings for column i.
    Ragged rows and duplicate header names are rejected, and so are
    bytes that are not UTF-8 and anything the ``csv`` module cannot
    parse (a field over its size limit, say), naming the line (the
    header is line 1).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            names = tuple(name.strip() for name in header)
            if len(set(names)) != len(names):
                dupes = sorted({n for n in names if names.count(n) > 1})
                raise DataError(f"{path}: duplicate column names {dupes}")
            columns = [[] for _ in names]
            done = 0
            while block := list(islice(reader, _BLOCK_ROWS)):
                for i, row in enumerate(block, start=done + 1):
                    if len(row) != len(names):
                        raise DataError(_ragged(path, i, len(row),
                                                len(names)))
                for col, cells in zip(columns, zip(*block)):
                    col.extend(map(str.strip, cells))
                done += len(block)
        except csv.Error as exc:
            raise DataError(
                f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise DataError(_not_utf8(path)) from None
    if not columns or not columns[0]:
        raise DataError(f"{path}: no data rows")
    return names, columns


def _ragged(path, i, got, expected) -> str:
    """The message for data row i holding ``got`` fields, naming the
    physical line the row starts on (the header is line 1).  Rows are
    read a block at a time, so the reader's line count has moved past
    that row; the file is read again up to it, on this error path only.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, i):     # the header and rows 1..i-1
            pass
        line = reader.line_num + 1
    return f"{path}: line {line}: row has {got} fields, expected {expected}"


def _not_utf8(path) -> str:
    """The message for a file that does not decode as UTF-8, naming the
    line of its first bad byte.  The text reader decodes in blocks, so
    the line it had reached when decoding failed is not that line."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return (f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not "
                f"UTF-8 ({exc.reason})")
    return f"{path}: not UTF-8"


def _check_no_missing(name, cells):
    if _MISSING.isdisjoint(map(str.lower, cells)):
        return
    for i, cell in enumerate(cells, start=1):
        if cell.lower() in _MISSING:
            raise DataError(
                f"missing value in column {name!r}, row {i} "
                "(first data row is row 1); no imputation is performed")


def _parse_floats(cells):
    """The cells as floats, or None if any cell does not parse.
    Non-finite values are returned as they are."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None


def _check_finite(name, cells, values):
    """Refuse a parsed column holding a non-finite value: it is neither a
    usable number nor a factor level."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"non-finite value {cells[i]!r} in column {name!r}, row {i + 1} "
            "(first data row is row 1)")


@dataclass(frozen=True)
class PreprocessPlan:
    """The model columns a file is encoded into.

    ``columns`` holds one :class:`~statnn.model.ColumnMeta` per covariate
    model column, in design-matrix order; ``response`` is the response's.
    """

    columns: tuple
    response: ColumnMeta


def _standardize_stats(name, values):
    if len(values) < 2:
        raise DataError(
            f"need at least two observations to standardize column {name!r}")
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    if sd == 0.0:
        raise DataError(
            f"zero variance column {name!r} cannot be standardized; "
            "declare it 'passthrough' in the schema or drop it")
    return mean, sd


def _factor_levels(name, cells, reference=None):
    levels = []
    for cell in cells:
        if cell not in levels:
            levels.append(cell)
    if len(levels) < 2:
        raise DataError(
            f"factor column {name!r} has a single level {levels[0]!r}; "
            "it carries no information")
    if reference is not None:
        if reference not in levels:
            raise DataError(
                f"reference level {reference!r} not found in column "
                f"{name!r}; observed levels: {levels}")
        levels.remove(reference)
        levels.insert(0, reference)
    return tuple(levels)


def _schema_entry(schema, name):
    """Normalize a schema column entry to (action, reference); both are
    None without an entry."""
    entry = (schema or {}).get("columns", {}).get(name)
    if entry is None:
        return None, None
    if isinstance(entry, str):
        return entry, None
    if isinstance(entry, dict):
        action = entry.get("action")
        if action is None:
            raise DataError(f"schema entry for {name!r} lacks an 'action'")
        return action, entry.get("reference")
    raise DataError(f"schema entry for {name!r} must be a string or mapping")


def _is_binary(values) -> bool:
    return bool(np.all((values == 0.0) | (values == 1.0))
                and np.any(values == 0.0) and np.any(values == 1.0))


def _plan_column(name, cells, action=None, reference=None,
                 response=False) -> list:
    """The model columns of one CSV column.

    Without an ``action`` a non-numeric column is a factor, a 0/1 one an
    already-encoded indicator (re-standardizing it would destroy the 0/1
    coding the binary-effect machinery relies on) and any other is
    standardized.  The response follows the same rule but takes only
    ``RESPONSE_ACTIONS``, and a factor response must have two levels: it
    is the indicator of the second level, so predictions stay
    interpretable.
    """
    if response and action is not None and action not in RESPONSE_ACTIONS:
        raise DataError(f"unknown response action {action!r}; supported: "
                        f"{RESPONSE_ACTIONS}")
    if action is not None and action not in ACTIONS:
        raise DataError(f"unknown schema action {action!r} for column "
                        f"{name!r}; supported: {ACTIONS}")
    numeric = _parse_floats(cells)
    if numeric is not None:
        _check_finite(name, cells, numeric)
    if numeric is None and action not in (None, "dummy_encode"):
        if response:
            raise DataError(
                f"response_action {action} given for non-numeric response "
                f"{name!r}; a factor response is always its second level's "
                "indicator, so drop response_action")
        raise DataError(
            f"schema requests {action} of non-numeric column {name!r}; "
            "use dummy_encode for factors")
    if action is None:
        action = ("dummy_encode" if numeric is None else
                  "passthrough" if _is_binary(numeric) else "standardize")
    if action == "dummy_encode":
        levels = _factor_levels(name, cells, reference)
        if response and len(levels) != 2:
            raise DataError(
                f"response column {name!r} has {len(levels)} levels; only "
                "two-level factors can serve as a binary response")
        return [ColumnMeta(f"{name}.{level}", kind="dummy", raw=name,
                           level=level, levels=levels)
                for level in levels[1:]]
    if action == "passthrough":
        return [ColumnMeta(name, kind="dummy" if _is_binary(numeric)
                           else "continuous")]
    mean, sd = _standardize_stats(name, numeric)
    return [ColumnMeta(name, mean=mean, sd=sd)]


def _describe(cm: ColumnMeta) -> str:
    if cm.level is None:
        return f"column {cm.raw!r}"
    return f"level {cm.level!r} of column {cm.raw!r}"


def infer_plan(names, columns, response: str,
               schema=None) -> PreprocessPlan:
    """Choose the model columns of every CSV column given optional schema
    overrides.

    ``schema`` is a mapping with optional keys ``columns`` (raw name ->
    action string or ``{"action": ..., "reference": level}``) and
    ``response_action``.  A factor level whose model column would be
    named like another model column (``a`` level ``b`` beside a column
    ``a.b``) is refused, so model-column names identify their columns.
    """
    if response not in names:
        raise DataError(
            f"unknown response column {response!r}; available columns: "
            f"{list(names)}")
    if schema is not None:
        unknown = set(schema) - {"columns", "response_action"}
        if unknown:
            raise DataError(f"unknown schema keys {sorted(unknown)}")
        entries = schema.get("columns", {})
        if not isinstance(entries, dict):
            raise DataError("schema 'columns' must be an object mapping "
                            f"CSV column names to actions, got {entries!r}")
        missing = set(entries) - set(names)
        if missing:
            raise DataError(
                f"schema names columns not present in the file: "
                f"{sorted(missing)}")
        if response in entries:
            raise DataError(
                f"response column {response!r} must be configured via "
                "'response_action', not 'columns'")
    metas = []
    for name, cells in zip(names, columns):
        _check_no_missing(name, cells)
        if name == response:
            continue
        metas.extend(_plan_column(name, cells,
                                  *_schema_entry(schema, name)))
    (resp,) = _plan_column(response, columns[names.index(response)],
                           (schema or {}).get("response_action"),
                           response=True)
    seen = {}
    for cm in metas + [resp]:
        if cm.name in seen:
            raise DataError(
                f"duplicate model column name {cm.name!r}: it encodes "
                f"{_describe(seen[cm.name])} and {_describe(cm)}; rename "
                "the column or the level")
        seen[cm.name] = cm
    return PreprocessPlan(columns=tuple(metas), response=resp)


def ingest(csv_path, response: str, schema=None):
    """Read a CSV, infer (or take from ``schema``) its model columns, and
    return the encoded dataset together with the plan applied.

    The file is encoded from the plan's column records by the code
    behind :func:`dataset_from_meta`, so a stored model re-reading its
    training file gets back the matrix it was fitted to.
    """
    names, columns = read_csv(csv_path)
    plan = infer_plan(names, columns, response, schema)
    if not plan.columns:
        raise DataError(f"{csv_path} has no covariate column besides the "
                        f"response {response!r}")
    data = _encode(csv_path, names, columns, plan.columns, plan.response)
    return data, plan


# ---------------------------------------------------------------------------
# Encoding a CSV from column metadata
# ---------------------------------------------------------------------------

def dataset_from_meta(csv_path, column_meta, response_meta) -> Dataset:
    """Rebuild a model-ready dataset from stored column metadata.

    Used when applying a persisted model to a CSV: numeric columns are
    mapped with their record's *stored* ``to_model`` (not the new file's
    mean and sd), and factor indicators are re-derived from their
    recorded raw column and level.
    """
    names, columns = read_csv(csv_path)
    return _encode(csv_path, names, columns, column_meta, response_meta)


def _check_levels(name, cells, levels):
    """Refuse a factor cell outside the factor's training level set."""
    if set(levels).issuperset(cells):
        return
    i = next(i for i, cell in enumerate(cells) if cell not in levels)
    raise DataError(
        f"level {cells[i]!r} in column {name!r}, row {i + 1} (first data "
        f"row is row 1) was not seen in training; the model knows the "
        f"levels {list(levels)}")


def _encode(csv_path, names, columns, column_meta, response_meta) -> Dataset:
    """Encode parsed CSV columns as ``column_meta`` and ``response_meta``
    describe; the one encoder behind both :func:`ingest` and
    :func:`dataset_from_meta`.

    Every raw column is scanned once for missing values before anything
    else is said about it, except a column read as numbers whose cells
    all parse to finite floats: none of the missing-value tokens parses,
    and ``nan`` is not finite, so such a column cannot hold one.  Once
    every column is encoded, a factor's cells are checked against its
    recorded level set: a level the training data did not have would
    otherwise read as the reference level.
    """
    by_name = dict(zip(names, columns))
    checked = set()     # a factor's levels share one raw column

    def encode(cm, what):
        if cm.raw not in by_name:
            raise DataError(
                f"{what} requires raw column {cm.raw!r}, which is not in "
                f"{csv_path}; available columns: {list(names)}")
        cells = by_name[cm.raw]
        numeric = None if cm.level is not None else _parse_floats(cells)
        if cm.raw not in checked:
            if numeric is None or not np.isfinite(numeric).all():
                _check_no_missing(cm.raw, cells)
            checked.add(cm.raw)
        if cm.level is not None:
            return np.array([1.0 if c == cm.level else 0.0 for c in cells])
        if numeric is not None:
            _check_finite(cm.raw, cells, numeric)
        if cm.kind == "dummy" and (numeric is None or not np.all(
                (numeric == 0.0) | (numeric == 1.0))):
            raise DataError(
                f"column {cm.raw!r} must contain only 0/1 values to match "
                f"stored indicator {cm.name!r}")
        if numeric is None:
            raise DataError(f"column {cm.raw!r} is not numeric")
        return cm.to_model(numeric)

    x_cols = [encode(cm, f"{cm.kind} column {cm.name!r}")
              for cm in column_meta]
    y = encode(response_meta, f"response {response_meta.name!r}")
    factors = {cm.raw: cm.levels for cm in (*column_meta, response_meta)
               if cm.levels is not None}
    for raw, levels in factors.items():
        _check_levels(raw, by_name[raw], levels)
    return Dataset(x=np.column_stack(x_cols), y=y,
                   column_meta=tuple(column_meta),
                   response_meta=response_meta)
