"""CSV ingestion and preprocessing.

Raw data files carry a header row and a mix of numeric and categorical
columns.  Before fitting, numeric covariates are standardized to zero
mean and unit variance (sample standard deviation, n - 1 denominator)
and categorical covariates are dummy encoded: a c-level factor becomes
c - 1 indicator columns named ``variable.level``, with the reference
level (by default the first level observed in file order) absorbed into
the intercept.  A 0/1 numeric column passes through unchanged.

:func:`infer_plan` records these decisions as a :class:`PreprocessPlan`.
:func:`ingest` turns the plan into the per-model-column
:class:`~statnn.model.ColumnMeta` records that a stored model keeps (the
training mean and sd, or the raw column and level behind an indicator),
and encodes the file from those records.  :func:`dataset_from_meta`
encodes any later file from a stored model's records with the same
code, so a query sees the training transformation exactly.

Missing values are a hard error naming the offending row and column; no
imputation is attempted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .model import ColumnMeta, Dataset

ACTIONS = ("standardize", "dummy_encode", "passthrough")
RESPONSE_ACTIONS = ("standardize", "passthrough")

# Cell values treated as missing (case-insensitive, after stripping).
_MISSING = frozenset({"", "na", "nan", "n/a", "null"})


def read_csv(path):
    """Read a UTF-8 CSV with a header row into per-column string lists.

    A leading byte-order mark is dropped, so it never becomes part of
    the first column name.

    Returns ``(names, columns)`` where ``names`` is the header tuple and
    ``columns[i]`` is the list of (stripped) cell strings for column i.
    Ragged rows and duplicate header names are rejected.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        names = tuple(name.strip() for name in header)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"{path}: duplicate column names {dupes}")
        columns = [[] for _ in names]
        for i, row in enumerate(reader, start=1):
            if len(row) != len(names):
                raise DataError(
                    f"{path}: row {i} has {len(row)} fields, expected "
                    f"{len(names)}")
            for col, cell in zip(columns, row):
                col.append(cell.strip())
    if not columns or not columns[0]:
        raise DataError(f"{path}: no data rows")
    return names, columns


def _check_no_missing(name, cells):
    for i, cell in enumerate(cells, start=1):
        if cell.lower() in _MISSING:
            raise DataError(
                f"missing value in column {name!r}, row {i} "
                "(first data row is row 1); no imputation is performed")


def _try_numeric(name, cells):
    """Parse a column as floats, or return None if any cell is non-numeric.

    Cells that parse to non-finite floats are rejected outright: they
    are neither usable numbers nor factor levels.
    """
    out = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            out[i] = float(cell)
        except ValueError:
            return None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"non-finite value {cells[i]!r} in column {name!r}, row {i + 1}")
    return out


@dataclass(frozen=True)
class ColumnAction:
    """Preprocessing decision for one raw column.

    ``levels`` is populated for dummy encoding (reference level first);
    ``mean``/``sd`` for standardization.  A binary 0/1 response encoded
    from a two-level factor also records its levels.
    """

    name: str
    action: str
    levels: tuple = ()
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}; "
                             f"supported: {ACTIONS}")

    def model_columns(self) -> tuple:
        """Names of the model columns this raw column produces."""
        if self.action == "dummy_encode":
            return tuple(f"{self.name}.{lvl}" for lvl in self.levels[1:])
        return (self.name,)


@dataclass(frozen=True)
class PreprocessPlan:
    """Per-column actions for the covariates plus the response.

    Every model column traces back to exactly one raw column and one
    action; :meth:`trace` exposes the mapping.
    """

    columns: tuple
    response: ColumnAction

    def __post_init__(self):
        if self.response.action == "dummy_encode":
            raise ValueError(
                "the response is never dummy encoded; a two-level factor "
                "response is mapped to 0/1 under 'passthrough'")

    def model_column_names(self) -> tuple:
        names = []
        for action in self.columns:
            names.extend(action.model_columns())
        return tuple(names)

    def trace(self, model_column: str):
        """Raw column and action behind a model column."""
        for action in self.columns:
            if model_column in action.model_columns():
                return action.name, action.action
        raise KeyError(f"no model column named {model_column!r}")


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
    """Normalize a schema column entry to (action, reference) or None."""
    if schema is None:
        return None
    entry = schema.get("columns", {}).get(name)
    if entry is None:
        return None
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


def _plan_column(name, cells, override):
    """Decide the action for one covariate column."""
    numeric = _try_numeric(name, cells)
    if override is not None:
        action, reference = override
        if action == "standardize":
            if numeric is None:
                raise DataError(
                    f"schema requests standardization of non-numeric "
                    f"column {name!r}")
            mean, sd = _standardize_stats(name, numeric)
            return ColumnAction(name, "standardize", mean=mean, sd=sd)
        if action == "passthrough":
            if numeric is None:
                raise DataError(
                    f"schema requests passthrough of non-numeric column "
                    f"{name!r}; use dummy_encode for factors")
            return ColumnAction(name, "passthrough")
        if action == "dummy_encode":
            return ColumnAction(name, "dummy_encode",
                                levels=_factor_levels(name, cells, reference))
        raise DataError(f"unknown schema action {action!r} for column "
                        f"{name!r}; supported: {ACTIONS}")
    if numeric is None:
        return ColumnAction(name, "dummy_encode",
                            levels=_factor_levels(name, cells))
    if _is_binary(numeric):
        # An already-encoded indicator: re-standardizing it would destroy
        # the 0/1 coding that the binary-effect machinery relies on.
        return ColumnAction(name, "passthrough")
    mean, sd = _standardize_stats(name, numeric)
    return ColumnAction(name, "standardize", mean=mean, sd=sd)


def _plan_response(name, cells, schema):
    explicit = None
    if schema is not None and "response_action" in schema:
        explicit = schema["response_action"]
        if explicit not in RESPONSE_ACTIONS:
            raise DataError(
                f"unknown response action {explicit!r}; supported: "
                f"{RESPONSE_ACTIONS}")
    numeric = _try_numeric(name, cells)
    if numeric is None:
        # Two-level factor responses are mapped to a 0/1 indicator; the
        # level coded 1 is recorded so predictions stay interpretable.
        levels = _factor_levels(name, cells)
        if len(levels) != 2:
            raise DataError(
                f"response column {name!r} has {len(levels)} levels; only "
                "two-level factors can serve as a binary response")
        return ColumnAction(name, "passthrough", levels=levels)
    if explicit == "passthrough":
        return ColumnAction(name, "passthrough")
    if explicit is None and _is_binary(numeric):
        return ColumnAction(name, "passthrough")
    mean, sd = _standardize_stats(name, numeric)
    return ColumnAction(name, "standardize", mean=mean, sd=sd)


def infer_plan(names, columns, response: str,
               schema=None) -> PreprocessPlan:
    """Choose an action for every column given optional schema overrides.

    ``schema`` is a mapping with optional keys ``columns`` (raw name ->
    action string or ``{"action": ..., "reference": level}``) and
    ``response_action``.
    """
    if response not in names:
        raise DataError(
            f"unknown response column {response!r}; available columns: "
            f"{list(names)}")
    if schema is not None:
        unknown = set(schema) - {"columns", "response_action"}
        if unknown:
            raise DataError(f"unknown schema keys {sorted(unknown)}")
        missing = set(schema.get("columns", {})) - set(names)
        if missing:
            raise DataError(
                f"schema names columns not present in the file: "
                f"{sorted(missing)}")
        if response in schema.get("columns", {}):
            raise DataError(
                f"response column {response!r} must be configured via "
                "'response_action', not 'columns'")
    actions = []
    for name, cells in zip(names, columns):
        _check_no_missing(name, cells)
        if name == response:
            continue
        actions.append(_plan_column(name, cells, _schema_entry(schema, name)))
    resp = _plan_response(response, columns[names.index(response)], schema)
    return PreprocessPlan(columns=tuple(actions), response=resp)


def _stored_meta(action: ColumnAction, cells) -> list:
    """Metadata of the model columns one planned raw column produces."""
    if action.action == "dummy_encode":
        return [ColumnMeta(name, kind="dummy")
                for name in action.model_columns()]
    if action.levels:
        # A two-level factor response: the indicator of its second level.
        return [ColumnMeta(f"{action.name}.{action.levels[1]}",
                           kind="dummy")]
    if action.action == "standardize":
        return [ColumnMeta(action.name, mean=action.mean, sd=action.sd)]
    numeric = _try_numeric(action.name, cells)
    kind = "dummy" if _is_binary(numeric) else "continuous"
    return [ColumnMeta(action.name, kind=kind)]


def _check_names_read_back(plan: PreprocessPlan, header):
    """Reject a factor level whose model column name a stored model would
    resolve to another raw column or level (see :func:`_split_dummy_name`).

    Stored metadata identifies a dummy column by its name alone, so with
    a header ``a,a.b`` level ``b`` of factor ``a`` and the raw column
    ``a.b`` would both be called ``a.b``.
    """
    coded = [(a.name, lvl) for a in plan.columns
             if a.action == "dummy_encode" for lvl in a.levels[1:]]
    if plan.response.levels:
        coded.append((plan.response.name, plan.response.levels[1]))
    for raw, level in coded:
        name = f"{raw}.{level}"
        got_raw, got_level = _split_dummy_name(name, header)
        if (got_raw, got_level) != (raw, level):
            other = (f"column {got_raw!r}" if got_level is None else
                     f"level {got_level!r} of column {got_raw!r}")
            raise DataError(
                f"duplicate model column name {name!r}: it encodes level "
                f"{level!r} of column {raw!r} but also names {other}; "
                "rename the column or the level")


def ingest(csv_path, response: str, schema=None):
    """Read a CSV, infer (or take from ``schema``) per-column actions,
    and return the encoded dataset together with the plan applied.

    The plan becomes the column metadata a stored model keeps, and the
    file is encoded from that metadata by the code behind
    :func:`dataset_from_meta`, so a stored model re-reading its training
    file gets back the matrix it was fitted to.
    """
    names, columns = read_csv(csv_path)
    plan = infer_plan(names, columns, response, schema)
    _check_names_read_back(plan, names)
    by_name = dict(zip(names, columns))
    column_meta = []
    for action in plan.columns:
        column_meta.extend(_stored_meta(action, by_name[action.name]))
    (response_meta,) = _stored_meta(plan.response,
                                    by_name[plan.response.name])
    data = _encode(csv_path, names, columns, column_meta, response_meta)
    return data, plan


# ---------------------------------------------------------------------------
# Encoding a CSV from column metadata
# ---------------------------------------------------------------------------

def _split_dummy_name(model_name: str, header) -> tuple:
    """Raw column and level behind a dummy model column.

    A name found in the CSV header is a pre-encoded indicator that was
    passed through (level None).  Otherwise the model column is
    ``raw.level`` for the longest header name ``raw`` that fits, so raw
    names and levels may themselves contain dots.  With no such header
    name the raw column is the name up to its first dot, which the
    caller reports as missing.
    """
    if model_name in header:
        return model_name, None
    fits = [raw for raw in header if model_name.startswith(raw + ".")]
    if not fits:
        return model_name.partition(".")[0], None
    raw = max(fits, key=len)
    return raw, model_name[len(raw) + 1:]


def dataset_from_meta(csv_path, column_meta, response_meta) -> Dataset:
    """Rebuild a model-ready dataset from stored column metadata.

    Used when applying a persisted model to a CSV: continuous columns
    are re-centered with the *stored* mean/sd (not the new file's), and
    dummy columns are re-derived from their recorded raw column and
    level.
    """
    names, columns = read_csv(csv_path)
    return _encode(csv_path, names, columns, column_meta, response_meta)


def _encode(csv_path, names, columns, column_meta, response_meta) -> Dataset:
    """Encode parsed CSV columns as ``column_meta`` and ``response_meta``
    describe; the one encoder behind both :func:`ingest` and
    :func:`dataset_from_meta`."""
    by_name = dict(zip(names, columns))

    def raw_cells(raw, what):
        if raw not in by_name:
            raise DataError(
                f"{what} requires raw column {raw!r}, which is not in "
                f"{csv_path}; available columns: {list(names)}")
        _check_no_missing(raw, by_name[raw])
        return by_name[raw]

    def encode(cm, what):
        if cm.kind != "dummy":
            numeric = _try_numeric(cm.name, raw_cells(cm.name, what))
            if numeric is None:
                raise DataError(f"column {cm.name!r} is not numeric")
            return (numeric - cm.mean) / cm.sd
        raw, level = _split_dummy_name(cm.name, names)
        cells = raw_cells(raw, what)
        if level is not None:
            return np.array([1.0 if c == level else 0.0 for c in cells])
        numeric = _try_numeric(raw, cells)
        if numeric is None or not np.all((numeric == 0.0) | (numeric == 1.0)):
            raise DataError(
                f"column {raw!r} must contain only 0/1 values to match "
                f"stored indicator {cm.name!r}")
        return numeric

    x_cols = [encode(cm, f"{cm.kind} column {cm.name!r}")
              for cm in column_meta]
    y = encode(response_meta, f"response {response_meta.name!r}")
    return Dataset(x=np.column_stack(x_cols), y=y,
                   column_meta=tuple(column_meta),
                   response_meta=response_meta)
