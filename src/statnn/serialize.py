"""Model and scenario persistence.

A fitted network is stored as a single JSON document::

    {format_version, p, q, hidden_activation, output_activation,
     theta, lambda, column_meta, response_meta, fit}

Each column record is ``{name, kind, mean, sd, raw, level, levels}``:
``raw`` names the CSV column the model column is read from, ``level`` is
the factor level an indicator marks and ``levels`` the factor's full
level set, reference level first (both ``null`` for a numeric column).
The activation fields encode the family: ``hidden_activation`` is always
``logistic`` and ``output_activation`` is ``model.FAMILIES[family]``, the
one table of families and their activations.  These fields, each with a
check of its own, are written by ``model_to_json`` and ``_meta_dict``
and read by ``parse_model`` and ``_parse_meta``.

The ``fit`` block holds what inference needs from the training data,
computed once by ``model_document`` at theta-hat, with a digest of what
it was computed at.  Its fields are ``FitRecord``'s, which its docstring
describes, written and read in their declared order and types
(``_FIT_FIELDS``).  A file whose digest does not match its other fields
was edited after fitting, and its stored fit describes another model;
it is refused with a request to refit.

This is model format version 3.  Version 1 records lacked ``raw`` and
``level``, so they cannot say which CSV column an indicator comes from,
and version 2 files lack the level sets and the fit block; both are
refused with a request to refit.  Scenario files are versioned
separately and are at version 1; their fields are listed once, in
``_SCENARIO_FIELDS``.  ``n`` and ``lambda`` may each be a non-empty
list, and an ``effect`` list may be given instead: the axes of a study
grid, read value by value as the single fields are.

``json.dumps`` writes floats by ``repr``, which reads back to the same
double, refuses non-finite values and keeps insertion order, so repeated
saves of the same model are byte-identical.
All writes go through a write-temp-then-rename step so a crash never
leaves a half-written file behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .exceptions import DataError
from .fit import FitResult, evaluate_at, fixed_result
from .likelihood import check_lambda, observed_information
from .model import FAMILIES, Architecture, ColumnMeta, Dataset, ParamVector
from .simgen import SimScenario

MODEL_FORMAT_VERSION = 3
SCENARIO_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Deterministic JSON emission
# ---------------------------------------------------------------------------

def to_json_text(obj) -> str:
    """Deterministic JSON, two-space indent; floats by ``repr``."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path, text: str):
    """Write a text file via a temporary sibling and an atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.",
                               suffix="-" + os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Model documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitRecord:
    """What inference needs from a model's training data, computed once
    at theta-hat when the model is built (``model_document``).

    ``n`` is the training row count; ``csv_sha256`` the SHA-256 of the
    training CSV's bytes and ``data_sha256`` that of its encoded x and y
    (``data_sha256``), so a query can tell the training data from any
    other; ``digest`` is ``_model_digest`` of the theta, lambda,
    architecture and column records it was computed at.  ``loglik``,
    ``sigma_sq_hat`` and ``grad_max`` are ``evaluate_at``'s values and
    ``information`` is ``observed_information`` at sigma_hat^2, the
    matrix the sandwich covariance is built from.
    """

    n: int
    csv_sha256: str
    data_sha256: str
    digest: str
    loglik: float
    sigma_sq_hat: float | None
    grad_max: float
    information: np.ndarray


@dataclass(frozen=True)
class ModelDocument:
    """A fitted network plus everything needed to re-apply it to data
    and to test it: the column records and the stored fit.

    ``arch`` is read from ``theta``, so the document cannot name another
    architecture than its weights have.  ``n``, ``p`` and the column
    records describe the training data, so a document stands in for that
    data where nothing else of it is read (``inference.summarize``).
    """

    theta: ParamVector
    lam: float
    column_meta: tuple
    response_meta: ColumnMeta
    fit: FitRecord

    @property
    def arch(self) -> Architecture:
        return self.theta.arch

    @property
    def n(self) -> int:
        return self.fit.n

    @property
    def p(self) -> int:
        return self.arch.p

    @property
    def fit_result(self) -> FitResult:
        """The stored fit as ``evaluate_at`` on the training data returns
        it (``fit.fixed_result``)."""
        return fixed_result(self.theta, self.lam, self.fit.loglik,
                            self.fit.sigma_sq_hat, self.fit.grad_max)

    def __post_init__(self):
        if len(self.column_meta) != self.arch.p:
            raise DataError(
                f"model stores {len(self.column_meta)} column records for "
                f"p = {self.arch.p} covariates")


def file_sha256(path) -> str:
    """SHA-256 of a file's bytes, as hex."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def data_sha256(data: Dataset) -> str:
    """SHA-256 of an encoded dataset: x then y, as C-order doubles."""
    digest = hashlib.sha256(data.x.tobytes())
    digest.update(data.y.tobytes())
    return digest.hexdigest()


def _model_digest(theta: ParamVector, lam: float, column_meta,
                 response_meta: ColumnMeta) -> str:
    """SHA-256 of what a stored fit was computed at: the architecture,
    theta, lambda and the column records, with floats by ``repr``."""
    arch = theta.arch
    text = json.dumps([int(arch.p), int(arch.q), arch.family,
                       theta.values.tolist(), float(lam),
                       [_meta_dict(m) for m in column_meta],
                       _meta_dict(response_meta)])
    return hashlib.sha256(text.encode()).hexdigest()


def model_document(fit_result, data: Dataset, csv_path) -> ModelDocument:
    """Bundle a fit with its training data's column records and with the
    ``FitRecord`` of that data, ``data`` being the CSV file ``csv_path``
    as encoded for the fit.

    Only ``fit_result.theta_hat`` and ``fit_result.lam`` are read; the
    stored fit is evaluated at them on ``data``, so a document built at
    an edited theta describes that theta.
    """
    theta, lam = fit_result.theta_hat, fit_result.lam
    column_meta, response_meta = tuple(data.column_meta), data.response_meta
    at = evaluate_at(theta, data, lam)
    record = FitRecord(
        n=data.n, csv_sha256=file_sha256(csv_path),
        data_sha256=data_sha256(data),
        digest=_model_digest(theta, lam, column_meta, response_meta),
        loglik=at.loglik, sigma_sq_hat=at.sigma_sq_hat,
        grad_max=at.grad_max,
        information=observed_information(theta, data,
                                         sigma_sq=at.sigma_sq_hat))
    return ModelDocument(theta=theta, lam=lam, column_meta=column_meta,
                         response_meta=response_meta, fit=record)


def _meta_dict(meta: ColumnMeta) -> dict:
    return {"name": meta.name, "kind": meta.kind,
            "mean": float(meta.mean), "sd": float(meta.sd),
            "raw": meta.raw, "level": meta.level,
            "levels": None if meta.levels is None else list(meta.levels)}


def model_to_json(doc: ModelDocument) -> str:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "p": int(doc.arch.p),
        "q": int(doc.arch.q),
        "hidden_activation": "logistic",
        "output_activation": FAMILIES[doc.arch.family],
        "theta": [float(v) for v in doc.theta.values],
        "lambda": float(doc.lam),
        "column_meta": [_meta_dict(m) for m in doc.column_meta],
        "response_meta": _meta_dict(doc.response_meta),
        "fit": {name: _CODECS[kind][0](getattr(doc.fit, name))
                for name, kind in _FIT_FIELDS},
    }
    return to_json_text(payload)


def save_model(doc: ModelDocument, path):
    atomic_write_text(path, model_to_json(doc))


def _json_int(value, field: str, where: str) -> int:
    """A JSON integer; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: {field} must be an integer, "
                        f"got {value!r}")
    return value


def _json_float(value, field: str, where: str) -> float:
    """A JSON number as a float; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{where}: {field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise DataError(f"{where}: {field} is out of range") from exc


def _json_str(value, field: str, where: str) -> str:
    """A JSON string; numbers, null and containers are refused."""
    if not isinstance(value, str):
        raise DataError(f"{where}: {field} must be a string, got {value!r}")
    return value


def _json_floats(values: list, field: str, where: str) -> np.ndarray:
    """JSON numbers as a float array, naming the first entry that is not
    one; a list of JSON floats, as the writer leaves it, is read in one
    step."""
    if all(type(v) is float for v in values):
        return np.array(values, dtype=float)
    return np.array([_json_float(v, f"{field}[{i}]", where)
                     for i, v in enumerate(values)])


#: (write, read) of a stored value by its declared type; a ``read`` of
#: None leaves the JSON value for its record's parser to check.
_CODECS = {int: (int, _json_int), float: (float, _json_float),
           str: (str, _json_str), np.ndarray: (np.ndarray.tolist, None),
           float | None: (lambda v: None if v is None else float(v), None),
           ParamVector: (lambda theta: theta.values.tolist(), None)}

_FIT_FIELDS = tuple(get_type_hints(FitRecord).items())


def _field(obj: dict, key: str, where: str, parse=None, label=None):
    """``obj[key]``, refused by name when missing, read by ``parse`` (a
    ``_json_*`` reader, naming the value ``label`` or ``key``) if given."""
    if key not in obj:
        raise DataError(f"{where}: missing required field {key!r}")
    value = obj[key]
    return value if parse is None else parse(value, label or key, where)


def _parse_meta(entry, where: str) -> ColumnMeta:
    if not isinstance(entry, dict):
        raise DataError(f"{where}: column metadata must be an object")
    name = _field(entry, "name", where, _json_str, "column name")
    of = f" of column {name!r}"
    kind = _field(entry, "kind", where, _json_str, "kind" + of)
    mean = _field(entry, "mean", where, _json_float, "mean" + of)
    sd = _field(entry, "sd", where, _json_float, "sd" + of)
    raw = _field(entry, "raw", where, _json_str, "raw" + of)
    level = _field(entry, "level", where)
    if level is not None and not isinstance(level, str):
        raise DataError(f"{where}: level{of} must be a string or null, "
                        f"got {level!r}")
    levels = _field(entry, "levels", where)
    if not (levels is None or isinstance(levels, list)
            and all(isinstance(v, str) for v in levels)):
        raise DataError(f"{where}: levels{of} must be a list of strings "
                        f"or null, got {levels!r}")
    try:
        meta = ColumnMeta(name=name, kind=kind, mean=mean, sd=sd, raw=raw,
                          level=level,
                          levels=None if levels is None else tuple(levels))
    except ValueError as exc:
        raise DataError(f"{where}: invalid column metadata: {exc}") from exc
    if level is not None and levels is None:
        raise DataError(f"{where}: column {name!r} indicates level "
                        f"{level!r} but records no level set")
    return meta


def json_object(text: str, where: str) -> dict:
    """A JSON document whose top level is an object, else a DataError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{where}: top level must be an object")
    return payload


def _check_version(payload: dict, where: str, wanted: int):
    version = _field(payload, "format_version", where, _json_int)
    if version != wanted:
        raise DataError(
            f"{where}: unsupported format_version {version!r} "
            f"(this build reads version {wanted})")


def parse_model(text: str, where: str = "model") -> ModelDocument:
    payload = json_object(text, where)
    version = payload.get("format_version")
    lacks = {1: "the raw CSV column and level of each model column",
             2: "the factor level sets or the fit on the training data"}
    if type(version) is int and version in lacks:
        raise DataError(
            f"{where}: format_version {version} model files do not record "
            f"{lacks[version]}; refit the model with 'statnn fit'")
    _check_version(payload, where, MODEL_FORMAT_VERSION)
    p = _field(payload, "p", where, _json_int)
    q = _field(payload, "q", where, _json_int)
    hidden = _field(payload, "hidden_activation", where, _json_str)
    output = _field(payload, "output_activation", where, _json_str)
    families = [f for f, act in FAMILIES.items() if act == output]
    try:
        if hidden != "logistic":
            raise ValueError(f"unsupported hidden activation {hidden!r}; "
                             "supported: ('logistic',)")
        if not families:
            raise ValueError(
                f"unsupported output activation {output!r}; "
                f"supported: {tuple(FAMILIES.values())}")
        arch = Architecture(p=p, q=q, family=families[0])
    except ValueError as exc:
        raise DataError(f"{where}: invalid architecture: {exc}") from exc
    theta_raw = _field(payload, "theta", where)
    if not isinstance(theta_raw, list) or len(theta_raw) != arch.r:
        raise DataError(
            f"{where}: theta must be a list of {arch.r} numbers for "
            f"p = {arch.p}, q = {arch.q}")
    theta = ParamVector(arch, _json_floats(theta_raw, "theta", where))
    if not np.all(np.isfinite(theta.values)):
        raise DataError(f"{where}: theta contains non-finite entries")
    lam = _field(payload, "lambda", where, _json_float)
    try:
        check_lambda(lam)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc
    meta_raw = _field(payload, "column_meta", where)
    if not isinstance(meta_raw, list):
        raise DataError(f"{where}: column_meta must be a list")
    column_meta = tuple(_parse_meta(m, where) for m in meta_raw)
    response_meta = _parse_meta(_field(payload, "response_meta", where),
                                where)
    fit = _parse_fit(_field(payload, "fit", where), arch, where)
    if fit.digest != _model_digest(theta, lam, column_meta, response_meta):
        raise DataError(
            f"{where}: theta, lambda, the architecture or the column records "
            "are not those the stored fit was computed at (the file was "
            "edited after fitting); refit the model with 'statnn fit'")
    return ModelDocument(theta=theta, lam=lam, column_meta=column_meta,
                         response_meta=response_meta, fit=fit)


def _parse_fit(entry, arch: Architecture, where: str) -> FitRecord:
    """The ``fit`` block; sigma_hat^2 is a positive number exactly when
    the family profiles it, and the information is r x r and finite."""
    if not isinstance(entry, dict):
        raise DataError(f"{where}: fit must be an object")
    values = {name: _field(entry, name, where, _CODECS[kind][1],
                           f"fit {name}") for name, kind in _FIT_FIELDS}
    n, sigma_sq = values["n"], values["sigma_sq_hat"]
    if arch.sigma_profiled:
        sigma_sq = _json_float(sigma_sq, "fit sigma_sq_hat", where)
    if n < 1 or not (0.0 < sigma_sq < np.inf if arch.sigma_profiled
                     else sigma_sq is None):
        raise DataError(f"{where}: fit needs n >= 1 and, for the "
                        f"{arch.family} family, sigma_sq_hat "
                        f"{'> 0' if arch.sigma_profiled else 'null'}")
    rows = values["information"]
    if not (isinstance(rows, list) and len(rows) == arch.r and all(
            isinstance(row, list) and len(row) == arch.r for row in rows)):
        raise DataError(f"{where}: fit information must be {arch.r} lists "
                        f"of {arch.r} numbers")
    info = np.array([_json_floats(row, f"fit information[{i}]", where)
                     for i, row in enumerate(rows)])
    if not (np.isfinite(info).all()
            and np.isfinite([values["loglik"], values["grad_max"]]).all()):
        raise DataError(f"{where}: fit holds non-finite numbers")
    info.flags.writeable = False
    return FitRecord(**dict(values, sigma_sq_hat=sigma_sq, information=info))


def load_model(path) -> ModelDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read(), where=os.fspath(path))


# ---------------------------------------------------------------------------
# Simulation scenarios
# ---------------------------------------------------------------------------

#: The scenario file's fields in the order written: JSON key, the name
#: ``SimScenario`` and ``run_grid`` know it by, type, and whether a list
#: may stand in it (an axis of a study grid; ``effect`` is only that).
#: A field ``SimScenario`` gives no default is required.
_SCENARIO_FIELDS = (
    ("q", "q", int, False), ("nz_pattern", "nz_pattern", str, False),
    ("n", "n", int, True), ("p", "p", int, False),
    ("lambda", "lam", float, True), ("noise_sd", "noise_sd", float, False),
    ("replicates", "replicates", int, False),
    ("restarts", "restarts", int, False), ("seed", "seed", int, False),
    ("true_theta", "true_theta", ParamVector, False),
    ("effect", "effect", float, True))

_SCENARIO_REQUIRED = {f.name for f in fields(SimScenario)
                      if f.default is MISSING}


def scenario_to_json(scenario: SimScenario) -> str:
    payload = {"format_version": SCENARIO_FORMAT_VERSION}
    for key, name, kind, _axis in _SCENARIO_FIELDS:
        value = getattr(scenario, name, None)
        if value is not None:
            payload[key] = _CODECS[kind][0](value)
    return to_json_text(payload)


def save_scenario(scenario: SimScenario, path):
    atomic_write_text(path, scenario_to_json(scenario))


def parse_study(text: str, where: str = "scenario") -> tuple:
    """A scenario file as ``(scenario, axes)``.  ``axes`` holds the
    values of each list the file gives, keyed as ``run_grid`` takes
    them; a list's first value stands in the scenario."""
    payload = json_object(text, where)
    _check_version(payload, where, SCENARIO_FORMAT_VERSION)
    unknown = set(payload) - {"format_version"} - {
        key for key, *_ in _SCENARIO_FIELDS}
    if unknown:
        raise DataError(f"{where}: unknown fields {sorted(unknown)}")
    kwargs, axes = {}, {}
    for key, name, kind, axis in _SCENARIO_FIELDS:
        if key not in payload and name not in _SCENARIO_REQUIRED:
            continue
        value, parse = _field(payload, key, where), _CODECS[kind][1]
        if axis and isinstance(value, list):
            if not value:
                raise DataError(f"{where}: {key} list must not be empty")
            axes[name] = tuple(parse(v, f"{key}[{i}]", where)
                               for i, v in enumerate(value))
            kwargs[name] = axes[name][0]
        else:
            kwargs[name] = value if parse is None else parse(value, key,
                                                             where)
    if kwargs.pop("effect", None) is not None and not (
            "effect" in axes and np.all(np.isfinite(axes["effect"]))):
        raise DataError(f"{where}: effect must be a list of finite numbers")
    if "effect" in axes and len(axes) > 1:
        raise DataError(f"{where}: an effect list makes a power curve and "
                        "n or lambda lists a PD table; give one, not both")
    try:
        # The truth goes in with the rest: a scenario without one must
        # have a default truth.
        if "true_theta" in kwargs:
            arch = Architecture(p=kwargs.get("p", SimScenario.p),
                                q=kwargs["q"])
            raw = kwargs["true_theta"]
            if not isinstance(raw, list) or len(raw) != arch.r:
                raise DataError(
                    f"{where}: true_theta must be a list of {arch.r} numbers")
            kwargs["true_theta"] = ParamVector(
                arch, _json_floats(raw, "true_theta", where))
        scenario = SimScenario(**kwargs)
        for name, values in axes.items():
            for value in values if name != "effect" else ():
                replace(scenario, **{name: value})
    except DataError:
        raise
    except ValueError as exc:
        raise DataError(f"{where}: invalid scenario: {exc}") from exc
    return scenario, axes


def parse_scenario(text: str, where: str = "scenario") -> SimScenario:
    """A single-cell scenario file; a grid file is refused."""
    scenario, axes = parse_study(text, where)
    if axes:
        raise DataError(f"{where}: lists {sorted(axes)} make a grid; run "
                        "it with 'statnn simulate'")
    return scenario


def load_scenario(path) -> SimScenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read(), where=os.fspath(path))
