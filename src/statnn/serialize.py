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
one table of families and their activations.

The ``fit`` block (``FitRecord``) holds what inference needs from the
training data, computed once by ``model_document`` at theta-hat: n, the
penalized log-likelihood, sigma_hat^2 and the gradient max-norm
(``fit.evaluate_at``'s values) and the observed information, with a
SHA-256 of the training CSV's bytes, one of the encoded x and y, and a
digest of theta, lambda, the architecture and the column records.  A
file whose digest does not match its other fields was edited after
fitting, and its stored fit describes another model; it is refused
with a request to refit.

This is model format version 3.  Version 1 records lacked ``raw`` and
``level``, so they cannot say which CSV column an indicator comes from,
and version 2 files lack the level sets and the fit block; both are
refused with a request to refit.  Scenario files are
versioned separately and are at version 1.  In a scenario file ``n``
and ``lambda`` may each be a non-empty list, and an ``effect`` list may
be given instead; the lists are the axes of a study grid, read value by
value as the single fields are.

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
from dataclasses import dataclass, replace

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
    fit = doc.fit
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
        "fit": {
            "n": int(fit.n),
            "csv_sha256": fit.csv_sha256,
            "data_sha256": fit.data_sha256,
            "digest": fit.digest,
            "loglik": float(fit.loglik),
            "sigma_sq_hat": (None if fit.sigma_sq_hat is None
                             else float(fit.sigma_sq_hat)),
            "grad_max": float(fit.grad_max),
            "information": fit.information.tolist(),
        },
    }
    return to_json_text(payload)


def save_model(doc: ModelDocument, path):
    atomic_write_text(path, model_to_json(doc))


def _require(payload: dict, key: str, where: str):
    if key not in payload:
        raise DataError(f"{where}: missing required field {key!r}")
    return payload[key]


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


def _parse_meta(entry, where: str) -> ColumnMeta:
    if not isinstance(entry, dict):
        raise DataError(f"{where}: column metadata must be an object")
    name = _json_str(_require(entry, "name", where), "column name", where)
    kind = _json_str(_require(entry, "kind", where),
                     f"kind of column {name!r}", where)
    mean = _json_float(_require(entry, "mean", where),
                       f"mean of column {name!r}", where)
    sd = _json_float(_require(entry, "sd", where),
                     f"sd of column {name!r}", where)
    raw = _json_str(_require(entry, "raw", where), f"raw of column {name!r}",
                    where)
    level = _require(entry, "level", where)
    if level is not None and not isinstance(level, str):
        raise DataError(f"{where}: level of column {name!r} must be a "
                        f"string or null, got {level!r}")
    levels = _require(entry, "levels", where)
    if not (levels is None or isinstance(levels, list)
            and all(isinstance(v, str) for v in levels)):
        raise DataError(f"{where}: levels of column {name!r} must be a list "
                        f"of strings or null, got {levels!r}")
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
    version = _json_int(_require(payload, "format_version", where),
                        "format_version", where)
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
    p = _json_int(_require(payload, "p", where), "p", where)
    q = _json_int(_require(payload, "q", where), "q", where)
    hidden = _json_str(_require(payload, "hidden_activation", where),
                       "hidden_activation", where)
    output = _json_str(_require(payload, "output_activation", where),
                       "output_activation", where)
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
    theta_raw = _require(payload, "theta", where)
    if not isinstance(theta_raw, list) or len(theta_raw) != arch.r:
        raise DataError(
            f"{where}: theta must be a list of {arch.r} numbers for "
            f"p = {arch.p}, q = {arch.q}")
    theta = ParamVector(arch, _json_floats(theta_raw, "theta", where))
    if not np.all(np.isfinite(theta.values)):
        raise DataError(f"{where}: theta contains non-finite entries")
    lam = _json_float(_require(payload, "lambda", where), "lambda", where)
    try:
        check_lambda(lam)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc
    meta_raw = _require(payload, "column_meta", where)
    if not isinstance(meta_raw, list):
        raise DataError(f"{where}: column_meta must be a list")
    column_meta = tuple(_parse_meta(m, where) for m in meta_raw)
    response_meta = _parse_meta(_require(payload, "response_meta", where),
                                where)
    fit = _parse_fit(_require(payload, "fit", where), arch, where)
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

    def field(key, parse):
        return parse(_require(entry, key, where), f"fit {key}", where)

    n = field("n", _json_int)
    sigma_sq = (field("sigma_sq_hat", _json_float) if arch.sigma_profiled
                else _require(entry, "sigma_sq_hat", where))
    if n < 1 or not (0.0 < sigma_sq < np.inf if arch.sigma_profiled
                     else sigma_sq is None):
        raise DataError(f"{where}: fit needs n >= 1 and, for the "
                        f"{arch.family} family, sigma_sq_hat "
                        f"{'> 0' if arch.sigma_profiled else 'null'}")
    rows = _require(entry, "information", where)
    if not (isinstance(rows, list) and len(rows) == arch.r and all(
            isinstance(row, list) and len(row) == arch.r for row in rows)):
        raise DataError(f"{where}: fit information must be {arch.r} lists "
                        f"of {arch.r} numbers")
    info = np.array([_json_floats(row, f"fit information[{i}]", where)
                     for i, row in enumerate(rows)])
    loglik, grad_max = field("loglik", _json_float), field("grad_max",
                                                           _json_float)
    if not (np.isfinite(info).all() and np.isfinite([loglik, grad_max]).all()):
        raise DataError(f"{where}: fit holds non-finite numbers")
    info.flags.writeable = False
    return FitRecord(n=n, csv_sha256=field("csv_sha256", _json_str),
                     data_sha256=field("data_sha256", _json_str),
                     digest=field("digest", _json_str), loglik=loglik,
                     sigma_sq_hat=sigma_sq, grad_max=grad_max,
                     information=info)


def load_model(path) -> ModelDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read(), where=os.fspath(path))


# ---------------------------------------------------------------------------
# Simulation scenarios
# ---------------------------------------------------------------------------

_SCENARIO_INT_FIELDS = ("q", "n", "p", "replicates", "restarts", "seed")
_SCENARIO_FLOAT_FIELDS = ("lambda", "noise_sd", "effect")


def scenario_to_json(scenario: SimScenario) -> str:
    payload = {
        "format_version": SCENARIO_FORMAT_VERSION,
        "q": int(scenario.q),
        "nz_pattern": scenario.nz_pattern,
        "n": int(scenario.n),
        "p": int(scenario.p),
        "lambda": float(scenario.lam),
        "noise_sd": float(scenario.noise_sd),
        "replicates": int(scenario.replicates),
        "restarts": int(scenario.restarts),
        "seed": int(scenario.seed),
    }
    if scenario.true_theta is not None:
        payload["true_theta"] = [float(v)
                                 for v in scenario.true_theta.values]
    return to_json_text(payload)


def save_scenario(scenario: SimScenario, path):
    atomic_write_text(path, scenario_to_json(scenario))


def parse_study(text: str, where: str = "scenario") -> tuple:
    """A scenario file as ``(scenario, axes)``.  ``axes`` holds the
    values of each list the file gives, keyed as ``run_grid`` takes
    them; a list's first value stands in the scenario."""
    payload = json_object(text, where)
    _check_version(payload, where, SCENARIO_FORMAT_VERSION)
    known = set(_SCENARIO_INT_FIELDS) | set(_SCENARIO_FLOAT_FIELDS) | {
        "format_version", "nz_pattern", "true_theta"}
    unknown = set(payload) - known
    if unknown:
        raise DataError(f"{where}: unknown fields {sorted(unknown)}")
    kwargs, axes = {}, {}
    for field in _SCENARIO_INT_FIELDS + _SCENARIO_FLOAT_FIELDS:
        if field not in payload:
            continue
        key = "lam" if field == "lambda" else field
        parse = _json_int if field in _SCENARIO_INT_FIELDS else _json_float
        value = payload[field]
        if key in ("lam", "n", "effect") and isinstance(value, list):
            if not value:
                raise DataError(f"{where}: {field} list must not be empty")
            axes[key] = tuple(parse(v, f"{field}[{i}]", where)
                              for i, v in enumerate(value))
            kwargs[key] = axes[key][0]
        else:
            kwargs[key] = parse(value, field, where)
    if kwargs.pop("effect", None) is not None and not (
            "effect" in axes and np.all(np.isfinite(axes["effect"]))):
        raise DataError(f"{where}: effect must be a list of finite numbers")
    if "effect" in axes and len(axes) > 1:
        raise DataError(f"{where}: an effect list makes a power curve and "
                        "n or lambda lists a PD table; give one, not both")
    for field in ("q", "n", "nz_pattern"):
        if field not in payload:
            raise DataError(f"{where}: missing required field {field!r}")
    kwargs["nz_pattern"] = _json_str(payload["nz_pattern"], "nz_pattern",
                                     where)
    try:
        # The truth goes in with the rest: a scenario without one must
        # have a default truth.
        if "true_theta" in payload:
            arch = Architecture(p=kwargs.get("p", SimScenario.p),
                                q=kwargs["q"])
            raw = payload["true_theta"]
            if not isinstance(raw, list) or len(raw) != arch.r:
                raise DataError(
                    f"{where}: true_theta must be a list of {arch.r} numbers")
            kwargs["true_theta"] = ParamVector(
                arch, _json_floats(raw, "true_theta", where))
        scenario = SimScenario(**kwargs)
        for key in ("lam", "n"):
            for value in axes.get(key, ()):
                replace(scenario, **{key: value})
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
