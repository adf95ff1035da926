"""Model and scenario persistence.

A fitted network is stored as a single JSON document::

    {format_version, p, q, hidden_activation, output_activation,
     theta, lambda, column_meta, response_meta}

Each column record is ``{name, kind, mean, sd, raw, level}``: ``raw``
names the CSV column the model column is read from, and ``level`` is the
factor level an indicator marks (``null`` for a numeric column).  The
activation fields encode the family: ``hidden_activation`` is always
``logistic`` and ``output_activation`` is ``model.FAMILIES[family]``, the
one table of families and their activations.
This is model format version 2.  Version 1 records lacked ``raw`` and
``level``, so they cannot say which CSV column an indicator comes from;
such files are refused with a request to refit.  Scenario files are
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

import json
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DataError
from .likelihood import check_lambda
from .model import FAMILIES, Architecture, ColumnMeta, Dataset, ParamVector
from .simgen import SimScenario

MODEL_FORMAT_VERSION = 2
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
class ModelDocument:
    """A fitted network plus everything needed to re-apply it to data.

    ``arch`` is read from ``theta``, so the document cannot name another
    architecture than its weights have.
    """

    theta: ParamVector
    lam: float
    column_meta: tuple
    response_meta: ColumnMeta

    @property
    def arch(self) -> Architecture:
        return self.theta.arch

    def __post_init__(self):
        if len(self.column_meta) != self.arch.p:
            raise DataError(
                f"model stores {len(self.column_meta)} column records for "
                f"p = {self.arch.p} covariates")


def model_document(fit_result, data: Dataset) -> ModelDocument:
    """Bundle a fit with the dataset's preprocessing metadata."""
    return ModelDocument(theta=fit_result.theta_hat, lam=fit_result.lam,
                         column_meta=tuple(data.column_meta),
                         response_meta=data.response_meta)


def _meta_dict(meta: ColumnMeta) -> dict:
    return {"name": meta.name, "kind": meta.kind,
            "mean": float(meta.mean), "sd": float(meta.sd),
            "raw": meta.raw, "level": meta.level}


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
    try:
        return ColumnMeta(name=name, kind=kind, mean=mean, sd=sd,
                          raw=raw, level=level)
    except ValueError as exc:
        raise DataError(f"{where}: invalid column metadata: {exc}") from exc


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
    if type(version) is int and version == 1:
        raise DataError(
            f"{where}: format_version 1 model files do not record the raw "
            "CSV column and level of each model column; refit the model "
            "with 'statnn fit'")
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
    return ModelDocument(theta=theta, lam=lam, column_meta=column_meta,
                         response_meta=response_meta)


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
