"""Persistence tests: deterministic JSON, bit-exact round trips, atomics."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from statnn.exceptions import DataError
from statnn.model import Architecture, ColumnMeta, ParamVector
from statnn.serialize import (MODEL_FORMAT_VERSION, SCENARIO_FORMAT_VERSION,
                              ModelDocument, atomic_write_text, load_model,
                              load_scenario, model_to_json, parse_model,
                              parse_scenario, parse_study, save_model,
                              save_scenario, scenario_to_json, to_json_text)
from statnn.simgen import SimScenario


def _doc(seed=140, p=2, q=2, lam=0.01):
    rng = np.random.default_rng(seed)
    arch = Architecture(p=p, q=q)
    theta = ParamVector(arch, rng.uniform(-2.0, 2.0, arch.r))
    metas = (ColumnMeta("age", "continuous", 39.2071, 14.04996),
             ColumnMeta("smoker.yes", "dummy", raw="smoker",
                        level="yes"))[:p]
    while len(metas) < p:
        metas = metas + (ColumnMeta(f"x{len(metas) + 1}"),)
    return ModelDocument(theta=theta, lam=lam,
                         column_meta=metas,
                         response_meta=ColumnMeta("charges", "continuous",
                                                  13270.42, 12110.01))


def test_model_json_round_trip_bit_exact():
    """theta survives save -> parse without any change in the final bit."""
    doc = _doc()
    # include values that stress decimal round tripping
    theta = ParamVector(doc.arch, np.array(
        [0.1, 1.0 / 3.0, np.pi, -np.e, 1e-15, 123456.789,
         np.nextafter(1.0, 2.0), -7.25, 0.0][:doc.arch.r]))
    doc = ModelDocument(theta=theta, lam=doc.lam,
                        column_meta=doc.column_meta,
                        response_meta=doc.response_meta)
    back = parse_model(model_to_json(doc))
    np.testing.assert_array_equal(back.theta.values, theta.values)
    assert back.lam == doc.lam
    assert back.column_meta == doc.column_meta
    assert back.response_meta == doc.response_meta
    assert back.arch == doc.arch


def test_model_json_deterministic_and_ordered():
    doc = _doc()
    a = model_to_json(doc)
    b = model_to_json(doc)
    assert a == b
    payload = json.loads(a)
    assert list(payload) == ["format_version", "p", "q", "hidden_activation",
                             "output_activation", "theta", "lambda",
                             "column_meta", "response_meta"]
    assert payload["format_version"] == MODEL_FORMAT_VERSION == 2
    assert payload["column_meta"][1] == {
        "name": "smoker.yes", "kind": "dummy", "mean": 0.0, "sd": 1.0,
        "raw": "smoker", "level": "yes"}
    assert payload["column_meta"][0]["raw"] == "age"
    assert payload["column_meta"][0]["level"] is None
    assert payload["hidden_activation"] == "logistic"
    assert payload["output_activation"] == "identity"
    assert len(payload["theta"]) == doc.arch.r


def test_model_json_seventeen_digit_floats():
    doc = _doc()
    text = model_to_json(doc)
    # every theta entry reparses to the exact double that produced it
    payload = json.loads(text)
    for got, want in zip(payload["theta"], doc.theta.values):
        assert float(got) == want


def test_save_and_load_model(tmp_path):
    doc = _doc()
    path = tmp_path / "model.json"
    save_model(doc, str(path))
    back = load_model(str(path))
    np.testing.assert_array_equal(back.theta.values, doc.theta.values)
    # a second save produces byte-identical content
    first = path.read_bytes()
    save_model(doc, str(path))
    assert path.read_bytes() == first


def test_numpy_scalars_are_written_as_plain_numbers():
    """Counts given as numpy integers write the same bytes as Python ones."""
    doc = _doc()
    arch = Architecture(p=np.int64(2), q=np.int64(2))
    np_doc = replace(doc, theta=ParamVector(arch, doc.theta.values))
    assert model_to_json(np_doc) == model_to_json(doc)
    scen = SimScenario(q=2, nz_pattern="5-1", n=500, seed=42)
    np_scen = replace(scen, q=np.int64(2), n=np.int64(500), seed=np.uint64(42))
    assert scenario_to_json(np_scen) == scenario_to_json(scen)


def test_model_document_family():
    """The family is the architecture's; the file records it as the
    output activation and reads it back."""
    doc = _doc()
    assert parse_model(model_to_json(doc)).arch.family == "gaussian"
    arch = Architecture(p=2, q=1, family="bernoulli")
    logdoc = ModelDocument(theta=ParamVector.zeros(arch), lam=0.0,
                           column_meta=(ColumnMeta("a"), ColumnMeta("b")),
                           response_meta=ColumnMeta("y", "dummy"))
    text = model_to_json(logdoc)
    assert json.loads(text)["output_activation"] == "logistic"
    assert parse_model(text).arch.family == "bernoulli"


def test_model_document_validates_meta_length():
    arch = Architecture(p=3, q=1)
    with pytest.raises(Exception):
        ModelDocument(theta=ParamVector.zeros(arch), lam=0.0,
                      column_meta=(ColumnMeta("a"),),
                      response_meta=ColumnMeta("y"))


def test_parse_model_error_paths():
    good = model_to_json(_doc())
    with pytest.raises(DataError, match="JSON"):
        parse_model(good[:-20])
    with pytest.raises(DataError, match="object"):
        parse_model("[1, 2]")

    def corrupt(**changes):
        payload = json.loads(good)
        payload.update(changes)
        return json.dumps(payload)

    with pytest.raises(DataError, match="format_version"):
        parse_model(corrupt(format_version=99))
    with pytest.raises(DataError):
        parse_model(corrupt(theta=[1.0, 2.0]))  # wrong length
    with pytest.raises(DataError):
        parse_model(corrupt(theta=["x"] * 9))
    with pytest.raises(DataError):
        parse_model(corrupt(q=0))
    for lam in (-1.0, float("inf")):
        with pytest.raises(DataError, match="^model: ridge penalty must be "
                                            "finite and nonnegative"):
            parse_model(corrupt(**{"lambda": lam}))
    with pytest.raises(DataError,
                       match="invalid architecture: unsupported output "
                             "activation 'relu'"):
        parse_model(corrupt(output_activation="relu"))
    with pytest.raises(DataError,
                       match="invalid architecture: unsupported hidden "
                             "activation 'tanh'"):
        parse_model(corrupt(hidden_activation="tanh"))
    missing = json.loads(good)
    del missing["theta"]
    with pytest.raises(DataError, match="theta"):
        parse_model(json.dumps(missing))
    for field, value in [("p", 1.0), ("q", True), ("q", None),
                         ("format_version", 1.0), ("lambda", "0.1"),
                         ("lambda", None)]:
        with pytest.raises(DataError, match=field):
            parse_model(corrupt(**{field: value}))
    with pytest.raises(DataError, match=r"theta\[1\]"):
        parse_model(corrupt(theta=[0.0, True] + [0.0] * 7))
    meta = json.loads(good)
    meta["column_meta"][0]["sd"] = "2"
    with pytest.raises(DataError, match="sd of column"):
        parse_model(json.dumps(meta))


@pytest.mark.parametrize("field,value,match", [
    ("raw", None, "raw of column 'smoker.yes' must be a string"),
    ("raw", 3, "raw of column 'smoker.yes' must be a string"),
    ("level", 1, "level of column 'smoker.yes' must be a string or null"),
    ("level", ["yes"], "level of column 'smoker.yes' must be a string or "
                       "null"),
    ("name", 3, "column name must be a string, got 3"),
    ("kind", None, "kind of column 'smoker.yes' must be a string, got None"),
    ("kind", ["dummy"], "kind of column 'smoker.yes' must be a string"),
])
def test_parse_model_refuses_bad_column_source(field, value, match):
    payload = json.loads(model_to_json(_doc()))
    payload["column_meta"][1][field] = value
    with pytest.raises(DataError, match=match):
        parse_model(json.dumps(payload))
    del payload["column_meta"][1][field]
    with pytest.raises(DataError, match=f"missing required field '{field}'"):
        parse_model(json.dumps(payload))


@pytest.mark.parametrize("value", [None, ["logistic"], 3])
@pytest.mark.parametrize("field", ["hidden_activation", "output_activation",
                                   "nz_pattern"])
def test_non_string_fields_refused(field, value):
    """A model's activations and a scenario's nz_pattern must be JSON
    strings, like every other text field, not coerced with str()."""
    if field == "nz_pattern":
        text, parse = scenario_to_json(SimScenario(q=2, nz_pattern="5-1",
                                                   n=100)), parse_study
    else:
        text, parse = model_to_json(_doc()), parse_model
    payload = json.loads(text)
    payload[field] = value
    with pytest.raises(DataError) as err:
        parse(json.dumps(payload), "f.json")
    assert str(err.value) == f"f.json: {field} must be a string, got {value!r}"


def test_parse_model_refuses_level_on_continuous_column():
    payload = json.loads(model_to_json(_doc()))
    payload["column_meta"][0]["level"] = "old"
    with pytest.raises(DataError, match="invalid column metadata"):
        parse_model(json.dumps(payload))


def test_parse_model_refuses_version_1_with_refit_message():
    """A version 1 record names no raw column, so it cannot be read
    unambiguously; the refusal says to refit."""
    payload = json.loads(model_to_json(_doc()))
    payload["format_version"] = 1
    for meta in payload["column_meta"] + [payload["response_meta"]]:
        del meta["raw"], meta["level"]
    with pytest.raises(DataError, match="format_version 1 .*refit"):
        parse_model(json.dumps(payload), where="old.json")


def test_parse_model_where_prefix():
    with pytest.raises(DataError, match="^mymodel.json:"):
        parse_model("{", where="mymodel.json")


def test_non_finite_floats_refused():
    doc = _doc()
    theta = ParamVector(doc.arch, np.zeros(doc.arch.r))
    values = theta.values.copy()
    values[0] = np.inf
    bad = ModelDocument(theta=ParamVector(doc.arch, values), lam=doc.lam,
                        column_meta=doc.column_meta,
                        response_meta=doc.response_meta)
    with pytest.raises(ValueError):
        model_to_json(bad)


def test_atomic_write_replaces_not_truncates(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(str(path), "new content")
    assert path.read_text() == "new content"
    # no stray temporary files left behind
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_cleans_up_on_failure(tmp_path):
    target = tmp_path / "sub" / "out.txt"  # parent does not exist
    with pytest.raises(OSError):
        atomic_write_text(str(target), "content")
    assert os.listdir(tmp_path) == []


def test_scenario_round_trip():
    scen = SimScenario(q=2, nz_pattern="5-1", n=500, replicates=50,
                       restarts=5, seed=42, lam=0.02, noise_sd=1.5)
    back = parse_scenario(scenario_to_json(scen))
    assert back == scen


def test_scenario_round_trip_with_truth():
    """q = 3 has no default truth, so the file's own must go in when the
    scenario is built."""
    arch = Architecture(p=6, q=3)
    rng = np.random.default_rng(141)
    truth = ParamVector(arch, rng.uniform(-3, 3, arch.r))
    scen = SimScenario(q=3, nz_pattern="3-3", n=100, true_theta=truth)
    back = parse_scenario(scenario_to_json(scen))
    np.testing.assert_array_equal(back.true_theta.values, truth.values)
    assert back.q == 3 and back.nz_pattern == "3-3"


def test_scenario_file_round_trip(tmp_path):
    scen = SimScenario(q=4, nz_pattern="3-3", n=250, seed=9)
    path = tmp_path / "scenario.json"
    save_scenario(scen, str(path))
    assert load_scenario(str(path)) == scen


def test_parse_scenario_validation():
    good = scenario_to_json(SimScenario(q=2, nz_pattern="5-1", n=100))

    def corrupt(**changes):
        payload = json.loads(good)
        payload.update(changes)
        return json.dumps(payload)

    with pytest.raises(DataError, match="unknown fields"):
        parse_scenario(corrupt(extra=1))
    with pytest.raises(DataError, match="nz_pattern|invalid"):
        parse_scenario(corrupt(nz_pattern="9-9"))
    assert json.loads(good)["format_version"] == SCENARIO_FORMAT_VERSION == 1
    with pytest.raises(DataError, match="format_version"):
        parse_scenario(corrupt(format_version=2))
    missing = json.loads(good)
    del missing["q"]
    with pytest.raises(DataError, match="q"):
        parse_scenario(json.dumps(missing))
    with pytest.raises(DataError, match="true_theta"):
        parse_scenario(corrupt(true_theta=[1.0, 2.0]))
    with pytest.raises(DataError, match="^q3.json: invalid scenario: "
                                        "default truth is defined for q"):
        parse_scenario(corrupt(q=3), where="q3.json")
    # integer fields take JSON integers only; float fields take numbers
    for field, value in [("q", 2.7), ("q", None), ("p", None),
                         ("seed", True), ("n", "100"),
                         ("format_version", True), ("lambda", "0.01"),
                         ("noise_sd", False), ("lambda", 10 ** 400)]:
        with pytest.raises(DataError, match=field):
            parse_scenario(corrupt(**{field: value}))
    arch_r = (6 + 2) * 2 + 1
    with pytest.raises(DataError, match=r"true_theta\[3\]"):
        parse_scenario(corrupt(true_theta=[0.0] * 3 + [None]
                               + [0.0] * (arch_r - 4)))
    assert parse_scenario(corrupt(noise_sd=2)).noise_sd == 2.0
    # json.loads reads the token Infinity: refused by name here, not deep
    # inside a replicate's data
    with pytest.raises(DataError,
                       match="noise_sd must be finite and positive"):
        parse_scenario(corrupt(noise_sd=float("inf")))


def test_parse_study_grid_axes():
    """Lists become run_grid axes; their first value stands in the
    scenario, and a single-cell file has no axes."""
    single = scenario_to_json(SimScenario(q=2, nz_pattern="5-1", n=100))
    assert parse_study(single) == (parse_scenario(single), {})
    payload = dict(json.loads(single), n=[100, 200], **{"lambda": [0, 0.1]})
    scenario, axes = parse_study(json.dumps(payload))
    assert axes == {"n": (100, 200), "lam": (0.0, 0.1)}
    assert (scenario.n, scenario.lam) == (100, 0.0)
    payload = dict(json.loads(single), effect=[0, -0.25])
    scenario, axes = parse_study(json.dumps(payload))
    assert axes == {"effect": (0.0, -0.25)} and scenario.n == 100
    with pytest.raises(DataError, match="make a grid"):
        parse_scenario(json.dumps(payload))


def test_to_json_text_value_coverage():
    text = to_json_text({"a": True, "b": 3, "c": -0.5, "d": "s",
                         "e": [1, 2], "f": None, "g": {"h": 1}})
    payload = json.loads(text)
    assert payload == {"a": True, "b": 3, "c": -0.5, "d": "s",
                       "e": [1, 2], "f": None, "g": {"h": 1}}
    # booleans must not degrade to integers
    assert '"a": true' in text
    # floats are written by repr: the shortest text of the same double
    assert to_json_text([18.563, 0.1]) == "[\n  18.563,\n  0.1\n]\n"
    with pytest.raises(ValueError):
        to_json_text({"x": float("nan")})
