"""CSV ingestion tests: parsing, plans, encoding, metadata round trips."""

import numpy as np
import pytest

from statnn.exceptions import DataError
from statnn.model import ColumnMeta
from statnn.preprocess import (ColumnAction, dataset_from_meta, infer_plan,
                               ingest, read_csv)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = """age,bmi,smoker,charges
19,27.9,yes,16884.92
33,22.7,no,1725.55
28,33.0,no,4449.46
45,25.8,no,7726.85
52,30.8,yes,40904.17
23,34.4,no,1826.84
"""


def test_read_csv_basic(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    assert names == ("age", "bmi", "smoker", "charges")
    assert len(cols) == 4
    assert cols[0][0] == "19"
    assert cols[2][:2] == ["yes", "no"]


def test_read_csv_drops_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + BASIC, encoding="utf-8")
    names, cols = read_csv(str(path))
    assert names == ("age", "bmi", "smoker", "charges")
    assert cols == read_csv(_write(tmp_path, BASIC))[1]


def test_read_csv_strips_whitespace(tmp_path):
    text = "a, b\n 1 , x\n2,  y \n"
    names, cols = read_csv(_write(tmp_path, text))
    assert names == ("a", "b")
    assert cols[0] == ["1", "2"]
    assert cols[1] == ["x", "y"]


def test_read_csv_errors(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        read_csv(_write(tmp_path, "a,a\n1,2\n"))
    with pytest.raises(DataError, match="row 2"):
        read_csv(_write(tmp_path, "a,b\n1,2\n3\n"))
    with pytest.raises(DataError):
        read_csv(_write(tmp_path, ""))
    with pytest.raises(DataError):
        read_csv(_write(tmp_path, "a,b\n"))  # header only, no data rows


def test_missing_values_error_names_location(tmp_path):
    for token in ("", "NA", "nan", "N/A", "null"):
        text = f"a,b\n1,2\n{token},4\n"
        with pytest.raises(DataError) as exc:
            ingest(_write(tmp_path, text, name=f"m{len(token)}.csv"),
                   response="b")
        msg = str(exc.value)
        assert "'a'" in msg and "row 2" in msg


def test_infer_plan_defaults(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    plan = infer_plan(names, cols, response="charges")
    by_name = {a.name: a for a in plan.columns}
    assert by_name["age"].action == "standardize"
    assert by_name["bmi"].action == "standardize"
    assert by_name["smoker"].action == "dummy_encode"
    assert plan.response.action == "standardize"
    assert plan.model_column_names() == ("age", "bmi", "smoker.no")


def test_factor_reference_is_first_observed(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    plan = infer_plan(names, cols, response="charges")
    smoker = next(a for a in plan.columns if a.name == "smoker")
    assert smoker.levels == ("yes", "no")  # "yes" seen first -> reference
    assert smoker.model_columns() == ("smoker.no",)


def test_schema_pins_reference_level(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    schema = {"columns": {"smoker": {"action": "dummy_encode",
                                     "reference": "no"}}}
    plan = infer_plan(names, cols, response="charges", schema=schema)
    smoker = next(a for a in plan.columns if a.name == "smoker")
    assert smoker.levels[0] == "no"
    assert smoker.model_columns() == ("smoker.yes",)


def test_schema_validation(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    with pytest.raises(DataError, match="unknown schema keys"):
        infer_plan(names, cols, "charges", schema={"cols": {}})
    with pytest.raises(DataError, match="not present"):
        infer_plan(names, cols, "charges",
                   schema={"columns": {"height": "standardize"}})
    with pytest.raises(DataError, match="response_action"):
        infer_plan(names, cols, "charges",
                   schema={"columns": {"charges": "standardize"}})
    with pytest.raises(DataError, match="unknown response"):
        infer_plan(names, cols, "weight")


def test_standardization_uses_sample_sd(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    data, plan = ingest(_write(tmp_path, BASIC), response="charges")
    ages = np.array([19, 33, 28, 45, 52, 23], dtype=float)
    want = (ages - ages.mean()) / ages.std(ddof=1)
    np.testing.assert_allclose(data.x[:, 0], want, rtol=1e-12)
    meta = data.column_meta[0]
    assert meta.mean == pytest.approx(ages.mean(), rel=1e-12)
    assert meta.sd == pytest.approx(float(ages.std(ddof=1)), rel=1e-12)
    charges = np.array([16884.92, 1725.55, 4449.46, 7726.85, 40904.17,
                        1826.84])
    want_y = (charges - charges.mean()) / charges.std(ddof=1)
    np.testing.assert_allclose(data.y, want_y, rtol=1e-12)


def test_round_trip_restores_original_units(tmp_path):
    data, _ = ingest(_write(tmp_path, BASIC), response="charges")
    ages = np.array([19, 33, 28, 45, 52, 23], dtype=float)
    meta = data.column_meta[0]
    np.testing.assert_allclose(data.x[:, 0] * meta.sd + meta.mean, ages,
                               atol=1e-10)
    ymeta = data.response_meta
    charges = np.array([16884.92, 1725.55, 4449.46, 7726.85, 40904.17,
                        1826.84])
    np.testing.assert_allclose(data.y * ymeta.sd + ymeta.mean, charges,
                               atol=1e-10)


def test_dummy_encoding_values(tmp_path):
    data, _ = ingest(_write(tmp_path, BASIC), response="charges")
    np.testing.assert_array_equal(data.x[:, 2],
                                  [0.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    meta = data.column_meta[2]
    assert meta.name == "smoker.no"
    assert meta.kind == "dummy"
    assert meta.mean == 0.0 and meta.sd == 1.0


def test_multi_level_factor(tmp_path):
    text = ("region,y\n"
            "sw,1\nnw,2\nse,3\nsw,4\nne,5\nnw,6\n")
    data, plan = ingest(_write(tmp_path, text), response="y")
    assert plan.model_column_names() == ("region.nw", "region.se",
                                         "region.ne")
    np.testing.assert_array_equal(
        data.x, [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                 [0, 0, 0], [0, 0, 1], [1, 0, 0]])


def test_single_level_factor_rejected(tmp_path):
    text = "a,y\nfoo,1\nfoo,2\n"
    with pytest.raises(DataError, match="single"):
        ingest(_write(tmp_path, text), response="y")


def test_binary_numeric_column_passes_through(tmp_path):
    """A 0/1 numeric column is treated as an already-encoded dummy."""
    text = "flag,z,y\n0,1.5,2\n1,2.5,3\n0,0.5,1\n1,3.5,5\n"
    data, plan = ingest(_write(tmp_path, text), response="y")
    flag = next(a for a in plan.columns if a.name == "flag")
    assert flag.action == "passthrough"
    np.testing.assert_array_equal(data.x[:, 0], [0.0, 1.0, 0.0, 1.0])
    assert data.column_meta[0].kind == "dummy"


def test_constant_numeric_column_rejected(tmp_path):
    text = "a,y\n3,1\n3,2\n3,3\n"
    with pytest.raises(DataError, match="variance|variation"):
        ingest(_write(tmp_path, text), response="y")


def test_nonfinite_numeric_cell_rejected(tmp_path):
    text = "a,y\n1,1\ninf,2\n2,3\n"
    with pytest.raises(DataError, match="finite"):
        ingest(_write(tmp_path, text), response="y")


def test_two_level_factor_response(tmp_path):
    text = "x,outcome\n1.0,good\n2.0,bad\n3.0,bad\n1.5,good\n0.5,bad\n"
    data, plan = ingest(_write(tmp_path, text), response="outcome")
    assert plan.response.action == "passthrough"
    assert plan.response.levels == ("good", "bad")
    # level coded 1 ("bad", the non-reference) appears in the meta name
    assert data.response_meta.name == "outcome.bad"
    assert data.response_meta.kind == "dummy"
    np.testing.assert_array_equal(data.y, [0.0, 1.0, 1.0, 0.0, 1.0])


def test_many_level_factor_response_rejected(tmp_path):
    text = "x,outcome\n1,a\n2,b\n3,c\n"
    with pytest.raises(DataError):
        ingest(_write(tmp_path, text), response="outcome")


def test_binary_numeric_response_passthrough(tmp_path):
    text = "x,y\n0.5,0\n1.5,1\n2.5,1\n0.1,0\n"
    data, plan = ingest(_write(tmp_path, text), response="y")
    assert plan.response.action == "passthrough"
    np.testing.assert_array_equal(data.y, [0.0, 1.0, 1.0, 0.0])


def test_schema_response_action_override(tmp_path):
    text = "x,y\n0.5,0\n1.5,1\n2.5,1\n0.1,0\n1.1,1\n"
    data, _ = ingest(_write(tmp_path, text), response="y",
                     schema={"response_action": "standardize"})
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    want = (y - y.mean()) / y.std(ddof=1)
    np.testing.assert_allclose(data.y, want, rtol=1e-12)


def test_plan_trace(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    plan = infer_plan(names, cols, response="charges")
    assert plan.trace("age") == ("age", "standardize")
    assert plan.trace("smoker.no") == ("smoker", "dummy_encode")
    with pytest.raises(KeyError):
        plan.trace("smoker.yes")


def test_action_validation():
    with pytest.raises(ValueError):
        ColumnAction(name="a", action="winsorize")


def test_apply_plan_columns_in_plan_order(tmp_path):
    data, plan = ingest(_write(tmp_path, BASIC), response="charges")
    assert tuple(m.name for m in data.column_meta) == plan.model_column_names()
    assert data.n == 6 and data.p == 3


@pytest.mark.parametrize("text,response,schema", [
    (BASIC, "charges", None),
    ("x,outcome\n1.0,good\n2.0,bad\n3.0,bad\n1.5,good\n0.5,bad\n",
     "outcome", None),
    ("x,flag,y\n0.5,1,0\n1.5,0,1\n2.5,1,1\n0.1,0,0\n", "y", None),
    ("x,count,y\n0.5,3,1.2\n1.5,7,0.4\n2.5,2,2.2\n0.1,5,0.9\n", "y",
     {"columns": {"count": "passthrough"}}),
    (BASIC, "charges",
     {"columns": {"smoker": {"action": "dummy_encode", "reference": "no"}}}),
    ("x,grp.name,has.flag,y.out\n0.5,a.1,0,lo\n1.5,b.2,1,hi\n"
     "2.5,a.1,1,hi\n0.1,c,0,lo\n", "y.out", None),
], ids=["basic", "factor-response", "binary-response", "schema-passthrough",
        "schema-reference", "dotted-names"])
def test_dataset_from_meta_reproduces_training_encoding(tmp_path, text,
                                                        response, schema):
    """Re-reading the same file through stored metadata gives the same
    matrix as the original ingest (training statistics, not refreshed)."""
    path = _write(tmp_path, text)
    data, _ = ingest(path, response=response, schema=schema)
    rebuilt = dataset_from_meta(path, data.column_meta, data.response_meta)
    np.testing.assert_array_equal(rebuilt.x, data.x)
    np.testing.assert_array_equal(rebuilt.y, data.y)
    assert rebuilt.column_meta == data.column_meta
    assert rebuilt.response_meta == data.response_meta


def test_dataset_from_meta_uses_stored_statistics(tmp_path):
    """New data is standardized with the stored mean/sd, not its own."""
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    fresh = ("age,bmi,smoker,charges\n"
             "60,31.0,yes,999.99\n"
             "20,21.0,no,111.11\n")
    test = _write(tmp_path, fresh, name="test.csv")
    rebuilt = dataset_from_meta(test, data.column_meta, data.response_meta)
    age_meta = data.column_meta[0]
    np.testing.assert_allclose(
        rebuilt.x[:, 0],
        (np.array([60.0, 20.0]) - age_meta.mean) / age_meta.sd, rtol=1e-12)
    np.testing.assert_array_equal(rebuilt.x[:, 2], [0.0, 1.0])


def test_dataset_from_meta_missing_column(tmp_path):
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    test = _write(tmp_path, "age,bmi,charges\n30,25.0,100\n40,26.0,200\n",
                  name="test.csv")
    with pytest.raises(DataError, match="smoker"):
        dataset_from_meta(test, data.column_meta, data.response_meta)


def test_dataset_from_meta_unseen_level_encodes_as_reference(tmp_path):
    """Stored metadata records only the levels coded 1, so a value that
    matches none of them is indistinguishable from the reference level
    and takes the all-zero encoding."""
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    test = _write(tmp_path,
                  "age,bmi,smoker,charges\n30,25.0,sometimes,100\n"
                  "40,26.0,no,200\n",
                  name="test.csv")
    rebuilt = dataset_from_meta(test, data.column_meta, data.response_meta)
    np.testing.assert_array_equal(rebuilt.x[:, 2], [0.0, 1.0])


@pytest.mark.parametrize("text,response,clash", [
    ("a,a.b,y\nc,1.5,1\nb,2.5,2\nc,0.5,3\nb,3.5,5\n", "y", "a.b"),
    ("a,a.b,y\nd,1.5,1\nb.x,2.5,2\nd,0.5,3\nb.x,3.5,5\n", "y",
     "a.b.x"),
    ("x,y,y.b\n1.0,a,0\n2.0,b,1\n3.0,b,1\n1.5,a,0\n", "y", "y.b"),
], ids=["raw-column", "raw-column-level", "response"])
def test_model_column_name_must_read_back(tmp_path, text, response, clash):
    """A level's model column named like another raw column (or another
    raw column's level) would be decoded from that column by a stored
    model, so ingest refuses it."""
    with pytest.raises(DataError, match=f"duplicate model column name "
                                        f"'{clash}'"):
        ingest(_write(tmp_path, text), response=response)
