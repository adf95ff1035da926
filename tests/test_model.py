"""Architecture, parameter layout, and forward-map tests."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import numpy as np
import pytest

import statnn
from statnn.exceptions import DataError, ShapeError
from statnn.model import (FAMILIES, Architecture, ColumnMeta, Dataset,
                          ParamVector, design_with_intercept, forward_batch,
                          sigmoid)


def _random_theta(arch, rng, scale=1.0):
    return ParamVector(arch, rng.uniform(-scale, scale, arch.r))


def test_parameter_count():
    for p, q in [(1, 1), (3, 2), (6, 4), (8, 2)]:
        assert Architecture(p=p, q=q).r == (p + 2) * q + 1


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture(p=0, q=1)
    with pytest.raises(ValueError):
        Architecture(p=1, q=0)
    with pytest.raises(ValueError, match="family"):
        Architecture(p=1, q=1, family="poisson")


def test_flatten_restructure_identity():
    arch = Architecture(p=4, q=3)
    rng = np.random.default_rng(0)
    theta = _random_theta(arch, rng)
    rebuilt = ParamVector.from_parts(arch, *arch.split(theta.values))
    np.testing.assert_array_equal(rebuilt.values, theta.values)


def test_param_vector_is_theta_and_its_architecture():
    """theta is read through ``arch.split`` and the index helpers and
    built with ``from_parts`` or from a flat array: ``ParamVector`` has
    no accessor of its own."""
    theta = ParamVector(Architecture(p=2, q=1), np.zeros(5))
    public = {name for name in dir(theta) if not name.startswith("_")}
    assert public == {"arch", "values", "from_parts"}


def test_index_layout():
    """omega blocks come first, ordered by input index, then gamma."""
    arch = Architecture(p=2, q=3)
    assert arch.omega_index(0, 1) == 0
    assert arch.omega_index(0, 3) == 2
    assert arch.omega_index(1, 1) == 3
    assert arch.omega_index(2, 3) == 8
    assert arch.gamma_index(0) == 9
    assert arch.gamma_index(3) == 12


def test_penalized_mask_excludes_intercepts():
    arch = Architecture(p=3, q=2)
    mask = arch.penalized_mask()
    assert mask.sum() == arch.r - arch.q - 1
    for k in range(1, arch.q + 1):
        assert not mask[arch.omega_index(0, k)]
    assert not mask[arch.gamma_index(0)]
    for j in range(1, arch.p + 1):
        for k in range(1, arch.q + 1):
            assert mask[arch.omega_index(j, k)]


def _predict(theta, row):
    """The prediction at one covariate row, through ``forward_batch``."""
    return forward_batch(theta, Dataset(x=np.array([row], dtype=float),
                                        y=np.zeros(1)))[0]


def _network_by_loop(theta, row):
    """The network at one covariate row, written out unit by unit."""
    arch = theta.arch
    out = theta.values[arch.gamma_index(0)]
    for k in range(1, arch.q + 1):
        s = theta.values[arch.omega_index(0, k)]
        for j in range(1, arch.p + 1):
            s += theta.values[arch.omega_index(j, k)] * row[j - 1]
        out += theta.values[arch.gamma_index(k)] / (1.0 + np.exp(-s))
    return out


def test_forward_zero_theta():
    arch = Architecture(p=1, q=1)
    assert _predict(ParamVector(arch, np.zeros(arch.r)), [5.0]) == 0.0


def test_forward_disconnected_hidden_layer():
    arch = Architecture(p=1, q=1)
    theta = ParamVector.from_parts(arch, np.zeros((2, 1)),
                                   np.array([1.0, 0.0]))
    assert _predict(theta, [3.7]) == 1.0


def test_forward_scalar_value():
    """gamma_1 * sigmoid(omega_11 * x) at x = 1: 2 sigma(1) = 1.4621171573."""
    arch = Architecture(p=1, q=1)
    theta = ParamVector.from_parts(arch, np.array([[0.0], [1.0]]),
                                   np.array([0.0, 2.0]))
    got = _predict(theta, [1.0])
    assert abs(got - 1.4621171572600098) < 1e-12


def test_forward_batch_matches_loop():
    rng = np.random.default_rng(1)
    arch = Architecture(p=3, q=2)
    theta = _random_theta(arch, rng)
    x = rng.normal(size=(4, 3))
    data = Dataset(x=x, y=np.zeros(4))
    batch = forward_batch(theta, data)
    for i in range(4):
        # matrix and per-row evaluation may differ in summation order
        assert batch[i] == pytest.approx(_network_by_loop(theta, x[i]),
                                         rel=1e-13, abs=1e-13)


def test_forward_batch_identical_rows():
    arch = Architecture(p=2, q=2)
    theta = _random_theta(arch, np.random.default_rng(2))
    x = np.tile([0.3, -1.2], (3, 1))
    out = forward_batch(theta, Dataset(x=x, y=np.zeros(3)))
    assert out[0] == out[1] == out[2]


def test_logistic_output_in_unit_interval():
    rng = np.random.default_rng(3)
    arch = Architecture(p=2, q=2, family="bernoulli")
    theta = _random_theta(arch, rng, scale=50.0)
    x = rng.normal(size=(20, 2)) * 10
    out = forward_batch(theta, Dataset(x=x, y=np.zeros(20)))
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_identity_output_monotone_in_gamma0():
    rng = np.random.default_rng(4)
    arch = Architecture(p=2, q=3)
    theta = _random_theta(arch, rng)
    x = np.array([0.5, -0.7])
    base = _predict(theta, x)
    values = theta.values.copy()
    values[arch.gamma_index(0)] += 0.25
    shifted = _predict(ParamVector(arch, values), x)
    assert shifted - base == pytest.approx(0.25, abs=1e-12)


def test_forward_dimension_errors():
    arch = Architecture(p=2, q=1)
    theta = ParamVector(arch, np.zeros(arch.r))
    with pytest.raises(ShapeError):
        _predict(theta, [1.0])
    with pytest.raises(ShapeError):
        ParamVector(arch, np.zeros(arch.r + 1))
    with pytest.raises(DataError):
        _predict(theta, [np.nan, 0.0])


def test_sigmoid_stability_and_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    # branch form agrees with the naive formula in the safe region
    s = np.linspace(-20, 20, 41)
    np.testing.assert_allclose(sigmoid(s), 1.0 / (1.0 + np.exp(-s)),
                               rtol=1e-15)



def _two_branch_sigmoid(s):
    """The masked two-branch form: 1/(1+exp(-s)) at s >= 0, else
    exp(s)/(1+exp(s))."""
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def test_sigmoid_bitwise_equals_two_branch_form():
    special = [np.inf, -np.inf, 0.0, -0.0, 709.0, -709.0, -745.0]
    s = np.concatenate([special, np.random.default_rng(9).uniform(
        -800.0, 800.0, 100_000)])
    got, want = sigmoid(s), _two_branch_sigmoid(s)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    buf = np.empty_like(s)
    assert sigmoid(s, out=buf) is buf and buf.tobytes() == want.tobytes()
    # In place, as the partial-effect kernel calls it, and on a 3-d block.
    c = s.copy()
    assert sigmoid(c, out=c) is c and c.tobytes() == want.tobytes()
    block = s[7:].reshape(100, 50, 20)
    assert sigmoid(block).tobytes() == _two_branch_sigmoid(block).tobytes()
    c = block.copy()
    assert sigmoid(c, out=c) is c and c.tobytes() == want[7:].tobytes()
    for v in special:
        out = sigmoid(np.float64(v))
        assert type(out) is float
        assert np.array([out]).tobytes() == _two_branch_sigmoid(
            np.array([v])).tobytes()
    assert type(sigmoid(np.array(3.0))) is float

def test_covariate_block_picks_omega_block():
    arch = Architecture(p=2, q=2)
    theta = _random_theta(arch, np.random.default_rng(5))
    assert arch.covariate_block(1) == slice(2, 4)
    assert arch.covariate_block(2) == slice(4, 6)
    for j in (1, 2):
        expected = [theta.values[arch.omega_index(j, k)]
                    for k in range(1, arch.q + 1)]
        np.testing.assert_array_equal(
            theta.values[arch.covariate_block(j)], expected)


def test_covariate_block_larger_net_matches_loop():
    """The blocks of covariates 1..p tile theta between the hidden
    intercepts and gamma, each holding omega_j1..omega_jq in order."""
    arch = Architecture(p=6, q=4)
    theta = _random_theta(arch, np.random.default_rng(6))
    for j in range(1, arch.p + 1):
        block = arch.covariate_block(j)
        by_loop = np.array([theta.values[arch.omega_index(j, k)]
                            for k in range(1, arch.q + 1)])
        np.testing.assert_array_equal(theta.values[block], by_loop)
    covered = np.concatenate([np.arange(arch.r)[arch.covariate_block(j)]
                              for j in range(1, arch.p + 1)])
    np.testing.assert_array_equal(
        covered, np.arange(arch.q, arch.gamma_index(0)))


def test_covariate_block_refuses_intercept_and_past_p():
    arch = Architecture(p=2, q=2)
    message = (r"^covariate index must be in 1\.\.2 \(intercepts are not "
               r"testable\), got {}$")
    for j in (0, 3):
        with pytest.raises(IndexError, match=message.format(j)):
            arch.covariate_block(j)


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(x=np.array([[np.inf]]), y=np.array([1.0]))
    with pytest.raises(ShapeError):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(2))
    with pytest.raises(DataError):
        Dataset(x=np.array([[0.5]]), y=np.array([0.0]),
                column_meta=(ColumnMeta("z", kind="dummy"),))


def test_column_meta_source():
    """A column is read from its own name unless a raw column is given;
    only an indicator may carry a level."""
    assert ColumnMeta("age").raw == "age"
    assert ColumnMeta("age") == ColumnMeta("age", raw="age")
    level = ColumnMeta("a.b", kind="dummy", raw="a", level="b")
    assert (level.raw, level.level) == ("a", "b")
    assert ColumnMeta("a.b", kind="dummy").level is None
    with pytest.raises(ValueError, match="level"):
        ColumnMeta("a.b", raw="a", level="b")


def test_column_meta_scale_map():
    """A record maps CSV units to model units and back; a passthrough or
    dummy map is the identity, and an unusable map is refused."""
    cm = ColumnMeta("age", mean=40.0, sd=8.0)
    v = np.array([24.0, 40.0, 61.0])
    np.testing.assert_array_equal(cm.to_model(v), (v - 40.0) / 8.0)
    np.testing.assert_array_equal(cm.to_original(cm.to_model(v)), v)
    assert not cm.identity
    assert ColumnMeta("x4").identity and ColumnMeta("f", kind="dummy").identity
    for mean, sd in ((0.0, 0.0), (0.0, -2.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(DataError, match="'age' has an unusable scale"):
            ColumnMeta("age", mean=mean, sd=sd)
    for mean, sd in ((0.5, 1.0), (0.0, 2.0)):
        with pytest.raises(DataError, match="dummy column 'f' must have"):
            ColumnMeta("f", kind="dummy", mean=mean, sd=sd)


def test_dataset_immutability():
    data = Dataset(x=np.array([[1.0, 2.0]]), y=np.array([3.0]))
    with pytest.raises(ValueError):
        data.x[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.y[0] = 9.0


def test_design_with_intercept():
    x = np.array([[2.0, 3.0], [4.0, 5.0]])
    x1 = design_with_intercept(x)
    np.testing.assert_array_equal(x1[:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(x1[:, 1:], x)



#: Parameters that carry an architecture, by annotation or by name:
#: theta itself and the records built around one.
_CARRIES_ARCH = {"ParamVector", "FitResult", "ModelDocument", "theta",
                 "theta_hat", "fit_result", "doc"}
#: ``summarize`` keeps its ``arch`` parameter for existing positional
#: callers; it refuses one unlike ``fit_result.theta_hat.arch``.
_ARCH_BESIDE_THETA_ALLOWED = {"statnn.inference.summarize"}


def _package_callables():
    """Every function and class defined in the package, with the
    functions defined in those classes, by qualified name."""
    for info in pkgutil.iter_modules(statnn.__path__):
        module = importlib.import_module(f"statnn.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
                for attr in vars(obj).values():
                    attr = getattr(attr, "__func__", attr)
                    if inspect.isfunction(attr):
                        yield f"{module.__name__}.{attr.__qualname__}", attr


def _labels(param):
    """A parameter's name and the type names in its annotation."""
    ann = param.annotation
    text = "" if ann is inspect.Parameter.empty else str(ann)
    return {param.name} | {part.strip() for part in text.split("|")}


def test_no_callable_takes_an_architecture_beside_theta():
    """Whatever takes theta, a fit or a model document reads p, q and
    the family from it; nothing also takes a separate architecture that
    could disagree with it."""
    offenders = []
    for name, obj in _package_callables():
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:          # exception classes have none
            continue
        labels = set().union(*map(_labels, params))
        if ({"arch", "Architecture"} & labels and _CARRIES_ARCH & labels
                and name not in _ARCH_BESIDE_THETA_ALLOWED):
            offenders.append(name)
    assert offenders == []


#: The records that define a shape, and the Monte Carlo truth built
#: from one before any theta exists.
_P_AND_Q_ALLOWED = {"statnn.model.Architecture", "statnn.simgen.SimScenario",
                    "statnn.simgen.default_true_theta"}


def test_no_callable_takes_p_and_q():
    """The layout of theta is ``Architecture``'s: a kernel takes the
    architecture (or theta), not a loose p and q to recompute offsets
    from."""
    offenders = []
    for name, obj in _package_callables():
        try:
            params = inspect.signature(obj).parameters
        except ValueError:          # exception classes have none
            continue
        if ({"p", "q"} <= params.keys()
                and name.removesuffix(".__init__") not in _P_AND_Q_ALLOWED):
            offenders.append(name)
    assert offenders == []


@pytest.mark.parametrize("p, q", [(1, 1), (3, 2), (2, 4)])
def test_split_join_round_trip_matches_index_map(p, q):
    """``split`` puts omega_jk at W[j, k-1] and gamma_k at g[k], as
    ``omega_index`` and ``gamma_index`` number them, on the last axis
    with leading axes riding along; its views write through, and
    ``join`` inverts it."""
    arch = Architecture(p=p, q=q)
    values = np.random.default_rng(p * 10 + q).normal(size=(2, 3, arch.r))
    w, g = arch.split(values)
    assert w.shape == (2, 3, p + 1, q) and g.shape == (2, 3, q + 1)
    for j in range(p + 1):
        for k in range(1, q + 1):
            np.testing.assert_array_equal(
                w[..., j, k - 1], values[..., arch.omega_index(j, k)])
    for k in range(q + 1):
        np.testing.assert_array_equal(g[..., k],
                                      values[..., arch.gamma_index(k)])
    np.testing.assert_array_equal(arch.join(w, g), values)
    assert np.shares_memory(w, values) and np.shares_memory(g, values)
    theta = values[1, 2]
    w1, g1 = arch.split(theta)
    np.testing.assert_array_equal(arch.join(w1, g1), theta)
    w1[p, q - 1] = g1[q] = 7.0
    assert theta[arch.omega_index(p, q)] == theta[arch.gamma_index(q)] == 7.0
    # the rows of an r x r matrix split through its transpose
    c = np.arange(arch.r * arch.r, dtype=float).reshape(arch.r, arch.r)
    rows_w, rows_g = arch.split(c.T)
    np.testing.assert_array_equal(rows_w[:, p, q - 1],
                                  c[arch.omega_index(p, q)])
    np.testing.assert_array_equal(rows_g[:, 0], c[arch.gamma_index(0)])


#: Each family's inverse link and unit-scale log-likelihood in the
#: output net input z, written out here: an oracle for the architecture's
#: ``mean`` and ``variance``, which a new family must extend.
_CANONICAL_ORACLE = {
    "gaussian": (lambda z: z, lambda y, z: -0.5 * (y - z) ** 2),
    "bernoulli": (lambda z: 1.0 / (1.0 + np.exp(-z)),
                  lambda y, z: y * z - np.log1p(np.exp(z))),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_canonical_link_members_match_an_oracle(family):
    """With a canonical link, V(mu(z)) = dmu/dz and dl/dz = y - mu: both
    checked by central differences, l and mu from the oracle above."""
    mean, loglik = _CANONICAL_ORACLE[family]
    arch = Architecture(p=1, q=1, family=family)
    z = np.linspace(-4.0, 4.0, 17)
    y = (np.arange(17) % 2).astype(float)
    h = 1e-5
    mu = arch.mean(z.copy())
    np.testing.assert_allclose(mu, mean(z), rtol=1e-14, atol=1e-15)
    v = arch.variance(mu)
    dmu = (mean(z + h) - mean(z - h)) / (2.0 * h)
    np.testing.assert_allclose(np.ones_like(z) if v is None else v, dmu,
                               rtol=1e-8, atol=1e-10)
    dl = (loglik(y, z + h) - loglik(y, z - h)) / (2.0 * h)
    np.testing.assert_allclose(y - mu, dl, rtol=1e-7, atol=1e-9)


def test_check_response_names_the_column_row_and_value():
    data = Dataset(x=np.zeros((4, 1)), y=np.array([0.0, 1.0, 2.5, 0.5]),
                   response_meta=ColumnMeta("smoker"))
    Architecture(p=1, q=1).check_response(data)
    with pytest.raises(DataError,
                       match=r"'smoker' must be 0/1 .* row 3 holds 2\.5"):
        Architecture(p=1, q=1, family="bernoulli").check_response(data)


def _family_comparisons(tree, families):
    """Line numbers of comparisons one of whose operands is a family: a
    name or attribute called ``family``, or a family's string."""
    def is_family(node):
        return ((isinstance(node, ast.Name) and node.id == "family")
                or (isinstance(node, ast.Attribute) and node.attr == "family")
                or (isinstance(node, ast.Constant) and node.value in families))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(map(is_family, [node.left, *node.comparators]))]


def test_only_the_model_compares_families():
    """``Architecture`` is the one reader of the response family: every
    other module asks it for the mean, the variance function, whether
    sigma^2 is profiled and the response check, and compares no family
    string itself."""
    offenders = {}
    for path in pathlib.Path(statnn.__path__[0]).glob("*.py"):
        if path.name != "model.py":
            lines = _family_comparisons(ast.parse(path.read_text()), FAMILIES)
            if lines:
                offenders[path.name] = lines
    assert offenders == {}
    assert _family_comparisons(ast.parse("arch.family == 'bernoulli'"), ())
    assert _family_comparisons(ast.parse("'gaussian' != f"), FAMILIES)
