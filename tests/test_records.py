"""What the package's records keep: their fields in order, construction by
position and by keyword, defaults, validation, immutability, equality,
hashing, repr, pickling and their nested dict."""

import copy
import inspect
import json
import math
import pickle

import pytest

from zipfent.bound import ChainDiagnostics, EntropyValue, InequalityResult
from zipfent.corpus import TokenizerConfig
from zipfent.fit import PowerLawFit
from zipfent.spectrum import FreqSpectrum
from zipfent.synth import SweepRow, SyntheticSpec, sweep_csv

NO_DEFAULT = inspect.Parameter.empty

CHAIN = ChainDiagnostics(
    InequalityResult(0.0, True), InequalityResult(-1.5, False), InequalityResult(2.0, True),
    InequalityResult(0.25, True), 1e-9,
)

# each record's fields in order, with their defaults, and one value per field
RECORDS = {
    EntropyValue: ({"nats": NO_DEFAULT, "bits": NO_DEFAULT}, (1.0, 1.4426950408889634)),
    InequalityResult: ({"slack": NO_DEFAULT, "ok": NO_DEFAULT}, (0.5, True)),
    ChainDiagnostics: (
        dict.fromkeys(["sandwich_lower", "sandwich_upper", "n_bound", "ratio", "tolerance"], NO_DEFAULT),
        (CHAIN.sandwich_lower, CHAIN.sandwich_upper, CHAIN.n_bound, CHAIN.ratio, 1e-9),
    ),
    TokenizerConfig: (
        {"lowercase": True, "min_token_length": 1, "token_rule": "unicode_words"}, (False, 2, "whitespace"),
    ),
    PowerLawFit: (
        dict.fromkeys(["a", "b", "rmse", "points_used", "k_min", "k_max"], NO_DEFAULT),
        (1.25, 3.5, 0.01, 5, 1, 9),
    ),
    FreqSpectrum: (dict.fromkeys(["points", "total_tokens", "max_k"], NO_DEFAULT), ({1: 2, 2: 1}, 4, 2)),
    SyntheticSpec: ({"a": NO_DEFAULT, "b": NO_DEFAULT, "mode": "rounded_integer", "k_cap": None},
                    (1.5, 4.0, "exact_real", 10)),
    SweepRow: (
        {"a": NO_DEFAULT, "b": NO_DEFAULT, **dict.fromkeys(
            ["n_tokens", "max_k", "entropy_nats", "bound_nats", "margin_nats", "sandwich_lo", "sandwich_hi",
             "n_bound", "ratio", "error"])},
        (1.0, 4.0, 120.5, 54, 3.0, 4.0, 1.0, 0.0, -0.0, 0.5, 0.125, None),
    ),
}
HASHABLE = [cls for cls in RECORDS if cls is not FreqSpectrum]


def make(cls):
    return cls(*RECORDS[cls][1])


@pytest.mark.parametrize("cls", RECORDS)
def test_the_constructor_takes_the_fields_in_order_with_their_defaults(cls):
    fields, _ = RECORDS[cls]
    params = inspect.signature(cls).parameters
    assert {name: p.default for name, p in params.items()} == fields
    assert list(params) == list(fields)
    assert cls.__match_args__ == tuple(fields)


@pytest.mark.parametrize("cls", RECORDS)
def test_construction_by_position_equals_construction_by_keyword(cls):
    fields, values = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in fields] == list(values)
    assert by_position.__dict__ == dict(zip(fields, values))


@pytest.mark.parametrize("cls", RECORDS)
def test_missing_extra_and_repeated_arguments_are_type_errors(cls):
    fields, values = RECORDS[cls]
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError, match="no_such_field"):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{next(iter(fields)): values[0]})
    if cls is not TokenizerConfig:  # the only record whose every field has a default
        with pytest.raises(TypeError, match="missing"):
            cls()


def test_defaults():
    assert SweepRow(1.0, 2.0) == SweepRow(1.0, 2.0, *[None] * 10)
    assert SweepRow(a=1.0, b=2.0, error="refused").n_tokens is None
    assert SyntheticSpec(1.0, 2.0) == SyntheticSpec(1.0, 2.0, "rounded_integer", None)
    assert TokenizerConfig() == TokenizerConfig(True, 1, "unicode_words")
    assert TokenizerConfig(min_token_length=3) == TokenizerConfig(True, 3, "unicode_words")


@pytest.mark.parametrize("make_bad, message", [
    (lambda: SyntheticSpec(0.5, 1.0), "slope a must be >= 1"),
    (lambda: SyntheticSpec(a=1.0, b=-1.0), "intercept b must be >= 0"),
    (lambda: SyntheticSpec(1.0, 1.0, "exact"), "mode must be one of"),
    (lambda: SyntheticSpec(1.0, 1.0, k_cap=0), "k_cap must be >= 1"),
    (lambda: TokenizerConfig(True, 0), "min_token_length must be >= 1"),
    (lambda: TokenizerConfig(token_rule="bytes"), "token_rule must be one of"),
])
def test_post_init_refusals_are_value_errors(make_bad, message):
    with pytest.raises(ValueError, match=message):
        make_bad()


@pytest.mark.parametrize("cls", RECORDS)
def test_assigning_or_deleting_an_attribute_is_an_attribute_error(cls):
    record = make(cls)
    field = cls.__match_args__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = None
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert getattr(record, field) is before
    assert not hasattr(record, "other")


@pytest.mark.parametrize("cls", RECORDS)
def test_records_equal_only_records_of_the_same_class_with_equal_fields(cls):
    _, values = RECORDS[cls]
    record = make(cls)
    assert record == cls(*copy.deepcopy(values))
    assert record != values
    # a last field that differs, and still passes the checks of SyntheticSpec and TokenizerConfig
    other = {SyntheticSpec: 11, TokenizerConfig: "unicode_words"}.get(cls, "other")
    assert record != cls(*values[:-1], other)

    class Sub(cls):
        pass

    assert Sub(*values) != record
    assert type(Sub(*values)) is Sub and Sub.__match_args__ == cls.__match_args__


def test_records_with_equal_values_of_other_classes_differ():
    assert EntropyValue(1.0, 0.5) != InequalityResult(1.0, 0.5)
    assert EntropyValue(1.0, 0.5) != (1.0, 0.5)


@pytest.mark.parametrize("cls", HASHABLE)
def test_equal_records_hash_equal(cls):
    _, values = RECORDS[cls]
    assert hash(make(cls)) == hash(cls(*copy.deepcopy(values))) == hash(values)
    assert len({make(cls), make(cls)}) == 1


def test_a_record_holding_a_dict_is_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(make(FreqSpectrum))


def test_repr():
    assert repr(EntropyValue.from_nats(1.0)) == "EntropyValue(nats=1.0, bits=1.4426950408889634)"
    assert repr(SweepRow(1.0, -1.0, error="no")) == (
        "SweepRow(a=1.0, b=-1.0, n_tokens=None, max_k=None, entropy_nats=None, bound_nats=None,"
        " margin_nats=None, sandwich_lo=None, sandwich_hi=None, n_bound=None, ratio=None, error='no')"
    )
    assert repr(CHAIN) == (
        "ChainDiagnostics(sandwich_lower=InequalityResult(slack=0.0, ok=True),"
        " sandwich_upper=InequalityResult(slack=-1.5, ok=False),"
        " n_bound=InequalityResult(slack=2.0, ok=True),"
        " ratio=InequalityResult(slack=0.25, ok=True), tolerance=1e-09)"
    )
    assert repr(TokenizerConfig()) == "TokenizerConfig(lowercase=True, min_token_length=1, token_rule='unicode_words')"


@pytest.mark.parametrize("cls", RECORDS)
@pytest.mark.parametrize("protocol", [0, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trip(cls, protocol):
    record = make(cls)
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is cls and back == record and back is not record
    assert repr(back) == repr(record)


@pytest.mark.parametrize("cls", RECORDS)
def test_deepcopy_and_copy_round_trip(cls):
    record = make(cls)
    deep, shallow = copy.deepcopy(record), copy.copy(record)
    assert type(deep) is type(shallow) is cls
    assert deep == shallow == record
    first = cls.__match_args__[0]
    assert getattr(shallow, first) is getattr(record, first)
    if isinstance(getattr(record, first), dict):
        assert getattr(deep, first) is not getattr(record, first)


def test_records_destructure_in_match_statements():
    match CHAIN:
        case ChainDiagnostics(InequalityResult(lo, True), InequalityResult(hi, False), tolerance=tol):
            assert (lo, hi, tol) == (0.0, -1.5, 1e-9)
        case _:
            pytest.fail("ChainDiagnostics did not match its fields")


def test_the_nested_dict_of_chain_diagnostics():
    view = CHAIN._asdict()
    assert view == {
        "sandwich_lower": {"slack": 0.0, "ok": True},
        "sandwich_upper": {"slack": -1.5, "ok": False},
        "n_bound": {"slack": 2.0, "ok": True},
        "ratio": {"slack": 0.25, "ok": True},
        "tolerance": 1e-9,
    }
    # the key order is the report schema's
    assert json.dumps(view) == (
        '{"sandwich_lower": {"slack": 0.0, "ok": true}, "sandwich_upper": {"slack": -1.5, "ok": false},'
        ' "n_bound": {"slack": 2.0, "ok": true}, "ratio": {"slack": 0.25, "ok": true}, "tolerance": 1e-09}'
    )
    view["ratio"]["slack"] = math.inf
    assert CHAIN.ratio.slack == 0.25


def test_the_dicts_of_flat_records_follow_their_fields():
    assert EntropyValue(2.0, 3.0)._asdict() == {"nats": 2.0, "bits": 3.0}
    assert list(make(PowerLawFit)._asdict()) == ["a", "b", "rmse", "points_used", "k_min", "k_max"]


def test_sweep_csv_writes_every_field_but_the_error():
    rows = [make(SweepRow), SweepRow(1.0, -1.0, error="refused")]
    assert sweep_csv(rows).splitlines()[1:] == ["1.0,4.0,120.5,54,3.0,4.0,1.0,0.0,-0.0,0.5,0.125", "1.0,-1.0" + "," * 9]
