"""Record loading, predicate evaluation, and noisy counting."""

from __future__ import annotations

import csv
import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpbayes import (
    Predicate,
    RecordSet,
    calibrate,
    count_query,
    load_records,
    noisy_count_query,
    out_of_range_probability,
    public_answer,
)
from dpbayes.querydb import RELATIONS
from vmhwm import peak_growth_mb

TEN_ROWS = (
    "city,age,plan\n"
    "Rome,30,basic\n"
    "Milan,40,plus\n"
    "Rome,25,plus\n"
    "Naples,50,basic\n"
    "Rome,61,basic\n"
    "Turin,33,plus\n"
    "Milan,47,basic\n"
    "Genoa,29,plus\n"
    "Rome,38,plus\n"
    "Bari,55,basic\n"
)


class MedianStream:
    def random(self):
        return 0.5


@pytest.fixture
def db():
    return load_records(TEN_ROWS)


def dict_rows(text: str) -> tuple:
    """The rows of comma-separated ``text`` as dicts, read by :class:`csv.DictReader`."""
    return tuple(csv.DictReader(io.StringIO(text)))


def matches(pred: Predicate, record: dict) -> bool:
    """The per-record rule ``count_query`` must equal: a record without the
    field (a missing key or a ``None`` value) matches nothing."""
    value = record.get(pred.field)
    if value is None:
        return False
    if pred.relation == "equals":
        return value == pred.values[0]
    if pred.relation == "not-equals":
        return value != pred.values[0]
    return value in pred.values


def assert_counts_match(db, records) -> None:
    """Every equals and not-equals count over the records' own fields and values
    equals the per-record definition."""
    for name in {name for record in records for name in record}:
        for value in {record.get(name) for record in records} - {None}:
            for relation in ("equals", "not-equals"):
                pred = Predicate(field=name, relation=relation, values=(value,))
                assert count_query(db, pred) == sum(matches(pred, r) for r in records), pred


class TestLoadRecords:
    def test_loads_rows(self, db):
        assert db.size == 10
        assert count_query(db, Predicate.parse("age equals 30")) == 1
        assert_counts_match(db, dict_rows(TEN_ROWS))

    def test_header_only(self):
        assert load_records("city,age\n").size == 0

    def test_accepts_stream(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(TEN_ROWS)
        with open(path, newline="") as stream:
            assert load_records(stream).size == 10

    def test_quoted_fields(self):
        db = load_records('name,notes\nA,"likes cheese, wine"\nB,"says ""hi"""\n')
        assert db.size == 2
        notes = ("likes cheese, wine", 'says "hi"')
        for value in notes:
            assert count_query(db, Predicate("notes", "equals", (value,))) == 1
        # No cell was split at its comma or kept its quotes.
        fragments = Predicate.parse('notes in-set likes cheese, wine,"says ""hi"""')
        assert count_query(db, fragments) == 0
        assert count_query(db, Predicate("notes", "in-set", notes)) == 2

    def test_arity_mismatch_names_row(self):
        with pytest.raises(ValueError, match="row 3"):
            load_records("a,b\n1,2\n1,2,3\n")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="row 1"):
            load_records("")

    @pytest.mark.parametrize("bad_row", [1, 2, 4097, 5002])
    def test_decode_error_names_row(self, bad_row):
        # A source that decodes line by line fails on exactly the bad row.
        lines = [b"city\n"] + [b"Rome\n"] * 5001
        lines[bad_row - 1] = "S\u00e3o Paulo\n".encode("latin-1")
        with pytest.raises(ValueError, match=f"^row {bad_row}: 'utf-8' codec"):
            load_records(line.decode() for line in lines)


class TestPredicate:
    def test_parse_equals(self):
        pred = Predicate.parse("city equals Rome")
        assert (pred.field, pred.relation, pred.values) == ("city", "equals", ("Rome",))

    def test_parse_in_set(self):
        pred = Predicate.parse("city in-set Rome,Milan")
        assert pred.values == ("Rome", "Milan")

    def test_parse_value_with_spaces(self):
        pred = Predicate.parse("plan equals extra value")
        assert pred.values == ("extra value",)

    @pytest.mark.parametrize("text", ["city equals", "city", "", "city like Rome"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            Predicate.parse(text)

    def test_rejects_multi_value_equals(self):
        with pytest.raises(ValueError):
            Predicate(field="city", relation="equals", values=("Rome", "Milan"))

    @pytest.mark.parametrize("values", ["Rome", b"Rome"], ids=["str", "bytes"])
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_rejects_a_bare_string_for_values(self, relation, values):
        # A string is iterable: in-set "Rome" would test 'R', 'o', 'm' and 'e'.
        with pytest.raises(ValueError, match="not the string"):
            Predicate(field="city", relation=relation, values=values)

    @pytest.mark.parametrize("values", [None, 7, (), []], ids=["none", "int", "tuple", "list"])
    def test_rejects_values_that_are_no_collection_or_empty(self, values):
        with pytest.raises(ValueError, match="predicate values must be a non-empty collection"):
            Predicate(field="city", relation="in-set", values=values)

    @pytest.mark.parametrize("values", [("Rome",), ["Rome"]], ids=["tuple", "list"])
    def test_values_as_a_list_or_tuple(self, values):
        db = RecordSet([{"city": "R"}, {"city": "o"}, {"city": "Rome"}])
        pred = Predicate(field="city", relation="in-set", values=values)
        assert pred.values == ("Rome",)
        assert count_query(db, pred) == 1

    def test_matching(self):
        db = RecordSet([{"city": "Rome", "age": "30"}])
        assert count_query(db, Predicate.parse("city equals Rome")) == 1
        assert count_query(db, Predicate.parse("city not-equals Rome")) == 0
        assert count_query(db, Predicate.parse("city in-set Milan,Rome")) == 1
        assert count_query(db, Predicate.parse("city in-set Milan,Turin")) == 0

    def test_missing_field_never_matches(self):
        db = RecordSet([{"city": "Rome"}])
        assert count_query(db, Predicate.parse("region equals north")) == 0
        assert count_query(db, Predicate.parse("region not-equals north")) == 0
        assert count_query(db, Predicate.parse("region in-set north,south")) == 0


class TestCountQuery:
    def test_counts_matches(self, db):
        assert count_query(db, Predicate.parse("city equals Rome")) == 4
        assert count_query(db, Predicate.parse("plan equals plus")) == 5
        assert count_query(db, Predicate.parse("city in-set Milan,Turin")) == 3
        assert count_query(db, Predicate.parse("city not-equals Rome")) == 6

    def test_unknown_field_counts_zero(self, db):
        assert count_query(db, Predicate.parse("region equals north")) == 0

    def test_order_invariant(self, db):
        pred = Predicate.parse("plan equals basic")
        baseline = count_query(db, pred)
        shuffled = list(dict_rows(TEN_ROWS))
        random.Random(0).shuffle(shuffled)
        assert count_query(RecordSet(records=tuple(shuffled)), pred) == baseline

    def test_unit_sensitivity(self, db):
        # Adding any single record moves any count by at most 1.
        predicates = [
            Predicate.parse("city equals Rome"),
            Predicate.parse("city not-equals Rome"),
            Predicate.parse("plan in-set basic,extra"),
            Predicate.parse("region equals north"),
        ]
        extras = [
            {"city": "Rome", "age": "20", "plan": "basic"},
            {"city": "Oslo", "age": "70", "plan": "extra"},
            {"age": "1"},
        ]
        records = dict_rows(TEN_ROWS)
        for pred in predicates:
            base = count_query(db, pred)
            for extra in extras:
                grown = RecordSet(records=records + (extra,))
                assert abs(count_query(grown, pred) - base) <= 1


class TestNoisyCountQuery:
    def test_median_noise_returns_true_count(self, db):
        level = calibrate(0.1)
        result = noisy_count_query(db, Predicate.parse("city equals Rome"), level, MedianStream())
        assert result.true_count == 4
        assert result.noisy_value == 4.0
        assert result.epsilon_used == 0.1

    def test_deterministic_given_seed(self, db):
        pred = Predicate.parse("plan equals plus")
        level = calibrate(0.5)
        first = noisy_count_query(db, pred, level, np.random.default_rng(11))
        second = noisy_count_query(db, pred, level, np.random.default_rng(11))
        assert first == second

    def test_noise_is_unbiased(self, db):
        pred = Predicate.parse("city equals Rome")
        level = calibrate(0.1)
        rng = np.random.default_rng(97)
        values = np.array(
            [noisy_count_query(db, pred, level, rng).noisy_value for _ in range(100_000)]
        )
        spread = level.noise_std
        assert abs(values.mean() - 4.0) < 3.0 * spread / math.sqrt(values.size)

    def test_out_of_range_frequency_matches_closed_form(self):
        # End-to-end: a database whose true count is 0 must go negative
        # with probability very near 1/2 at strong privacy.
        db = load_records("city\n" + "Rome\n" * 100)
        pred = Predicate.parse("city equals Oslo")
        level = calibrate(0.1)
        rng = np.random.default_rng(12345)
        values = np.array(
            [noisy_count_query(db, pred, level, rng).noisy_value for _ in range(20_000)]
        )
        outside = ((values < 0.0) | (values > 100.0)).mean()
        target = out_of_range_probability(0, 100, level)
        assert abs(outside - target) < 4.0 * math.sqrt(target * (1.0 - target) / values.size)

    def test_never_clamped(self, db):
        # With a stream forced to the far tail the answer must leave [0, n].
        class LowStream:
            def random(self):
                return 1e-9

        level = calibrate(1.0)
        result = noisy_count_query(db, Predicate.parse("city equals Rome"), level, LowStream())
        assert result.noisy_value < 0.0


class TestPublicAnswer:
    def test_exposes_only_noisy_fields(self, db):
        level = calibrate(0.1)
        result = noisy_count_query(db, Predicate.parse("city equals Rome"), level, MedianStream())
        payload = json.loads(public_answer(result))
        assert set(payload) == {"noisy_value", "epsilon"}
        assert payload["noisy_value"] == 4.0
        assert payload["epsilon"] == 0.1
        assert "true" not in public_answer(result)


# Field and value alphabets for generated record sets.  "region" never
# appears in a record, so predicates on it exercise the unknown-field path.
FIELDS = ("city", "plan", "note")
VALUES = ("", "Rome", "Milan", "a,b", 'say "hi"')


@st.composite
def predicates(draw):
    relation = draw(st.sampled_from(RELATIONS))
    arity = draw(st.integers(1, 4)) if relation == "in-set" else 1
    return Predicate(
        field=draw(st.sampled_from(FIELDS + ("region",))),
        relation=relation,
        values=tuple(draw(st.lists(st.sampled_from(VALUES), min_size=arity, max_size=arity))),
    )


@st.composite
def csv_tables(draw):
    header = draw(st.lists(st.sampled_from(FIELDS), min_size=1, unique=True))
    row = st.lists(st.sampled_from(VALUES), min_size=len(header), max_size=len(header))
    return header, draw(st.lists(row, max_size=30))


class TestColumnCounts:
    """The per-field value counts must equal the per-record definition."""

    @settings(max_examples=200)
    @given(
        records=st.lists(
            st.dictionaries(st.sampled_from(FIELDS), st.sampled_from(VALUES + (None,))),
            max_size=30,
        ),
        preds=st.lists(predicates(), min_size=1, max_size=5),
    )
    def test_counts_equal_definition_from_dicts(self, records, preds):
        db = RecordSet(records=tuple(records))
        assert db.size == len(records)
        for pred in preds:
            assert count_query(db, pred) == sum(matches(pred, r) for r in records)

    @settings(max_examples=200)
    @given(table=csv_tables(), preds=st.lists(predicates(), min_size=1, max_size=5))
    def test_counts_equal_definition_from_csv(self, table, preds):
        header, rows = table
        text = io.StringIO()
        csv.writer(text).writerows([header, *rows])
        db = load_records(text.getvalue())
        records = tuple(dict(zip(header, row)) for row in rows)
        assert db.size == len(rows)
        assert_counts_match(db, records)
        for pred in preds:
            assert count_query(db, pred) == sum(matches(pred, r) for r in records)

    def test_counts_across_row_blocks(self):
        # 10 001 rows span three of load_records' blocks; Oslo first appears in the last.
        body = TEN_ROWS.split("\n", 1)[1]
        text = "city,age,plan\n" + body * 1000 + "Oslo,70,extra\n"
        db = load_records(text)
        assert db.size == 10_001
        assert count_query(db, Predicate.parse("city equals Rome")) == 4000
        assert count_query(db, Predicate.parse("city in-set Oslo,Bari")) == 1001
        assert count_query(db, Predicate.parse("plan not-equals basic")) == 5001
        assert count_query(db, Predicate.parse("age equals 70")) == 1
        assert_counts_match(db, dict_rows(text))

    def test_repeated_in_set_value_counts_once(self, db):
        assert count_query(db, Predicate.parse("city in-set Rome,Rome")) == 4
        assert count_query(db, Predicate.parse("city in-set Rome,Milan,Rome")) == 6

    def test_not_equals_skips_records_without_the_field(self):
        db = RecordSet(records=({"city": "Rome"}, {"plan": "basic"}, {"city": None}))
        assert db.size == 3
        assert count_query(db, Predicate.parse("city not-equals Oslo")) == 1
        assert count_query(db, Predicate.parse("plan not-equals basic")) == 0

    def test_duplicate_header_names_row_and_field(self):
        with pytest.raises(ValueError, match="row 1: field 'a'"):
            load_records("a,a\n1,2\n")
        with pytest.raises(ValueError, match="row 1: field 'b'"):
            load_records("b,c,b\n")

    def test_load_memory_stays_bounded(self, tmp_path):
        # 10**5 rows x 5 fields held as one dict per row grew peak RSS by
        # about 51 MB, and as one int32 code per row and field by about 8 MB;
        # value counts read a block of rows at a time keep it near 4 MB.
        # Measured in a fresh process as growth of VmHWM.
        path = tmp_path / "wide.csv"
        path.write_text("region,age,sex,job,plan\n" + "".join(
            f"r{i % 6},a{i % 10},s{i % 3},j{i % 12},p{i % 4}\n" for i in range(100_000)))
        growth_mb = peak_growth_mb(
            "with open(sys.argv[1], newline='') as stream:\n"
            "    db = load_records(stream)\n"
            "assert db.size == 100_000\n",
            str(path),
            setup="import sys\nfrom dpbayes import load_records\n",
        )
        assert growth_mb < 6

    def test_dict_records_memory_stays_bounded(self):
        # RecordSet(records=...) held 10**5 five-field dicts from a generator
        # at once to count them, growing VmHWM by about 50 MB; counted as they
        # are read, they are freed one by one.
        growth_mb = peak_growth_mb(
            "db = RecordSet(records=({'region': f'r{i % 6}', 'age': f'a{i % 10}', 'sex': f's{i % 3}',\n"
            "                         'job': f'j{i % 12}', 'plan': f'p{i % 4}'} for i in range(100_000)))\n"
            "assert db.size == 100_000\n",
            setup="from dpbayes import RecordSet\n",
        )
        assert growth_mb < 6
