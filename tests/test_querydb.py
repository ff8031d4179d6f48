"""Record loading, predicate evaluation, and noisy counting."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

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


class TestLoadRecords:
    def test_loads_rows(self, db):
        assert db.size == 10
        assert db.records[0] == {"city": "Rome", "age": "30", "plan": "basic"}

    def test_header_only(self):
        assert load_records("city,age\n").size == 0

    def test_accepts_stream(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(TEN_ROWS)
        with open(path, newline="") as stream:
            assert load_records(stream).size == 10

    def test_quoted_fields(self):
        db = load_records('name,notes\nA,"likes cheese, wine"\nB,"says ""hi"""\n')
        assert db.records[0]["notes"] == "likes cheese, wine"
        assert db.records[1]["notes"] == 'says "hi"'

    def test_arity_mismatch_names_row(self):
        with pytest.raises(ValueError, match="row 3"):
            load_records("a,b\n1,2\n1,2,3\n")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="row 1"):
            load_records("")


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

    def test_matching(self):
        record = {"city": "Rome", "age": "30"}
        assert Predicate.parse("city equals Rome").matches(record)
        assert not Predicate.parse("city not-equals Rome").matches(record)
        assert Predicate.parse("city in-set Milan,Rome").matches(record)
        assert not Predicate.parse("city in-set Milan,Turin").matches(record)

    def test_missing_field_never_matches(self):
        record = {"city": "Rome"}
        assert not Predicate.parse("region equals north").matches(record)
        assert not Predicate.parse("region not-equals north").matches(record)
        assert not Predicate.parse("region in-set north,south").matches(record)


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
        shuffled = list(db.records)
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
        for pred in predicates:
            base = count_query(db, pred)
            for extra in extras:
                grown = RecordSet(records=db.records + (extra,))
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
