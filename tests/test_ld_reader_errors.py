"""Each malformed LD document raises the message the entry-at-a-time
reader gave: the first bad entry's, lower before upper before class
before the box checks, and a negative class only after every entry."""

import json
import re

import pytest

from carlab.core import CarlabError
from carlab.lcpr import ldset_from_json, load_ldset


def entry(**fields):
    return {"class": 0, "lower": {"1": 0.0}, "upper": {"1": 1.0}, **fields}


CASES = {
    "key-01": ([entry(), entry(upper={"01": 1.0})], None, "upper key must be a decimal integer, got '01'"),
    "key-0": ([entry(lower={"2": 0.5, "0": 1.0})], None, "feature index 0 out of range"),
    "key-01-before-key-0": ([entry(), entry(lower={"0": 1.0}, upper={"01": 1.0})], None,
                            "upper key must be a decimal integer, got '01'"),
    "bool-bound": ([entry(), entry(upper={"2": False})], None, "upper must be a number, got False"),
    "string-bound": ([entry(lower={"1": "0.5"})], None, "lower must be a number, got '0.5'"),
    "missing-class": ([entry(), {"lower": {}, "upper": {"1": 2.0}}], None, "missing key 'class'"),
    "bool-class": ([entry(**{"class": True})], None, "class must be an integer, got True"),
    "class-past-64-bits": ([entry(**{"class": 2**63})], None, "class must fit in 64 bits, got 9223372036854775808"),
    "negative-class-then-empty-box": ([entry(**{"class": -2}), entry(lower={"1": 2.0}, upper={"1": 1.0})], None,
                                      r"empty box on feature 1: \[2.0, 1.0\]"),
    "negative-classes": ([entry(**{"class": -2}), entry(**{"class": -5})], None, "negative class index -5"),
    "empty-box": ([entry(), entry(lower={"3": 2.0}, upper={"3": -2.0})], None, r"empty box on feature 3: \[2.0, -2.0\]"),
    "past-n": ([entry(), entry(upper={"4": 1.0})], 3, "feature index 4 out of range for n=3"),
    "past-n-before-nan": ([entry(upper={"4": float("nan")})], 3, "feature index 4 out of range for n=3"),
    "nan": ([entry(), entry(lower={"2": float("nan")})], None, "NaN bound on feature 2"),
    "absurd-width": ([entry(), entry(lower={"1000000000000": 0.5})], None,
                     "feature index 1000000000000 out of range: no memory for bound matrices that wide"),
    "absurd-width-then-empty-box": ([entry(lower={"1000000000000": 0.5}), entry(lower={"2": 1.0}, upper={"2": 0.0})],
                                    None, r"empty box on feature 2: \[1.0, 0.0\]"),
    "bound-past-float": ([entry(), entry(lower={"1": 10**400})], None, "int too large to convert to float"),
    "entry-not-an-object": ([entry(), [1]], None, "'list' object has no attribute 'get'"),
    "lower-not-an-object": ([entry(lower=[1.0])], None, "'list' object has no attribute 'items'"),
}


@pytest.mark.parametrize("name", CASES)
def test_the_first_bad_entry_keeps_its_message(tmp_path, name):
    data, n, message = CASES[name]
    with pytest.raises(Exception, match=f"^{message}$" if name != "missing-class" else "^'class'$"):
        ldset_from_json(data, n)
    if "nan" not in name:  # json writes NaN, which the file reader refuses first
        path = tmp_path / "lds.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CarlabError, match=f"^{re.escape(str(path))}: {message}$"):
            load_ldset(path, n)


def test_a_good_set_reads_as_the_entries_say():
    lds = ldset_from_json([entry(**{"class": 2}, lower={"2": -0.0}, upper={}), entry(), entry(lower={}, upper={"3": 5})])
    assert lds.class_ids == (0, 2) and type(lds.class_ids[0]) is int and lds.sizes == (2, 1)
    assert [(ld.lower, ld.upper) for ld in lds.all_lds()] == [
        ({}, {3: 5.0}), ({1: 0.0}, {1: 1.0}), ({2: -0.0}, {}),
    ]
