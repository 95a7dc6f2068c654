"""The fast CSV reader's block scan and int fields, against ``csv.reader``.

``core._loadtxt_read`` checks a file's lines ``_SCAN_BYTES`` at a time and
reads its int fields as text, each distinct text by ``core._decimal``.
Each file here is read with the blocks cut to a few bytes, and must read
as it reads through ``csv.reader`` (``_loadtxt_read`` declining every
file), or fail with the same message; a file that is valid must not
reach ``csv.reader`` at all.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import core, synth
from carlab.core import CarlabError, _read_dataset, load_trace_log, save_trace_log
from carlab.poset import load_transition_records


def _refuse(*args, **kwargs):
    raise AssertionError("read by csv.reader")


def _message_or(read, path):
    try:
        return read(path)
    except CarlabError as exc:
        return str(exc)


def _routes(read, path, block, valid):
    """``read(path)`` with blocks of ``block`` bytes, csv.reader refused
    when the file is ``valid``; and ``read(path)`` through csv.reader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_SCAN_BYTES", block)
        if valid:
            patch.setattr(csv, "reader", _refuse)
        fast = _message_or(read, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_loadtxt_read", lambda data, kinds: None)
        return fast, _message_or(read, path)


def _dataset(path):
    ids, x, labels = _read_dataset(path, True)
    return ids, x.tobytes(), labels.tolist()


def _transitions(path):
    return {(e.src, e.action, e.dst): e.count for e in load_transition_records(path).edges}


def _layout(lines, crlf, last_lf):
    end = "\r\n" if crlf else "\n"
    return (end.join(lines) + end * last_lf).encode("ascii")


def _trace_lines(seed, wide_id, bad_step):
    rng = synth.default_rng(seed)
    traces = synth.random_trace_log(rng, n_objects=12, classes=5, n_features=2, max_len=6)
    lines = [
        f"{e.object_id},{e.step},{e.timestamp!r},{','.join(map(repr, e.state))},{e.assigned_class},{e.applied_action or ''}"
        for events in traces.values() for e in events
    ]
    last = lines[-1].split(",")[0]
    if wide_id:  # the last object's id, in the last blocks
        lines = [f"object-with-the-widest-id{line[len(last):]}" if line.startswith(f"{last},") else line
                 for line in lines]
    if bad_step:  # a step near the end
        k = len(lines) - 1 - rng.randrange(3)
        object_id, step, rest = lines[k].split(",", 2)
        lines[k] = f"{object_id},0{step},{rest}"
    return ["id,step,timestamp,f1,f2,class,action", *lines]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16), block=st.integers(1, 300), crlf=st.booleans(), last_lf=st.booleans(),
    wide_id=st.booleans(), bad_step=st.booleans(),
)
def test_trace_logs_read_the_same_in_small_blocks(tmp_path_factory, seed, block, crlf, last_lf, wide_id, bad_step):
    path = tmp_path_factory.mktemp("blocks") / "traces.csv"
    path.write_bytes(_layout(_trace_lines(seed, wide_id, bad_step), crlf, last_lf))
    fast, slow = _routes(load_trace_log, path, block, not bad_step)
    assert fast == slow
    assert isinstance(fast, str) == bad_step


def test_a_saved_trace_log_reads_the_same_in_small_blocks(tmp_path):
    traces = synth.random_trace_log(synth.default_rng(9), n_objects=30, classes=6, n_features=3, max_len=10)
    path = tmp_path / "traces.csv"
    save_trace_log(traces, path)
    for block in (1, 2, 7, 64, 1000):
        fast, slow = _routes(load_trace_log, path, block, True)
        assert fast == slow


DATASET_ROWS = ["a,1.5,0", "b,-2,1", "c,0.25,3", "dd,7,2", "e,1e3,1", "f,2.5,0", "g,3,2", "h,4,1"]


@pytest.mark.parametrize("block", [1, 5, 16, 40])
@pytest.mark.parametrize("crlf", [False, True])
@pytest.mark.parametrize("last_lf", [False, True])
@pytest.mark.parametrize(
    "late", [None, "widest-id,9,1", "z,9,04", "z,9,+4", "z,9, 4", "z,9,1e2", "z,9,", "z,9,1,2"],
)
def test_datasets_read_the_same_in_small_blocks(tmp_path, block, crlf, last_lf, late):
    """The last row, in the last block, holds the widest id or an int
    class that is not canonical decimal."""
    path = tmp_path / "data.csv"
    path.write_bytes(_layout(["id,f1,class", *DATASET_ROWS, *[late] * (late is not None)], crlf, last_lf))
    valid = late is None or late.startswith("widest")
    fast, slow = _routes(_dataset, path, block, valid)
    assert fast == slow
    assert isinstance(fast, str) != valid


# Int fields that are not canonical decimal int64: exponents whose text is
# as wide as the value's decimal ("1e2" for 100), or narrower ("1e9"),
# beside leading zeros that make up the width; a signed zero and a plus
# sign; values past int64, the last wider than any int64's 20 bytes.
NOT_INTS = [
    "1e2", "5e2", "1e9", "0000000", "-0", "+7",
    "10000000000000000000", "9223372036854775808", "100000000000000000000",
]


@pytest.mark.parametrize("bad", NOT_INTS)
@pytest.mark.parametrize("block", [3, 1 << 18])
def test_int_fields_take_only_canonical_decimal(tmp_path, bad, block):
    counts = tmp_path / "transitions.csv"
    rows = ["1,a,0,100", "2,b,1,3", f"2,a,1,{bad}", "1,b,0,0000000" if "e" in bad else "1,b,0,7"]
    counts.write_bytes(_layout(["from_class,action,to_class,count", *rows], False, True))
    fast, slow = _routes(_transitions, counts, block, False)
    assert fast == slow
    assert fast.endswith(f"bad integer value {bad!r}")
    data = tmp_path / "data.csv"
    rows = ["a,1,100", f"b,2,{bad}", "c,3,0000000" if "e" in bad else "c,3,1"]
    data.write_bytes(_layout(["id,f1,class", *rows], True, True))
    fast, slow = _routes(_dataset, data, block, False)
    assert fast == slow
    assert fast.endswith(f"bad integer value {bad!r}")


def _trace(path):
    table = load_trace_log(path)
    return table.label.tolist(), table.step.tolist()


def test_the_ends_of_int64_read_without_csv_reader(tmp_path):
    """A count of 2**63 - 1 reads, and a class of -2**63 (20 bytes) reads
    and is refused as negative, on the fast route as on csv.reader; an
    int field of 21 bytes is declined before np.loadtxt sizes a column
    for it."""
    counts = tmp_path / "transitions.csv"
    counts.write_bytes(b"from_class,action,to_class,count\n1,a,0,9223372036854775807\n2,b,1,3\n")
    fast, slow = _routes(_transitions, counts, 1 << 18, True)
    assert fast == slow == {(1, "a", 0): 2**63 - 1, (2, "b", 1): 3}
    traces = tmp_path / "traces.csv"
    traces.write_bytes(b"id,step,timestamp,f1,class,action\na,0,0.5,1.0,0,\na,1,1.5,2.0,-9223372036854775808,x\n")
    fast, slow = _routes(_trace, traces, 1 << 18, True)
    assert fast == slow
    assert fast == f"{traces}:3: negative class index {-2**63}"
    wide = b"from_class,action,to_class,count\n1,a,0,100000000000000000000\n"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", _refuse)
        assert core._loadtxt_read(wide, lambda header: [int, str, int, int]) is None
