"""The package's one JSON writer, graph._to_json, against json.dumps."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathauction.graph import _to_json

# Strings that mix the characters JSON escapes: quotes, backslashes, every
# control character and DEL, then non-ASCII, astral and lone surrogates.
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f '),
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80, max_codepoint=0xFFFF),
        st.characters(min_codepoint=0x10000),
        st.characters(categories=["Cs"]),
    ),
    max_size=8,
)

_VALUES = st.recursive(
    st.none() | st.integers() | _TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
@example({})
@example([])
@example({"": {}, "a": [[], {}, None, -0, 10**40]})
@example(['"\\', "\x00\x1f\x7f", "é Ω", "\U0001f680", "\ud800"])
def test_writer_is_json_dumps_at_indent_2(value):
    assert _to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [True, 1.5, (1,), {"a": [False]}, {"a": {1}}])
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _to_json(value)
