"""Property tests: the word-table kernel equals per-word ``re.sub``.

:func:`repro.properties.words.replace_words` replaced a regex
substitution that called back into Python once per word.  The original
code is kept below, only here, as the reference: for any table and any
text the kernel must produce the same output and the same replacement
count, and the translator and the corrector must advance their counters
by the same amounts.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.properties import words
from repro.properties.spellcheck import (
    DEFAULT_CORRECTIONS,
    SpellingCorrectorProperty,
)
from repro.properties.translate import ENGLISH_TO_FRENCH, TranslationProperty
from repro.properties.words import replace_words

_WORD_RE = re.compile(r"[A-Za-z]+")


def reference_replace(table: dict[str, str], text: str) -> tuple[str, int]:
    """The per-word callback substitution the kernel replaced."""
    count = 0

    def replace(match: re.Match[str]) -> str:
        nonlocal count
        word = match.group(0)
        replacement = table.get(word.lower())
        if replacement is None:
            return word
        count += 1
        if word[0].isupper():
            replacement = replacement.capitalize()
        return replacement

    return _WORD_RE.sub(replace, text), count


#: Characters that glue onto words without being ASCII letters: digits,
#: ``_``, punctuation, whitespace, and non-ASCII letters that case-fold
#: toward ASCII (long s, Kelvin sign, dotted capital I, e acute).
_GLUE = "0129_-'.,;:!? \n\tſKİéß"

_KEY_LETTERS = "abcdxyz"

_values = st.text(alphabet="abXYzéſ İ", max_size=4)


@st.composite
def tables(draw) -> dict[str, str]:
    """Small tables: single-letter keys, identity mappings, odd values."""
    keys = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_KEY_LETTERS),
                st.text(alphabet=_KEY_LETTERS, min_size=2, max_size=3),
                # Never matched: lookups are lowercased.
                st.text(alphabet="ABx", min_size=1, max_size=2),
            ),
            max_size=6,
            unique=True,
        )
    )
    return {
        key: draw(st.one_of(st.just(key), st.just(key.upper()), _values))
        for key in keys
    }


def _case_forms(word: str) -> list[str]:
    mixed = "".join(
        ch.upper() if i % 2 else ch.lower() for i, ch in enumerate(word)
    )
    return [word, word.title(), word.upper(), mixed]


@st.composite
def texts(draw, table: dict[str, str]) -> str:
    """Text biased toward the table's words in assorted case."""
    known = [form for key in table for form in _case_forms(key)]
    word = st.text(alphabet=_KEY_LETTERS + "QeZ", min_size=1, max_size=4)
    if known:
        word = st.one_of(st.sampled_from(known), word)
    piece = st.one_of(
        word,
        word,
        st.text(alphabet=_GLUE, min_size=1, max_size=3),
        st.just(""),
    )
    return "".join(draw(st.lists(piece, max_size=24)))


@st.composite
def tables_and_texts(draw) -> tuple[dict[str, str], str]:
    table = draw(tables())
    return table, draw(texts(table))


@settings(max_examples=400, deadline=None)
@given(tables_and_texts())
def test_kernel_matches_reference(case):
    table, text = case
    assert replace_words(table, text) == reference_replace(table, text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=_GLUE + "ab", max_size=30))
def test_default_tables_match_reference(text):
    for table in (ENGLISH_TO_FRENCH, DEFAULT_CORRECTIONS):
        assert replace_words(table, text) == reference_replace(table, text)


@settings(max_examples=200, deadline=None)
@given(tables_and_texts(), st.integers(min_value=1, max_value=8))
def test_block_cuts_match_reference(case, block_chars):
    # Long texts are rewritten in newline-cut blocks; shrink the block
    # so generated texts span several of them.
    table, text = case
    saved = words.BLOCK_CHARS
    words.BLOCK_CHARS = block_chars
    try:
        assert replace_words(table, text) == reference_replace(table, text)
    finally:
        words.BLOCK_CHARS = saved


def test_empty_and_letter_free_text_is_unchanged():
    table = {"a": "b"}
    for text in ("", " ", "123 _!", "ſKİé"):
        assert replace_words(table, text) == (text, 0)


def test_identity_mappings_are_counted():
    table = {"document": "document", "the": "le"}
    assert replace_words(table, "The document, the DOCUMENT") == (
        "Le document, le Document",
        4,
    )


@settings(max_examples=150, deadline=None)
@given(tables_and_texts(), st.text(alphabet=_KEY_LETTERS + _GLUE, max_size=20))
def test_property_counters_advance_like_reference(case, second):
    table, text = case
    translator = TranslationProperty(table=table)
    corrector = SpellingCorrectorProperty(corrections=table)
    expected = 0
    for chunk in (text, second):
        reference_text, reference_count = reference_replace(table, chunk)
        expected += reference_count
        assert translator.translate_text(chunk) == reference_text
        assert corrector.correct_text(chunk) == reference_text
        assert translator.words_translated == expected
        assert corrector.words_corrected == expected
