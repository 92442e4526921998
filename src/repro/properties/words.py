"""Word-table substitution shared by the translator and the spelling corrector.

Both properties rewrite every maximal run of ASCII letters through a
lowercase-keyed table, capitalizing the replacement when the original
word starts with an uppercase letter.  :func:`replace_words` does that
without a Python call per word: it tokenizes the text once, resolves
each *distinct* word once, and maps the word list through the resulting
dict at C speed.  Only wall time changes; a property's virtual
``execution_cost_ms`` is a constant and does not depend on this code.

Token lists cost several times the text they come from, so a long text
is rewritten in blocks of about :data:`BLOCK_CHARS` characters, each cut
just before a newline.  No word spans a newline, so the blocks tokenize
exactly as the whole text would.

:func:`sign_table` fingerprints a table for a transform signature.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Mapping

__all__ = ["replace_words", "sign_table"]

#: Splits text into ``[gap, word, gap, word, ..., gap]``: the capturing
#: group keeps the words at the odd positions.
_split_words = re.compile(r"([A-Za-z]+)").split

#: Texts longer than this are rewritten a block at a time, which bounds
#: the transient token lists (a 200 KB text in one piece peaks at about
#: twice the memory of the per-word substitution it replaced).
BLOCK_CHARS = 16_384


def replace_words(table: Mapping[str, str], text: str) -> tuple[str, int]:
    """Rewrite every word of *text* found in *table*.

    A word is a maximal run of ASCII letters; it is looked up as
    ``word.lower()`` and its replacement is capitalized when ``word``
    starts with an uppercase letter.  Returns the new text and the
    number of words replaced, identity mappings included.
    """
    cut = text.find("\n", BLOCK_CHARS)
    if cut < 0:
        return _replace_block(table, text)
    blocks: list[str] = []
    total = start = 0
    while cut >= 0:
        block, count = _replace_block(table, text[start:cut])
        blocks.append(block)
        total += count
        start = cut
        cut = text.find("\n", start + BLOCK_CHARS)
    block, count = _replace_block(table, text[start:])
    blocks.append(block)
    return "".join(blocks), total + count


def _replace_block(table: Mapping[str, str], text: str) -> tuple[str, int]:
    parts = _split_words(text)
    words = parts[1::2]
    lookup = table.get
    mapping: dict[str, str] = {}
    for word in set(words):
        replacement = lookup(word.lower())
        if replacement is not None:
            mapping[word] = (
                replacement.capitalize() if word[0].isupper() else replacement
            )
    if not mapping:
        return text, 0
    parts[1::2] = map(mapping.get, words, words)
    return "".join(parts), sum(map(mapping.__contains__, words))


#: Snapshots of the tables fingerprinted so far, by fingerprint.  Every
#: property built from the same table shares one snapshot instead of
#: keeping its own copy.  Snapshots are never mutated.
_snapshots: dict[str, dict[str, str]] = {}
_MAX_SNAPSHOTS = 16


def sign_table(table: Mapping[str, str]) -> tuple[dict[str, str], str]:
    """*table*'s 8-hex fingerprint, with a snapshot equal to *table*.

    A caller keeps the snapshot and signs again only when its table no
    longer equals it: dict equality is exact, so an in-place edit of
    the table is seen.
    """
    digest = hashlib.md5(repr(sorted(table.items())).encode())
    fingerprint = digest.hexdigest()[:8]
    snapshot = _snapshots.get(fingerprint)
    if snapshot != table:
        if len(_snapshots) >= _MAX_SNAPSHOTS:
            _snapshots.clear()
        snapshot = _snapshots[fingerprint] = dict(table)
    return snapshot, fingerprint
