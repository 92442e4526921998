"""The spelling-corrector property from the Figure 1/2 scenario.

"Because Eyal is not a native English speaker, he also attaches a
personal property that corrects the paper's spelling. ... both the
spelling correction and the versioning properties are dispatched when
getoutputstream operations are invoked, whereas the spelling corrector is
also invoked on getinputstream." (§2)

The corrector is deliberately simple — a dictionary of misspelling →
correction applied word-wise, line by line — because only its *stream
behaviour* matters to caching.  It transforms both the read and the write
path, exactly as in the paper, and its transform signature includes its
dictionary fingerprint and version so upgrading the corrector changes the
signature (and triggers MODIFY_PROPERTY invalidation).
"""

from __future__ import annotations

from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty
from repro.properties.words import replace_words, sign_table
from repro.streams.base import InputStream, OutputStream
from repro.streams.transforms import (
    BufferedTransformOutputStream,
    LineTransformInputStream,
    text_transform,
)

__all__ = ["SpellingCorrectorProperty", "DEFAULT_CORRECTIONS"]

#: A small default dictionary (with the paper's own title words in it).
DEFAULT_CORRECTIONS: dict[str, str] = {
    "teh": "the",
    "adress": "address",
    "recieve": "receive",
    "seperate": "separate",
    "occured": "occurred",
    "documnet": "document",
    "cachable": "cacheable",
    "propertys": "properties",
    "consistancy": "consistency",
    "performence": "performance",
}

class SpellingCorrectorProperty(ActiveProperty):
    """Corrects spelling on both the read and the write path."""

    execution_cost_ms = 0.8
    transforms_reads = True

    def __init__(
        self,
        corrections: dict[str, str] | None = None,
        name: str = "spell-correct",
        version: int = 1,
    ) -> None:
        super().__init__(name, version)
        self.corrections = dict(
            DEFAULT_CORRECTIONS if corrections is None else corrections
        )
        self.words_corrected = 0
        self._signed_corrections: dict[str, str] | None = None
        self._fingerprint = ""

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM, EventType.GET_OUTPUT_STREAM}

    def correct_text(self, text: str) -> str:
        """Apply the correction dictionary to *text*."""
        text, count = replace_words(self.corrections, text)
        self.words_corrected += count
        return text

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        return LineTransformInputStream(
            stream, text_transform(self.correct_text)
        )

    def wrap_output(self, stream: OutputStream, event: Event) -> OutputStream:
        return BufferedTransformOutputStream(
            stream, text_transform(self.correct_text)
        )

    def transform_signature(self) -> str:
        if self.corrections != self._signed_corrections:
            self._signed_corrections, self._fingerprint = sign_table(
                self.corrections
            )
        return f"spellcheck/{self.name}/v{self.version}/{self._fingerprint}"

    def upgrade_dictionary(self, corrections: dict[str, str]) -> None:
        """Install a new correction dictionary — a new release (§3).

        Merges the new entries, bumps the version and raises
        MODIFY_PROPERTY so notifiers invalidate dependent cache entries.
        """
        self.corrections.update(corrections)
        self.upgrade()
