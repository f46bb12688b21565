"""Synthetic media fixtures: tracks, slide decks, documents.

The paper's experiments use MP3 files of 2.0-7.5 MB and OpenOffice Impress
slide decks; only byte size and an identity tag matter to the middleware,
so these factories produce :class:`~repro.core.components.DataComponent`
instances of the requested size.
"""

from __future__ import annotations

from repro.core.components import DataComponent


def make_track(name: str, size_bytes: int,
               bitrate_kbps: int = 192) -> DataComponent:
    """A music file; duration derives from size and bitrate."""
    track = DataComponent(name, size_bytes, content_tag=f"audio:{name}")
    track.duration_ms = int(size_bytes * 8 / (bitrate_kbps * 1000) * 1000)
    return track


def make_slide_deck(name: str, slide_count: int,
                    per_slide_bytes: int = 120_000) -> DataComponent:
    """A slide deck sized by slide count."""
    if slide_count < 1:
        raise ValueError("slide deck needs at least one slide")
    deck = DataComponent(name, slide_count * per_slide_bytes,
                         content_tag=f"slides:{name}:{slide_count}")
    deck.slide_count = slide_count
    return deck


def make_document(name: str, text: str = "") -> DataComponent:
    """A text document; size tracks the text length."""
    doc = DataComponent(name, max(len(text.encode("utf-8")), 1),
                        content_tag=f"doc:{name}")
    doc.text = text
    return doc
