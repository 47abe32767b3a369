"""Message model for the radio network simulator.

The paper places no restriction on message size but notes that its
algorithms work with ``O(log n)``-bit messages.  We model a message as an
integer-comparable payload (``value``) plus optional metadata describing
its origin, which is what ``Compete`` needs: sources inject messages and
all nodes must learn the *highest* one.

Two sentinel objects describe what a listening node hears in a round:

* :data:`SILENCE` -- no neighbour transmitted (or, without collision
  detection, more than one did); a round's outcome lists only the nodes
  that heard something else, so this is what every other node heard;
* :data:`COLLISION` -- at least two neighbours transmitted, only reported
  when the collision-detection variant of the model is enabled.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional


class _Sentinel:
    """A named singleton used for the reception sentinels."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"


#: Heard nothing (zero transmitting neighbours, or an undetected collision).
SILENCE = _Sentinel("SILENCE")

#: Heard a collision (two or more transmitting neighbours); only delivered
#: by the collision-detection variant of the model.
COLLISION = _Sentinel("COLLISION")

#: ``str(type)`` of every source type seen so far, a memo that never
#: changes a key.  Node identifiers come in a handful of types, so every
#: key of one type shares one string and the type's repr is built once.
_TYPE_NAMES: dict[type, str] = {}


def source_key(source: Any) -> tuple[str, str]:
    """A message source's tie-break key: ``(str(type(source)), str(source))``.

    A total order over any node identifiers, whatever their types.
    :class:`Message` orders by ``(value, source_key(source))``, and the
    vectorized path ranks the spontaneous dummies -- which share one
    value -- by this key alone, so both orders come from this function.
    Two distinct ids can share a key (objects with one ``str``);
    :class:`~repro.core.compete.Compete` rejects a graph that has two.
    """
    kind = type(source)
    name = _TYPE_NAMES.get(kind)
    if name is None:
        name = _TYPE_NAMES.setdefault(kind, str(kind))
    return name, str(source)


@dataclasses.dataclass(frozen=True, order=True)
class Message:
    """A transmissible message.

    Messages are ordered by ``(value, source)`` so that "the highest
    message" is well defined even if two sources inject equal values;
    this mirrors the paper's convention of ranking messages
    lexicographically (Section 4).

    Attributes
    ----------
    value:
        The integer value being propagated (a source message value or a
        candidate identifier in leader election).
    source:
        Identifier of the node that originated the message.  Included in
        the ordering as a tie-breaker.
    payload:
        Optional opaque payload carried alongside the value (not part of
        ordering or equality of interest to the algorithms; excluded from
        comparisons).
    """

    value: int
    source: Any = dataclasses.field(default=None, compare=True)
    payload: Any = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        # The order key, built once: the reference runner compares
        # messages on every reception.  Not a field, so equality,
        # hashing, ordering and the repr are unchanged.
        object.__setattr__(
            self, "_key", (self.value, source_key(self.source))
        )

    def beats(self, other: Optional["Message"]) -> bool:
        """Return True if this message is strictly higher than ``other``.

        ``other`` may be ``None`` (meaning "knows nothing yet"), in which
        case any message wins.
        """
        if other is None:
            return True
        return self._key > other._key

    def sort_key(self) -> tuple:
        """The order key ``(value, source_key(source))`` behind :meth:`beats`.

        The vectorized backend ranks the candidate messages by this key
        (and the dummies by :func:`source_key`) once up front and then
        compares dense integer ranks instead of message objects, so the
        key must induce exactly the same order as :meth:`beats` -- both
        read this one key.
        """
        return self._key


def highest_message(*messages: Optional[Message]) -> Optional[Message]:
    """Return the highest of the given messages, ignoring ``None`` entries.

    Returns ``None`` if every argument is ``None``.
    """
    best: Optional[Message] = None
    for message in messages:
        if message is not None and message.beats(best):
            best = message
    return best
