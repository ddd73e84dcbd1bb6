"""Message objects exchanged over the simulated asynchronous network."""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Any, Dict

_tuple_new = tuple.__new__


class Message(tuple):
    """An immutable point-to-point message.

    ``payload`` carries the algorithm-level content (e.g. a
    :class:`~repro.core.base.PhaseMessage`); the envelope fields identify the
    endpoints and the send time, which the metrics and trace machinery use.

    One of these is allocated per send, so it is a ``tuple`` subclass rather
    than a (frozen) dataclass: construction is one C-level tuple build, there
    is no per-instance dict, equality/hashing run at tuple speed, and
    immutability comes for free (the named fields are read-only properties,
    so assigning to them raises ``AttributeError`` like the frozen dataclass
    did).
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: int,
        dest: int,
        payload: Any,
        send_time: float = 0.0,
        msg_id: int = 0,
    ) -> "Message":
        return _tuple_new(cls, (sender, dest, payload, send_time, msg_id))

    sender = property(itemgetter(0), doc="Sending process id.")
    dest = property(itemgetter(1), doc="Destination process id.")
    payload = property(itemgetter(2), doc="Algorithm-level content.")
    send_time = property(itemgetter(3), doc="Virtual time of the send.")
    msg_id = property(itemgetter(4), doc="Network-unique message number.")

    def __getnewargs__(self):
        """Pickle support: ``Message(*fields)`` rebuilds it."""
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"Message(#{self.msg_id} {self.sender}->{self.dest} "
            f"t={self.send_time:.4f} {self.payload!r})"
        )


#: Dataclass type -> a getter of its field values as one tuple, recorded the
#: first time one of its instances is sized by the general rules (types
#: with fewer than two fields stay there: ``attrgetter`` of one name does
#: not return a tuple).
_FIELD_VALUES: Dict[type, attrgetter] = {}


def payload_size(payload: Any) -> int:
    """A rough, deterministic size estimate of a payload in bytes.

    The simulator does not serialise anything; this estimate only feeds the
    "bytes on the wire" metric so that experiments can compare the volume of
    traffic generated by the different algorithms.

    A protocol message is a dataclass of ints and strings, sized once per
    broadcast, so that case is dispatched on the exact type first: fields of
    exact type ``int`` or ``str`` are sized in place and only other fields
    (``⊥``, nested payloads) recurse.  Everything else -- and a dataclass
    type's first instance -- takes the ``isinstance`` rules of
    :func:`_general_size`; the two give the same number.
    """
    field_values = _FIELD_VALUES.get(type(payload))
    if field_values is None:
        return _general_size(payload)
    size = 2
    for value in field_values(payload):
        kind = type(value)
        if kind is int:
            size += (value.bit_length() + 7) // 8 or 1
        elif kind is str:
            size += len(value.encode("utf-8"))
        else:
            size += payload_size(value)
    return size


def _general_size(payload: Any) -> int:
    """:func:`payload_size` by the ``isinstance`` rules, for any payload."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, (payload.bit_length() + 7) // 8)
    if isinstance(payload, float):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 2 + sum(payload_size(item) for item in payload)
    if isinstance(payload, dict):
        return 2 + sum(payload_size(key) + payload_size(value) for key, value in payload.items())
    fields = getattr(payload, "__dataclass_fields__", None)
    if fields is not None:
        if len(fields) > 1 and getattr(type(payload), "__dataclass_fields__", None) is fields:
            # The fields are its type's: later instances take the fast path.
            _FIELD_VALUES[type(payload)] = attrgetter(*fields)
        return 2 + sum(payload_size(getattr(payload, name)) for name in fields)
    return 16
