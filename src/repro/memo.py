"""One rule for every value a link keeps from an earlier one.

A :class:`Memo` hands out its value only under the exact key (bytes,
fingerprint, environment) it was derived from; any other key derives
again and replaces it.  A checked link derives again on a hit too and
compares the two, field by field, raising :class:`MemoMismatchError`.
No :mod:`repro` imports, so the VM, linker and incremental state share it.
"""

from __future__ import annotations

_UNSET = object()
_EMPTY = (_UNSET, None)


def whole(value) -> dict:  # the default field function
    return {"value": value}


class MemoMismatchError(RuntimeError):
    """A fresh derivation differs from the value a memo kept."""

    def __init__(self, memo: str, fields) -> None:
        super().__init__("memo %s differs from a fresh derivation in %s"
                         % (memo, ", ".join(fields)))
        self.memo = memo
        self.fields = fields


class Memo:
    """A value and the key it was derived from, replaced as one pair (a
    concurrent link never reads one link's key with another's value).
    ``fields`` maps a value to ``{field name: comparable}``."""

    __slots__ = ("name", "fields", "_kept")

    def __init__(self, name: str, fields=whole) -> None:
        self.name = name
        self.fields = fields
        self._kept = _EMPTY

    @property
    def key(self):
        return self._kept[0]

    @property
    def value(self):
        return self._kept[1]

    def get(self, key, derive, *args, checked: bool = False):
        """The kept value under an equal ``key`` (``checked``: verified),
        else ``derive(*args)`` kept under ``key``, or what it raises."""
        kept = self._kept
        if key == kept[0]:
            if checked:
                self.verify(derive, *args)
            return kept[1]
        return self.keep(key, derive(*args))

    def keep(self, key, value):
        self._kept = (key, value)
        return value

    def clear(self) -> None:
        self._kept = _EMPTY

    def verify(self, derive, *args) -> None:
        """Raise :class:`MemoMismatchError` naming every field in which
        ``derive(*args)`` differs from the kept value."""
        kept = self.fields(self._kept[1])
        fresh = self.fields(derive(*args))
        differences = [name for name in {**kept, **fresh}
                       if kept.get(name, _UNSET) != fresh.get(name, _UNSET)]
        if differences:
            raise MemoMismatchError(self.name, differences)


class Memos(dict):
    """Memos by member (a module, a reuse key), named ``name member``."""

    def __init__(self, name: str, fields=whole) -> None:
        super().__init__()
        self.name = name
        self.fields = fields

    def memo(self, member: str) -> Memo:
        memo = self.get(member)
        if memo is None:
            memo = self[member] = Memo(self.name + " " + member, self.fields)
        return memo

    def retain(self, live) -> None:
        """Drop the memos of members not in ``live``."""
        for member in set(self).difference(live):
            del self[member]
