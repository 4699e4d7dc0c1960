"""What every module shares: hash-consing, a bottom-up builder, refusals.

`Interned` is the base of the hash-consed classes (Filliâtre and Conchon,
*Type-Safe Modular Hash-Consing*, 2006).  `Syntax` is the one base that
interns all three syntaxes, ground terms, formulas and polarized formulas,
by their fields.  `fold` builds a value of a tree from the bottom up with
its own stack, so a tree of any depth can be built.
"""

from __future__ import annotations

from weakref import ref as weak_ref


class Refusal(ValueError):
    """A fault of the input or the request, not a bug: the CLI exits 2."""


def gone():
    """What a dead weak reference gives; the table default for a new key:
    `cls._interned.get(key, gone)()` is the live instance with key, or None."""
    return None


class Interned:
    """A value that is the one live instance with its key `_key`.  Each
    subclass has a table `_interned`, key -> weak reference to that
    instance, which its constructor fills and which the instance leaves
    when it dies.  Instances are shared, so no field is assigned after
    construction."""

    __slots__ = ("_key", "__weakref__")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._interned = {}

    def __del__(self):
        table, key = type(self)._interned, self._key
        if (ref := table.get(key)) is not None and ref() in (self, None):
            del table[key]


class Syntax(Interned):
    """A node of a syntax tree, keyed by its fields: each subclass is a
    constructor whose `__slots__` name its fields, in order.  Equal trees
    are one object, and the hash is `hash(fields)`, a frozen dataclass's.
    `_made` caches what a subclass keeps beside the fields of a new node."""

    __slots__ = ("_hash",)

    def __new__(cls, *fields):
        if (t := cls._interned.get(fields, gone)()) is not None:
            return t
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} "
                            f"fields, got {len(fields)}")
        t = object.__new__(cls)
        t._key = fields
        for name, value in zip(cls.__slots__, fields):
            setattr(t, name, value)
        t._hash = hash(fields)
        t._made()
        cls._interned[fields] = weak_ref(t)
        return t

    def _made(self) -> None:
        pass

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._key)
        return f"{type(self).__name__}({', '.join(fields)})"


def fold(top, enter):
    """The value of top, built from the bottom up.  `enter(item)`, called
    on each item before its parts, gives (make, parts, positions): parts is
    a list, and the item's value is make(parts) once the part at each of
    the positions (a sequence, entered in its order) is replaced by its own
    value.  A make of None makes parts itself the value."""
    top = [top]
    todo, built = [(top, 0)], []         # built: each item before its parts
    while todo:
        holder, i = todo.pop()
        make, parts, positions = enter(holder[i])
        if make is None:
            holder[i] = parts
            continue
        built.append((holder, i, make, parts))
        todo += [(parts, j) for j in reversed(positions)]
    for holder, i, make, parts in reversed(built):
        holder[i] = make(parts)
    return top[0]
