"""Words, normal forms and equality oracles for the basic group families.

A word is a tuple of letters; a letter is a pair (generator index, sign) with
sign +1 or -1.  The empty tuple is the identity.  Every family below has a
complete normal form, the one canonical form of an element, so ``equals``
compares normal forms.

Registered families:

* ``free:k``      free group of rank k
* ``z:d``         free abelian group of rank d
* ``lamplighter`` (Z/2) wr Z, generators a (lamp toggle, involution), t (move)
* ``dihedral``    infinite dihedral group, two involutions x, y
* ``zmod:n[,m,...]``  finite product of cyclic groups Z/n x Z/m x ...
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence, Tuple

from .errors import CapExceeded, ValidationError, vertex_budget

Letter = Tuple[int, int]
Word = Tuple[Letter, ...]

_FREE_NAMES = "abcdefghijklmnopqrstuvwxyz"
_ABELIAN_NAMES = ["x", "y", "z", "w"]


def _free_reduce(letters: Iterable[Letter],
                 involutions: Collection[int] = ()) -> Word:
    """Cancel adjacent inverse letters; a repeated letter of a generator in
    ``involutions`` cancels too (callers write those letters with sign +1)."""
    stack: list[Letter] = []
    for gen, sign in letters:
        if stack and stack[-1][0] == gen and (stack[-1][1] == -sign
                                              or gen in involutions):
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def tokenize(text: str, names: Sequence[str]) -> Word:
    """Letters of space-separated tokens ``name`` or ``name^exp``; "1" is the
    identity.  Letters are (index in ``names``, sign); nothing cancels.  A
    word longer than ``vertex_budget()`` letters raises CapExceeded before it
    is expanded."""
    budget = vertex_budget()
    out: list[Letter] = []
    for token in text.split():
        if token == "1":
            continue
        name, _, exp_text = token.partition("^")
        if name not in names:
            raise ValidationError(f"unknown generator {name!r}")
        gen = names.index(name)
        try:
            exp = int(exp_text) if exp_text else 1
        except ValueError:
            raise ValidationError(f"bad exponent in token {token!r}")
        sign = 1 if exp >= 0 else -1
        if len(out) + abs(exp) > budget:
            raise CapExceeded(
                f"word exceeded the memory cap ({len(out) + abs(exp)} > "
                f"{budget} letters); raise AMENLAB_CAP_MB to allow more",
                partial=len(out),
            )
        out.extend((gen, sign) for _ in range(abs(exp)))
    return tuple(out)


class MarkedGroup:
    """A finite generating set plus normal-form and equality oracles.

    Instances are immutable; all operations are pure.
    """

    def __init__(self, family: str, rank: int, names: Sequence[str],
                 involutions: Sequence[bool],
                 mods: Optional[Sequence[int]] = None):
        self.family = family
        self.rank = rank
        self.names = tuple(names)
        self.involutions = tuple(involutions)
        self.mods = None if mods is None else tuple(mods)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_spec(spec: str) -> "MarkedGroup":
        spec = spec.strip()
        if spec.startswith("free:"):
            k = _parse_rank(spec[5:], "free rank")
            if k > len(_FREE_NAMES):
                raise ValidationError(f"free rank at most {len(_FREE_NAMES)}")
            return MarkedGroup("free", k, _FREE_NAMES[:k], [False] * k)
        if spec.startswith("z:"):
            d = _parse_rank(spec[2:], "abelian rank")
            if d <= len(_ABELIAN_NAMES):
                names = _ABELIAN_NAMES[:d]
            else:
                names = [f"x{i + 1}" for i in range(d)]
            return MarkedGroup("z", d, names, [False] * d)
        if spec == "lamplighter":
            return MarkedGroup("lamplighter", 2, ["a", "t"], [True, False])
        if spec == "dihedral":
            return MarkedGroup("dihedral", 2, ["x", "y"], [True, True])
        if spec.startswith("zmod:"):
            try:
                mods = [int(part) for part in spec[5:].split(",")]
            except ValueError:
                raise ValidationError(f"bad finite group spec {spec!r}")
            if not mods or any(m < 1 for m in mods):
                raise ValidationError("zmod moduli must be >= 1")
            d = len(mods)
            if d <= len(_ABELIAN_NAMES):
                names = _ABELIAN_NAMES[:d]
            else:
                names = [f"x{i + 1}" for i in range(d)]
            return MarkedGroup("zmod", d, names, [m == 2 for m in mods], mods)
        raise ValidationError(f"unknown group spec {spec!r}")

    # -- word plumbing ------------------------------------------------

    @property
    def identity(self) -> Word:
        return ()

    def validate(self, word: Word):
        for gen, sign in word:
            if not 0 <= gen < self.rank:
                raise ValidationError(f"unknown generator index {gen}")
            if sign not in (1, -1):
                raise ValidationError(f"bad letter sign {sign}")

    def parse(self, text: str) -> Word:
        """Normal form of a word written as for ``tokenize``."""
        return self.normal_form(tokenize(text, self.names))

    def show(self, word: Word) -> str:
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            gen, sign = word[i]
            j = i
            while j < len(word) and word[j] == (gen, sign):
                j += 1
            exp = (j - i) * sign
            name = self.names[gen]
            if exp == 1:
                parts.append(name)
            else:
                parts.append(f"{name}^{exp}")
            i = j
        return " ".join(parts)

    # -- normal forms -------------------------------------------------

    def normal_form(self, word: Word) -> Word:
        self.validate(word)
        if self.family == "free":
            return _free_reduce(word)
        if self.family in ("z", "zmod"):
            out: list[Letter] = []
            for gen, e in enumerate(self._exponents(word)):
                sign = 1 if e >= 0 else -1
                out.extend((gen, sign) for _ in range(abs(e)))
            return tuple(out)
        if self.family == "lamplighter":
            # evaluate left to right, then light the lamps in increasing
            # order and walk to the final position
            lamps: set[int] = set()
            pos = 0
            for gen, sign in word:
                if gen == 0:  # a: toggle the lamp at the current position
                    lamps ^= {pos}
                else:  # t: move
                    pos += sign
            out = []
            here = 0
            for target in sorted(lamps) + [pos]:
                sign = 1 if target >= here else -1
                out.extend([(1, sign)] * abs(target - here))
                out.append((0, 1))
                here = target
            out.pop()  # the final position lights no lamp
            return tuple(out)
        if self.family == "dihedral":  # both generators are involutions
            return _free_reduce(((gen, 1) for gen, _sign in word), (0, 1))
        raise ValidationError(f"no normal form for family {self.family}")

    # -- group operations ---------------------------------------------

    def compose(self, w1: Word, w2: Word) -> Word:
        return self.normal_form(tuple(w1) + tuple(w2))

    def invert(self, word: Word) -> Word:
        self.validate(word)
        return self.normal_form(tuple((g, -s) for g, s in reversed(word)))

    def conjugate(self, word: Word, by: Word) -> Word:
        return self.compose(self.compose(self.invert(by), word), by)

    def commutator(self, w1: Word, w2: Word) -> Word:
        return self.compose(
            self.compose(self.invert(w1), self.invert(w2)),
            self.compose(w1, w2),
        )

    def power(self, word: Word, n: int) -> Word:
        if n < 0:
            return self.power(self.invert(word), -n)
        result = self.identity
        base = self.normal_form(word)
        while n:
            if n & 1:
                result = self.compose(result, base)
            base = self.compose(base, base)
            n >>= 1
        return result

    def equals(self, w1: Word, w2: Word) -> bool:
        return self.normal_form(w1) == self.normal_form(w2)

    def _exponents(self, word: Word) -> list:
        """Exponent sum of each generator, reduced mod its order for zmod."""
        exps = [0] * self.rank
        for gen, sign in word:
            exps[gen] += sign
        if self.mods is not None:
            exps = [e % m for e, m in zip(exps, self.mods)]
        return exps

    def length(self, word: Word) -> int:
        """Word length metric: letter count of the normal form."""
        return len(self.normal_form(word))

    def __repr__(self):
        return f"MarkedGroup({self.family}, rank={self.rank})"


def _parse_rank(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"bad {what}: {text!r}")
    if value < 1:
        raise ValidationError(f"{what} must be positive")
    return value
