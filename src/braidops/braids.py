"""Braid words, a decidable equality oracle, cabling and strand deletion.

Conventions, fixed once for the whole package:

* A braid word is read left to right, which is top to bottom in diagrams.
* The generator ``i`` (written ``s<i>``) crosses the strand at position ``i``
  over the strand at position ``i+1``; ``-i`` (written ``S<i>``) is its
  inverse.
* A permutation is its tuple of images: entry ``p-1`` of ``b.permutation()``
  is the end position of the strand that starts at position ``p``, so the
  permutation of ``a * b`` is that of ``a`` followed by that of ``b``.

Equality of braids a, b is decided on the quotient c = a b^-1 in three steps:

1. Cancellation: a letter cancels an earlier inverse when every letter between
   them is a far generator (``|i - j| >= 2``), which commutes with it; this is
   the trivial case of Dehornoy's handle reduction.
2. The cyclic step: c = 1 exactly when a conjugate of c is 1, so the first
   letter moves to the end, where it may cancel, until a full turn cancels
   nothing.  This shortens the word the action gets.  An empty word is the
   identity and needs no action.
3. What is left goes through the faithful action on the free group (sigma_i
   sends x_i to x_i x_{i+1} x_i^{-1} and x_{i+1} to x_i), which decides it
   exactly.  A free word longer than ``MAX_FREE_WORD`` letters is refused
   with ``ValueError``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .exact import int_from_json

MAX_FREE_WORD = 2 ** 22
#: largest strand count of a braid word, and most letters a cabling may build
MAX_BRAID_STRANDS = 1000
MAX_BRAID_LETTERS = 100_000


def permute_seq(seq: Sequence, images: Sequence[int]) -> tuple:
    """Move seq entries along a permutation's images: out[images[p-1]-1] = seq[p-1]."""
    assert len(seq) == len(images)
    out = [None] * len(seq)
    for item, q in zip(seq, images):
        out[q - 1] = item
    return tuple(out)


class BraidWord:
    """Word in Artin generators on ``strands`` strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        if strands < 0:
            raise ValueError(f"negative strand count {strands}")
        if strands > MAX_BRAID_STRANDS:
            raise ValueError(f"a braid on {strands} strands exceeds the limit of {MAX_BRAID_STRANDS}")
        letters = tuple(letters)
        for l in letters:
            if l == 0 or abs(l) >= strands:
                raise ValueError(f"letter {l} out of range for {strands} strands")
        self.strands = strands
        self.letters = letters

    @classmethod
    def _unchecked(cls, strands: int, letters: tuple[int, ...]) -> "BraidWord":
        """A word whose letters are already known to be in range for ``strands``."""
        word = object.__new__(cls)
        word.strands = strands
        word.letters = letters
        return word

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError(f"strand-count mismatch: {self.strands} and {other.strands} strands")
        return BraidWord._unchecked(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord._unchecked(self.strands, tuple(-l for l in reversed(self.letters)))

    def shift(self, k: int, strands: int) -> "BraidWord":
        """Embed into the braid group on ``strands`` strands, moving all positions up by k."""
        assert strands >= self.strands + k
        return BraidWord(strands, tuple(l + k if l > 0 else l - k for l in self.letters))

    def permutation(self) -> tuple[int, ...]:
        """Image tuple: entry p-1 is the end position of the strand that starts at p."""
        order = list(range(1, self.strands + 1))  # order[q-1]: start of the strand now at q
        for l in self.letters:
            i = abs(l)
            order[i - 1], order[i] = order[i], order[i - 1]
        return permute_seq(range(1, self.strands + 1), order)

    def __eq__(self, other):
        return (isinstance(other, BraidWord)
                and self.strands == other.strands and self.letters == other.letters)

    def __hash__(self):
        return hash((self.strands, self.letters))

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"BraidWord({self.strands}, {format_braid(self)!r})"


# -- free group and the Artin action -----------------------------------------


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a word over x_1, x_2, ... (negative = inverse)."""
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


def _act_letter(letter: int, word: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a free word under one Artin generator, freely reduced."""
    i, j = abs(letter), abs(letter) + 1
    # images of x_i and x_{i+1}, then of their inverses (reversed and negated)
    if letter > 0:  # x_i -> x_i x_{i+1} x_i^{-1}, x_{i+1} -> x_i
        img_i, img_j, inv_i, inv_j = (i, j, -i), (i,), (i, -j, -i), (-i,)
    else:           # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^{-1} x_i x_{i+1}
        img_i, img_j, inv_i, inv_j = (j,), (-j, i, j), (-j,), (-j, -i, j)
    out: list[int] = []
    for l in word:
        a = abs(l)
        if a == i:
            seq = img_i if l > 0 else inv_i
        elif a == j:
            seq = img_j if l > 0 else inv_j
        else:
            seq = (l,)
        for s in seq:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
    return tuple(out)


def artin_action(braid: BraidWord, word: Iterable[int]) -> tuple[int, ...]:
    """Act on a free-group word over x_1..x_n; letters apply in word order."""
    w = free_reduce(word)
    for l in w:
        assert 1 <= abs(l) <= braid.strands, "alphabet mismatch"
    for letter in braid.letters:
        w = _act_letter(letter, w)
        if len(w) > MAX_FREE_WORD:
            raise ValueError(f"free word exceeds the limit of {MAX_FREE_WORD} letters "
                             f"for braid equality")
    return w


def _push(out: list[int], letter: int) -> bool:
    """Cancel ``letter`` against the last earlier inverse behind far letters, else append it."""
    i = abs(letter)
    for k in range(len(out) - 1, -1, -1):
        l = out[k]
        if l == -letter:
            del out[k]
            return True
        if -2 < abs(l) - i < 2:
            break
    out.append(letter)
    return False


def cancel_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """The same braid, no longer: each letter cancels an earlier inverse across far letters."""
    out: list[int] = []
    for l in letters:
        _push(out, l)
    return tuple(out)


def cancel_cyclic(letters: Iterable[int]) -> tuple[int, ...]:
    """A conjugate of ``cancel_letters(letters)``, no longer, trivial exactly when it is.

    The first letter moves to the end, where it may cancel; a full turn that
    cancels nothing ends the loop.
    """
    out = list(cancel_letters(letters))
    turns = 0
    while turns < len(out):
        turns = 0 if _push(out, out.pop(0)) else turns + 1
    return tuple(out)


def braids_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same braid group element."""
    if a.strands != b.strands:
        raise ValueError("strand-count mismatch")
    if a.letters == b.letters:
        return True
    if a.permutation() != b.permutation():
        return False
    letters = cancel_cyclic((a * b.inverse()).letters)
    if not letters:
        return True
    c = BraidWord(a.strands, letters)
    return all(artin_action(c, (i,)) == (i,) for i in range(1, a.strands + 1))


# -- cabling and deletion -----------------------------------------------------


def inflate(b: BraidWord, widths: Sequence[int]) -> BraidWord:
    """Replace the strand starting at position p by widths[p-1] parallel strands.

    Each crossing becomes a block crossing with the same sign; width 0 deletes
    the strand.  The underlying permutation of the result is the block
    inflation of ``b``'s permutation.
    """
    widths = list(widths)
    assert len(widths) == b.strands and all(w >= 0 for w in widths)
    cur = widths[:]  # widths indexed by current geometric position
    blocks = []      # per letter: sign, strands left of the block crossing, both widths
    for l in b.letters:
        i = abs(l)
        blocks.append((1 if l > 0 else -1, sum(cur[: i - 1]), cur[i - 1], cur[i]))
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
    size = sum(a_w * b_w for _, _, a_w, b_w in blocks)
    if size > MAX_BRAID_LETTERS:
        raise ValueError(f"a cabled braid of {size} letters exceeds the limit of "
                         f"{MAX_BRAID_LETTERS}")
    return BraidWord(sum(widths), [sign * (s + ii + jj - 1) for sign, s, a_w, b_w in blocks
                                   for ii in range(a_w, 0, -1) for jj in range(1, b_w + 1)])


def cable(b: BraidWord, position: int, width: int) -> BraidWord:
    """Replace the strand starting at ``position`` by ``width`` parallel strands."""
    if not (1 <= position <= b.strands):
        raise ValueError("position out of range")
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    widths = [1] * b.strands
    widths[position - 1] = width
    return inflate(b, widths)


def splice(outer: BraidWord, start: int, end: int, inner: BraidWord) -> BraidWord:
    """Insert ``inner`` at the strand of ``outer`` that runs from ``start`` to ``end``.

    The strand is cabled by ``inner.strands`` parallel strands and ``inner`` is
    appended where the cabled block ends.
    """
    cabled = cable(outer, start, inner.strands)
    return cabled * inner.shift(end - 1, cabled.strands)


def delete_strand(b: BraidWord, position: int) -> BraidWord:
    """Remove the strand starting at ``position`` and every crossing it carries."""
    if not (1 <= position <= b.strands):
        raise ValueError("position out of range")
    return cable(b, position, 0)


# -- corridor weaving ---------------------------------------------------------


def comb_word(flags: Sequence[bool]) -> BraidWord:
    """Braid gathering all flagged strands on the left, orders preserved.

    At every crossing the unflagged strand passes over the flagged one; two
    flagged strands never cross, nor do two unflagged ones.
    """
    n = len(flags)
    arrangement = list(flags)
    letters: list[int] = []
    target = 0
    for k in range(n):
        if not flags[k]:
            continue
        # locate the next flagged strand in the current arrangement
        pos = arrangement.index(True, target)
        for q in range(pos, target, -1):
            letters.append(q)  # strand at q (unflagged) over strand at q+1
            arrangement[q - 1], arrangement[q] = arrangement[q], arrangement[q - 1]
        target += 1
    return BraidWord(n, letters)


def weave(braid: BraidWord, src_flags: Sequence[bool], tgt_flags: Sequence[bool]) -> BraidWord:
    """Weave silent corridor strands through ``braid``.

    ``src_flags``/``tgt_flags`` mark the corridor positions at top and bottom;
    both must contain the same number k of corridors, and ``braid`` acts on the
    remaining n unflagged strands.  Corridor strands keep their relative order,
    never cross each other, and every corridor/plain crossing has the plain
    strand on top.
    """
    k = sum(src_flags)
    assert sum(tgt_flags) == k
    n = len(src_flags) - k
    assert braid.strands == n and len(tgt_flags) == len(src_flags)
    middle = braid.shift(k, n + k)
    return comb_word(src_flags) * middle * comb_word(tgt_flags).inverse()


# -- crossing audit (oracle support) ------------------------------------------


def crossings(b: BraidWord) -> list[tuple[int, int, int]]:
    """Per letter: (starting position of over-strand, of under-strand, sign)."""
    occupant = list(range(1, b.strands + 1))  # occupant[pos-1] = starting position
    out = []
    for l in b.letters:
        i = abs(l)
        upper, lower = occupant[i - 1], occupant[i]
        if l > 0:
            out.append((upper, lower, 1))
        else:
            out.append((lower, upper, -1))
        occupant[i - 1], occupant[i] = occupant[i], occupant[i - 1]
    return out


# -- text and JSON formats ----------------------------------------------------


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse "s1 S2 s1" notation (lowercase positive, uppercase inverse)."""
    letters = []
    for tok in text.split():
        if not tok or tok[0] not in "sS" or not tok[1:].isdigit():
            raise ValueError(f"bad braid token: {tok!r}")
        i = int(tok[1:])
        letters.append(i if tok[0] == "s" else -i)
    return BraidWord(strands, letters)


def format_braid(b: BraidWord) -> str:
    return " ".join((f"s{l}" if l > 0 else f"S{-l}") for l in b.letters)


def braid_to_json(b: BraidWord) -> dict:
    return {"strands": b.strands, "word": list(b.letters)}


def braid_from_json(data: dict) -> BraidWord:
    return BraidWord(int_from_json(data["strands"], "strands"),
                     [int_from_json(x, "a braid letter") for x in data["word"]])
