"""The discriminant scans behind the classify subcommand.

classify_h1 lists the negative discriminants d with |d| up to a bound and
class number one, and classify_two_torsion those whose class group has
exponent at most 2 (one class per genus).  Both read the flags of
reduced_form_flags, which marks each |d| from arithmetic progressions of
primitive reduced forms, never listing the forms one by one, and
classify_report builds the classify document from them.  The module needs
neither the forms layer nor composition, so a cold classify loads cli,
errors and this module alone.
"""

from __future__ import annotations

import math
from itertools import compress

from .errors import VerificationError


def reduced_form_flags(bound: int) -> tuple[bytearray, bytearray]:
    """Two flags per n = |d| <= bound, from the primitive reduced forms
    (a, b, c) with a >= 2 and b >= 0.

    nonprincipal[n] is set when some primitive reduced form of discriminant
    -n has a >= 2, so h(-n) > 1.  nonambiguous[n] is set when one has
    0 < b < a < c, so its class is not its own inverse.  A reduced form with
    b < 0 has the same a and c as its b > 0 companion, so it adds no flag.

    The forms are never listed one by one.  For fixed a and b, with
    g = gcd(a, b), (a, b, c) is primitive exactly when gcd(c, g) = 1, so the
    admissible c are the residue classes r mod g with gcd(r, g) = 1 (the one
    class mod 1 when g = 1).  On such a class n = 4ac - b^2 runs through an
    arithmetic progression of step 4ag, and n <= bound exactly when
    c <= (b^2 + bound) / 4a.  Each progression sets its flags in one
    bytearray slice assignment from a buffer of ones: nonprincipal from the
    first c >= a of the class, nonambiguous (when 0 < b < a) from the first
    c > a.
    """
    if not 0 <= bound <= 10**6:
        raise VerificationError("PRECONDITION", f"bound {bound} out of range")
    nonprincipal = bytearray(bound + 1)
    nonambiguous = bytearray(bound + 1)
    # a >= 2 makes every step at least 8, so no slice is longer than this
    ones = bytearray(b"\x01") * (bound // 8 + 1)
    amax = math.isqrt(bound // 3)
    units = [[r for r in range(g) if math.gcd(r, g) == 1] for g in range(amax + 1)]
    for a in range(2, amax + 1):
        for b in range(a + 1):
            g = math.gcd(a, b)
            step = 4 * a * g
            for r in units[g]:
                c = a + (r - a) % g  # the least c >= a with c = r mod g
                n = 4 * a * c - b * b
                nonprincipal[n::step] = ones[: len(range(n, bound + 1, step))]
                if 0 < b < a:
                    if c == a:
                        n += step
                    nonambiguous[n::step] = ones[: len(range(n, bound + 1, step))]
    return nonprincipal, nonambiguous


# bytes.translate table: a clear flag becomes a compress selector, a set one not
_CLEAR = bytes([1]) + bytes(255)


def _unflagged(flags: bytearray) -> list[int]:
    """The negative discriminants -n, by increasing n >= 3, whose flag is clear.

    Only the slots n = 3 and n = 0 (mod 4) are read, as two strided slices.
    """
    ns = []
    for start in (3, 4):
        clear = flags[start::4].translate(_CLEAR)
        ns += compress(range(start, len(flags), 4), clear)
    return [-n for n in sorted(ns)]


def classify_h1(bound: int) -> list[int]:
    """All negative discriminants with |d| <= bound and class number one."""
    return _unflagged(reduced_form_flags(bound)[0])


def classify_two_torsion(bound: int) -> list[int]:
    """All negative discriminants with |d| <= bound and Cl(d) of exponent <= 2.

    That is the case precisely when every reduced form is ambiguous.  The
    squaring test, classgroups.FormClassGroup.is_two_torsion, stays as the
    independent check.
    """
    return _unflagged(reduced_form_flags(bound)[1])


_TWO_TORSION_NOTE = (
    "completeness above |d| = 10000 rests on the standard one-class-per-genus "
    "finiteness expectation; the list is unconditionally complete up to at "
    "most one further discriminant"
)


def classify_report(bound: int, two_torsion: bool) -> dict:
    """The classify document: the scan of classify_two_torsion when
    two_torsion is set, of classify_h1 otherwise, and its note."""
    discs = (classify_two_torsion if two_torsion else classify_h1)(bound)
    out = {
        "bound": bound,
        "kind": "two_torsion" if two_torsion else "class_number_one",
        "count": len(discs),
        "discriminants": discs,
    }
    if two_torsion:
        out["note"] = _TWO_TORSION_NOTE
    return out
