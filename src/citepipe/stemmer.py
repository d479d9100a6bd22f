"""Classic suffix-stripping stemmer (Porter's algorithm).

Measure-based rules over the consonant/vowel skeleton of a word, applied in
five fixed steps. The exact outputs are frozen by golden tests; the stem
matcher in the metrics module only relies on equal stems for inflectional
variants of the same word.
"""

from __future__ import annotations

import functools

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # number of vowel-to-consonant transitions, the m of [C](VC)^m[V]
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_cons(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not _is_cons(word, len(word) - 3):
        return False
    if _is_cons(word, len(word) - 2):
        return False
    if not _is_cons(word, len(word) - 1):
        return False
    return word[-1] not in "wxy"


def _replace_longest(word: str, rules: list[tuple[str, str]], min_measure: int) -> str:
    """Apply the longest matching suffix rule whose stem clears min_measure.

    `rules` must be ordered longest suffix first.
    """
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


# rule tables are ordered longest suffix first, the order the steps try them in
_STEP2 = sorted([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
], key=lambda r: -len(r[0]))

_STEP3 = sorted([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
], key=lambda r: -len(r[0]))

_STEP4 = sorted([
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
], key=len, reverse=True)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word

    stripped = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word

    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_cons(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                return stem
            return word
    # ion drops only after s or t
    if word.endswith("ion"):
        stem = word[:-3]
        if stem and stem[-1] in "st" and _measure(stem) > 1:
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_cons(word) and word.endswith("l"):
        return word[:-1]
    return word


@functools.lru_cache(maxsize=None)
def stem(word: str) -> str:
    """Stem one lowercase token. Words shorter than 3 characters pass through.

    Results are memoised for the life of the process: scoring stems the same
    few thousand distinct tokens tens of thousands of times.
    """
    if len(word) < 3:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2, 0)
    word = _replace_longest(word, _STEP3, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
