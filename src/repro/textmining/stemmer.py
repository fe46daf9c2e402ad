"""Porter stemming algorithm (M. F. Porter, 1980), implemented from scratch.

The classic five-step suffix-stripping stemmer.  Used to normalize bug
descriptions before vectorization so that "crashed", "crashes", and
"crashing" share one vocabulary entry.
"""

from __future__ import annotations

import functools


_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # 'y' is a consonant at the start or after a vowel position that was
        # itself a consonant.
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """The Porter measure m: the number of VC sequences in the stem."""
    forms = []
    for i in range(len(stem)):
        forms.append("c" if _is_consonant(stem, i) else "v")
    collapsed = []
    for f in forms:
        if not collapsed or collapsed[-1] != f:
            collapsed.append(f)
    pattern = "".join(collapsed)
    if pattern.startswith("c"):
        pattern = pattern[1:]
    if pattern.endswith("v"):
        pattern = pattern[:-1]
    return pattern.count("vc")


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant where final consonant is not w, x, or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


class PorterStemmer:
    """Stateless Porter stemmer.  ``stem`` is safe to call concurrently."""

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (lower-cased)."""
        return _stem(word)

    def _stem_uncached(self, word: str) -> str:
        word = word.lower()
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- step 1a: plurals ---------------------------------------------------
    @staticmethod
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

    # -- step 1b: -ed / -ing ------------------------------------------------
    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            if _measure(word[:-3]) > 0:
                return word[:-1]
            return word
        stripped = None
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            stripped = word[:-2]
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            stripped = word[:-3]
        if stripped is None:
            return word
        if stripped.endswith(("at", "bl", "iz")):
            return stripped + "e"
        if _ends_double_consonant(stripped) and not stripped.endswith(("l", "s", "z")):
            return stripped[:-1]
        if _measure(stripped) == 1 and _ends_cvc(stripped):
            return stripped + "e"
        return stripped

    # -- step 1c: -y -> -i --------------------------------------------------
    @staticmethod
    def _step1c(word: str) -> str:
        if word.endswith("y") and _contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_RULES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_RULES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP3_RULES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_RULES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _step4(self, word: str) -> str:
        if word.endswith("ion") and len(word) > 4 and word[-4] in ("s", "t"):
            stem = word[:-3]
            if _measure(stem) > 1:
                return stem
            return word
        # Longest-match first so "-ement" beats "-ent".
        for suffix in sorted(self._STEP4_SUFFIXES, key=len, reverse=True):
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if _measure(stem) > 1:
                    return stem
                return word
        return word

    @staticmethod
    def _step5a(word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = _measure(stem)
            if m > 1 or (m == 1 and not _ends_cvc(stem)):
                return stem
        return word

    @staticmethod
    def _step5b(word: str) -> str:
        if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
            return word[:-1]
        return word


_PORTER = PorterStemmer()


# A pipeline run stems the same few hundred words tens of thousands of
# times; ``lru_cache`` is thread-safe, and the bound caps memory on
# open-ended vocabularies.
@functools.lru_cache(maxsize=1 << 16)
def _stem(word: str) -> str:
    return _PORTER._stem_uncached(word)
