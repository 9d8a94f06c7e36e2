"""S-expression reader."""

import pytest

from repro.compiler.sexpr import Symbol, read_all, read_one, to_text
from repro.errors import CompileError


class TestReader:
    def test_atoms(self):
        assert read_one("42") == 42
        assert read_one("-3") == -3
        assert read_one("2.5") == 2.5
        assert read_one("-0.5") == -0.5
        assert read_one("foo") == Symbol("foo")

    def test_nesting(self):
        assert read_one("(+ 1 (* 2 3))") == \
            [Symbol("+"), 1, [Symbol("*"), 2, 3]]

    def test_multiple_top_level_forms(self):
        assert len(read_all("(a) (b) (c)")) == 3

    def test_comments_stripped(self):
        assert read_all("(a 1) ; trailing\n; full line\n(b 2)") == \
            [[Symbol("a"), 1], [Symbol("b"), 2]]

    def test_float_words_stay_symbols(self):
        # float() accepts these, but only a numeral reads as a number.
        for word in ("inf", "nan", "infinity", "-inf", "+NaN",
                     "Infinity"):
            atom = read_one(word)
            assert isinstance(atom, Symbol) and atom == word
        assert read_one(to_text([Symbol("inf")])) == [Symbol("inf")]
        assert read_one(".5") == 0.5
        assert read_one("-.5e3") == -500.0
        assert read_one("1e5") == 100000.0

    def test_symbols_with_punctuation(self):
        assert read_one("aset!") == Symbol("aset!")
        assert read_one(":cluster") == Symbol(":cluster")
        assert read_one("<=") == Symbol("<=")

    def test_unbalanced_close(self):
        with pytest.raises(CompileError):
            read_all("(a))")

    def test_unbalanced_open(self):
        with pytest.raises(CompileError):
            read_all("((a)")

    def test_read_one_rejects_many(self):
        with pytest.raises(CompileError):
            read_one("(a) (b)")

    def test_to_text_roundtrip(self):
        form = read_one("(let ((x 1)) (set! x (+ x 2.5)))")
        assert read_one(to_text(form)) == form
