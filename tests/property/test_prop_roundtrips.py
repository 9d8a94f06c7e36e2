"""Property tests: text round-trips for the reader and the assembler."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.compiler.sexpr import Symbol, read_one, to_text
from repro.isa import asmtext
from repro.isa.instruction import Operation
from repro.isa.operands import Imm, Label, Reg
from repro.isa.operations import all_opcodes

symbols = st.text(alphabet="abcdefghijklmnopqrstuvwxyz!?*+-<>=",
                  min_size=1, max_size=8).filter(
    lambda s: not s.lstrip("+-").replace(".", "").isdigit()
    and s not in ("+", "-"))

atoms = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32)
      .map(lambda f: float(f)),
    symbols.map(Symbol),
)

forms = st.recursive(atoms, lambda children: st.lists(
    children, min_size=0, max_size=4), max_leaves=20)


class TestSexprRoundtrip:
    @given(forms.filter(lambda f: isinstance(f, list)))
    @example([Symbol("inf")])
    @example([Symbol("nan"), Symbol("infinity"), Symbol("-inf")])
    @example([Symbol("NaN"), [Symbol("+Infinity")], 1.5])
    @settings(max_examples=150)
    def test_print_then_read_is_identity(self, form):
        assert read_one(to_text(form)) == form


regs = st.builds(Reg, st.integers(0, 7), st.integers(0, 63))
imms = st.one_of(
    st.integers(-1000, 1000).map(Imm),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-100, max_value=100).map(Imm))
sources = st.one_of(regs, imms)

_ARITH = [name for name, spec in all_opcodes().items()
          if spec.has_dest and spec.semantics is not None
          and not spec.is_memory]
_LOADS = ["ld", "ld_ff", "ld_fe"]
_STORES = ["st", "st_ff", "st_ef"]


@st.composite
def operations(draw):
    kind = draw(st.sampled_from(["arith", "load", "store", "branch",
                                 "fork"]))
    if kind == "arith":
        name = draw(st.sampled_from(_ARITH))
        spec = all_opcodes()[name]
        n_dests = draw(st.integers(1, 2))
        return Operation(
            name,
            dests=tuple(draw(regs) for __ in range(n_dests)),
            srcs=tuple(draw(sources) for __ in range(spec.n_srcs)))
    if kind == "load":
        return Operation(draw(st.sampled_from(_LOADS)),
                         dests=(draw(regs),),
                         srcs=(draw(sources), draw(imms)))
    if kind == "store":
        return Operation(draw(st.sampled_from(_STORES)),
                         srcs=(draw(sources), draw(sources),
                               draw(imms)))
    if kind == "branch":
        name = draw(st.sampled_from(["br", "brt", "brf"]))
        srcs = (draw(regs),) if name != "br" else ()
        return Operation(name, srcs=srcs, target=Label("L7"))
    bindings = tuple((draw(regs), draw(sources))
                     for __ in range(draw(st.integers(0, 3))))
    return Operation("fork", target=Label("child"), bindings=bindings)


class TestAsmRoundtrip:
    @given(operations())
    @settings(max_examples=300)
    def test_operation_text_roundtrip(self, op):
        text = asmtext.emit_operation(op)
        parsed = asmtext.parse_operation(text)
        assert parsed.name == op.name
        assert parsed.dests == op.dests
        assert parsed.srcs == op.srcs
        assert parsed.target == op.target
        assert parsed.bindings == op.bindings
