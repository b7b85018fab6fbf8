"""End-to-end simulator tests: assemble small kernels and run them."""

import struct

import pytest

from repro.cpu import Image, Simulator
from repro.cpu.costs import CostModel
from repro.errors import SimulatorError
from repro.x86 import parse_asm
from repro.x86.asm import assemble


@pytest.fixture
def img():
    return Image()


def load(img, name, src):
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(src), base=base)
    img.add_function(name, code)
    return Simulator(img)


def test_max_function(img):
    sim = load(img, "max", """
        mov rax, rdi
        cmp rdi, rsi
        cmovl rax, rsi
        ret
    """)
    assert sim.call_int("max", (3, 7)) == 7
    assert sim.call_int("max", (7, 3)) == 7
    assert sim.call_int("max", (-3 & (2**64 - 1), 2)) == 2
    assert sim.call_int("max", (-3 & (2**64 - 1), -9 & (2**64 - 1))) == -3


def test_loop_sum_doubles(img):
    arr = img.alloc_data(8 * 16)
    img.memory.write(arr, struct.pack("<16d", *[float(i) for i in range(16)]))
    sim = load(img, "sum", """
        pxor xmm0, xmm0
        xor eax, eax
    loop:
        cmp rax, rsi
        jge done
        addsd xmm0, [rdi + 8*rax]
        add rax, 1
        jmp loop
    done:
        ret
    """)
    assert sim.call_f64("sum", (arr, 16)) == sum(range(16))


def test_nested_call(img):
    sim = load(img, "double_it", """
        lea rax, [rdi + rdi]
        ret
    """)
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(f"""
        call {img.symbol('double_it')}
        add rax, 1
        ret
    """), base=base)
    img.add_function("wrap", code)
    assert sim.call_int("wrap", (21,)) == 43


def test_recursion_factorial(img):
    base = img.next_code_addr()
    # place at a known address so the recursive call target is resolvable
    src = f"""
        cmp rdi, 1
        jg rec
        mov rax, 1
        ret
    rec:
        push rdi
        sub rdi, 1
        call {base}
        pop rdi
        imul rax, rdi
        ret
    """
    code, _ = assemble(parse_asm(src), base=base)
    img.add_function("fact", code)
    sim = Simulator(img)
    assert sim.call_int("fact", (6,)) == 720


def test_stats_accounting(img):
    sim = load(img, "three", """
        mov rax, 1
        add rax, 2
        ret
    """)
    res = sim.call("three")
    assert res.stats.instructions == 3
    assert res.stats.per_mnemonic == {"mov": 1, "add": 1, "ret": 1}
    assert res.stats.cycles > 0


def test_cost_model_scales_cycles(img):
    arr = img.alloc_data(8)
    expensive = CostModel().with_base({"addsd": 100})
    src = """
        addsd xmm0, xmm1
        ret
    """
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(src), base=base)
    img.add_function("f", code)
    cheap_cycles = Simulator(img).call("f").stats.cycles
    costly_cycles = Simulator(img, expensive).call("f").stats.cycles
    assert costly_cycles - cheap_cycles == pytest.approx(97.0)


def test_unaligned_vector_access_costs_more(img):
    a16 = img.alloc_data(64, align=16)
    src = f"""
        movupd xmm0, [rdi]
        ret
    """
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(src), base=base)
    img.add_function("ld", code)
    sim = Simulator(img)
    aligned = sim.call("ld", (a16,)).stats.cycles
    unaligned = sim.call("ld", (a16 + 8,)).stats.cycles
    assert unaligned > aligned


def test_infinite_loop_guard(img):
    sim = load(img, "spin", """
    here:
        jmp here
    """)
    with pytest.raises(SimulatorError):
        sim.call("spin", max_steps=1000)


def test_loads_and_stores_of_a_reduction_loop(img):
    arr = img.alloc_data(8 * 4)
    sim = load(img, "sum", """
        xor eax, eax
    top:
        add rax, [rdi]
        add rdi, 8
        sub rsi, 1
        jne top
        ret
    """)
    stats = sim.call("sum", (arr, 4)).stats
    # four memory-operand reads, and ret pops the return address
    assert (stats.loads, stats.stores) == (4 + 1, 0)


def test_loads_and_stores_of_stack_traffic_and_rmw(img):
    slot = img.alloc_data(8)
    sim = load(img, "f", """
        push rbx
        mov rbx, rdi
        call g
        mov [rsi], rax
        add qword ptr [rsi], 1
        pop rbx
        ret
    g:
        lea rax, [rbx + 1]
        ret
    """)
    res = sim.call("f", (40, slot))
    assert img.memory.read_u64(slot) == 42
    # loads: the add's read, pop, two rets; lea touches no memory.
    # stores: push, call's return address, mov, the add's write-back
    assert (res.stats.loads, res.stats.stores) == (4, 4)
    twice = sim.call("f", (40, slot), stats=res.stats).stats
    assert (twice.loads, twice.stores) == (8, 8)


def test_stack_argument_limit(img):
    sim = load(img, "f", "ret")
    with pytest.raises(SimulatorError):
        sim.call("f", tuple(range(7)))


def test_undefined_symbol(img):
    sim = Simulator(img)
    with pytest.raises(SimulatorError):
        sim.call("nope")


def test_f64_args_in_xmm(img):
    sim = load(img, "fma", """
        mulsd xmm0, xmm1
        addsd xmm0, xmm2
        ret
    """)
    assert sim.call_f64("fma", (), (3.0, 4.0, 5.0)) == 17.0


def test_jit_function_added_later(img):
    sim = load(img, "id", "mov rax, rdi\nret")
    base = img.next_code_addr(jit=True)
    code, _ = assemble(parse_asm("lea rax, [rdi + 5]\nret"), base=base)
    img.add_function("jitted", code, jit=True)
    assert sim.call_int("jitted", (10,)) == 15
