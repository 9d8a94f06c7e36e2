"""Compilation driver: source text to an executable program.

Pipeline per thread: parse -> macro expansion (constants, unrolling,
forall, procedure inlining) -> lowering to IR -> optimization ->
critical-path list scheduling for the thread's cluster assignment ->
code generation.  The driver also assigns fork sites their placements
(TPE cluster pins / coupled cluster-order rotations), compiles one
thread variant per distinct (kernel, placement) pair, and links fork
bindings against callee parameter registers.
"""

from dataclasses import dataclass

from ..errors import CompileError
from ..isa.instruction import DataSegment, Program
from . import cache as compile_cache
from . import liveness
from .astnodes import Fork, If, Let, ProgramAST, Seq, While
from .codegen import generate_thread
from .frontend import parse_program
from .lowering import lower_thread
from .macroexpand import Expander, expand_kernel, expand_thread, \
    resolve_consts
from .optimize import optimize_thread
from .options import CompilerOptions, DEFAULT_OPTIONS
from .schedule.modes import MODES, SINGLE_THREAD_MODES, main_spec, \
    thread_spec
from .schedule.scheduler import ThreadScheduler


@dataclass
class CompiledProgram:
    """The output of :func:`compile_program`."""

    program: Program
    config: object
    mode: str
    reports: dict                 # thread name -> ThreadReport
    consts: dict

    @property
    def main_report(self):
        return self.reports["main"]

    def peak_registers(self):
        """Peak registers per cluster across all threads (the paper
        reports this instead of performing register allocation)."""
        peaks = {}
        for report in self.reports.values():
            for cluster, count in report.peak_registers.items():
                peaks[cluster] = max(peaks.get(cluster, 0), count)
        return peaks

    def static_operation_count(self):
        return sum(r.operations for r in self.reports.values())


def iter_forks(node):
    """Yield every Fork statement in an expanded statement tree."""
    if isinstance(node, Fork):
        yield node
    elif isinstance(node, Seq):
        for child in node.body:
            yield from iter_forks(child)
    elif isinstance(node, Let):
        yield from iter_forks(node.body)
    elif isinstance(node, If):
        yield from iter_forks(node.then)
        if node.els is not None:
            yield from iter_forks(node.els)
    elif isinstance(node, While):
        yield from iter_forks(node.body)


class _VariantPlanner:
    """Assigns fork sites to thread variants.

    TPE pins each fork site's threads to one arithmetic cluster
    (round-robin over sites unless the source gives ``:cluster``);
    coupled gives each site a rotation of the cluster preference order.
    One compiled variant exists per (kernel, placement).
    """

    def __init__(self, mode, config):
        self.mode = mode
        self.config = config
        self.arith = config.arithmetic_clusters()
        self.site_counter = 0
        self.variants = {}          # variant name -> (kernel, placement)

    def assign(self, body):
        for fork in iter_forks(body):
            if self.mode in SINGLE_THREAD_MODES:
                raise CompileError(
                    "mode %r is single-threaded but the program forks "
                    "kernel %r" % (self.mode, fork.kernel))
            if self.mode == "tpe":
                if fork.cluster is not None:
                    placement = fork.cluster
                else:
                    placement = self.arith[self.site_counter
                                           % len(self.arith)]
            else:   # coupled
                if fork.cluster is not None:
                    placement = fork.cluster % len(self.arith)
                else:
                    placement = self.site_counter % len(self.arith)
            self.site_counter += 1
            variant = "%s@%d" % (fork.kernel, placement)
            fork.variant = variant
            if variant not in self.variants:
                self.variants[variant] = (fork.kernel, placement)


def _topological_variants(bodies):
    """Children-first ordering of thread variants (fork targets must be
    generated before their callers)."""
    order = []
    state = {}

    def visit(name):
        if state.get(name) == "done":
            return
        if state.get(name) == "visiting":
            raise CompileError("recursive fork cycle through %r" % name)
        state[name] = "visiting"
        body = bodies[name][1]
        for fork in iter_forks(body):
            visit(fork.variant)
        state[name] = "done"
        order.append(name)

    for name in bodies:
        visit(name)
    return order


def compile_program(source, config, mode="sts", optimize=True,
                    options=None, cache=None):
    """Compile source text (or a parsed :class:`ProgramAST`) for the
    given machine configuration and simulation mode.

    ``options`` (a :class:`CompilerOptions`) overrides individual
    pipeline features; ``optimize=False`` is shorthand for disabling
    the whole scalar optimizer.  ``cache`` (a
    :class:`~repro.compiler.cache.CompileCache`) memoizes the compiled
    program on disk, keyed by (source hash, mode, schedule signature,
    options); only string sources are cacheable.
    """
    if options is None:
        options = DEFAULT_OPTIONS if optimize else \
            CompilerOptions(optimize=False)
    if mode not in MODES:
        raise CompileError("unknown mode %r (one of %s)"
                           % (mode, ", ".join(MODES)))
    cache_key = None
    if cache is not None:
        cache_key = compile_cache.compile_key(source, mode, config,
                                              options)
        cached = cache.get(cache_key)
        if cached is not None:
            return cached
    ast = source if isinstance(source, ProgramAST) else \
        parse_program(source)
    consts = resolve_consts(ast.consts)
    sizer = Expander(ast.kernels, consts)
    data = DataSegment()
    symbols = {}
    for decl in ast.globals:
        size = sizer.static_value(decl.size, {}, "size of global %r"
                                  % decl.name)
        data.declare(decl.name, size, initially_full=decl.initially_full)
        symbols[decl.name] = decl
    kernel_sigs = {name: [ptype for __, ptype in kernel.params]
                   for name, kernel in ast.kernels.items()}

    planner = _VariantPlanner(mode, config)
    main_body = expand_thread(ast.main, ast.kernels, consts)
    planner.assign(main_body)
    bodies = {"main": (None, main_body, None)}
    # Expand every needed kernel variant (a fresh expansion per variant,
    # so per-variant fork assignments never interfere).
    frontier = list(planner.variants.items())
    while frontier:
        variant, (kernel_name, placement) = frontier.pop()
        if variant in bodies:
            continue
        body = expand_kernel(ast.kernels[kernel_name], ast.kernels, consts)
        before = set(planner.variants)
        planner.assign(body)
        bodies[variant] = (kernel_name, body, placement)
        frontier.extend((name, planner.variants[name])
                        for name in set(planner.variants) - before)

    program = Program(main="main")
    program.data = data
    compiled = {}
    reports = {}

    def child_params(variant):
        child = compiled.get(variant)
        if child is None:
            raise CompileError("fork target %r not yet compiled" % variant)
        return child.param_regs

    for variant in _topological_variants(
            {name: (k, b) for name, (k, b, __) in bodies.items()}):
        kernel_name, body, placement = bodies[variant]
        if variant == "main":
            spec = main_spec(mode, config)
            params = ()
        else:
            spec = thread_spec(mode, config, placement)
            params = ast.kernels[kernel_name].params
        thread_ir = lower_thread(variant, body, symbols, kernel_sigs,
                                 params)
        optimize_thread(thread_ir, options)
        live_in, __ = liveness.analyze(thread_ir)
        scheduler = ThreadScheduler(thread_ir, config, spec, live_in,
                                    options=options)
        scheduled = scheduler.schedule()
        thread, report = generate_thread(scheduled, data, child_params)
        compiled[variant] = thread
        reports[variant] = report
        program.add_thread(thread)
        program.register_usage[variant] = report.peak_registers

    program.validate()
    compiled = CompiledProgram(program, config, mode, reports, consts)
    if cache is not None:
        cache.put(cache_key, compiled)
    return compiled
