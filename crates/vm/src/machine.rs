//! The machine model and the interpreter loops.
//!
//! A [`Vm`] loads one program image — uncompressed bytecode or compressed
//! derivations plus the expanded grammar — resolves its global table
//! (playing the linker of §3), and runs it. Uncompressed code runs in
//! `interp1`. Compressed code runs in the reference walker `interp_nt`
//! (the executable spec) or, by default, in `interp_nt_fast`, which
//! decodes each segment once into a [`SegProgram`] on its first visit
//! and runs it through `Vm::replay` on that visit and every later one
//! (a visit the segment cache has no room for decodes its segment as it
//! runs); `run_verbatim` executes the verbatim escapes both paths share.
//! Procedure calls allocate frames on the frame-stack region of
//! the VM's memory; arguments travel in a contiguous block, "an x86
//! calling convention that passes all arguments in contiguous memory"
//! (Appendix 3). Indirect calls dispatch on
//! synthetic address ranges: trampoline addresses reach bytecoded
//! procedures, native addresses reach library routines — "the indirect
//! call may call conventional code (a library routine) or bytecode and
//! uses the same calling mechanism for both" (§3).

use crate::error::VmError;
use crate::exec::Flow;
use crate::memory::Memory;
use crate::natives::{self, Native, NativeOutcome};
use crate::segment::{SegDecoder, SegEnd, SegKeyMap, SegProgram, SegStep, SegTail, Tier2Stats};
use crate::value::Slot;
use pgr_bytecode::{escape, GlobalEntry, Opcode, Procedure, Program};
use pgr_grammar::{Grammar, Nt, Symbol, Terminal};
use pgr_native::fuse::Fused;
use pgr_telemetry::{faults, names, trace, CancelToken, Metrics, Recorder};
use std::collections::VecDeque;
use std::sync::Arc;

/// First mapped data address (0 stays unmapped so null faults).
pub const DATA_BASE: u32 = 64;
/// Synthetic address of procedure 0's trampoline.
pub const TRAMP_BASE: u32 = 0xE000_0000;
/// Synthetic address of native routine 0.
pub const NATIVE_BASE: u32 = 0xF000_0000;

/// Round up to a multiple of 8, in 64 bits so that no 32-bit address or
/// size can wrap.
fn align8(v: u64) -> u64 {
    (v + 7) & !7
}

/// Where a loaded program's regions sit in the address space: data from
/// [`DATA_BASE`], then bss, heap and frame stack, each 8-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// First bss address; the data ends below it.
    pub(crate) bss_base: u32,
    /// One past the last bss address.
    pub(crate) bss_end: u32,
    /// First heap address.
    pub(crate) heap_base: u32,
    /// One past the last heap address.
    pub(crate) heap_end: u32,
    /// First frame-stack address.
    pub(crate) stack_base: u32,
    /// One past the last frame-stack address: the mapped size.
    pub(crate) stack_end: u32,
}

impl Layout {
    /// Lay `program` out with `config`'s heap and stack sizes.
    ///
    /// # Errors
    ///
    /// [`VmError::LayoutOverflow`] when the regions end past the 32-bit
    /// address space.
    pub fn of(program: &Program, config: &VmConfig) -> Result<Layout, VmError> {
        // Summed in 64 bits, so no image can wrap the address space.
        let data_end = u64::from(DATA_BASE) + program.data.len() as u64;
        let bss_base = align8(data_end);
        let bss_end = bss_base + u64::from(program.bss_size);
        let heap_base = align8(bss_end);
        let heap_end = heap_base + u64::from(config.heap_size);
        let stack_base = align8(heap_end);
        let stack_end = stack_base + u64::from(config.stack_size);
        if stack_end > u64::from(u32::MAX) {
            return Err(VmError::LayoutOverflow { end: stack_end });
        }
        // Every bound lies at or below `stack_end`, so none truncates.
        Ok(Layout {
            bss_base: bss_base as u32,
            bss_end: bss_end as u32,
            heap_base: heap_base as u32,
            heap_end: heap_end as u32,
            stack_base: stack_base as u32,
            stack_end: stack_end as u32,
        })
    }
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Bytes of bump-allocated heap for `malloc`: a limit of the
    /// address space, which is materialized only as the program writes
    /// it (see [`crate::memory`]).
    pub heap_size: u32,
    /// Bytes of frame stack: a limit of the address space, materialized
    /// as calls push frames.
    pub stack_size: u32,
    /// Instruction budget (an instruction here is one executed operator
    /// or derivation step).
    pub fuel: u64,
    /// Maximum procedure-call depth.
    pub max_call_depth: usize,
    /// Bytes served to `getchar`.
    pub input: Vec<u8>,
    /// Record the first N executed operators (0 = off). The trace lands
    /// in [`RunResult::trace`]; tracing is identical for every
    /// interpreter path, which makes diverging runs easy to diff.
    /// Compiled segment programs add the events of the steps they ran
    /// in bulk, so tracing never changes which code executes.
    pub trace_limit: usize,
    /// Telemetry destination for `vm.*` counters (per-opcode dispatch,
    /// calls, rule walks) and depth gauges. Defaults to the shared
    /// disabled recorder; the interpreter loops check one cached flag
    /// and touch nothing else when disabled, and compiled segment
    /// programs add their steps' counts in bulk, so an observed run
    /// executes the same code as a quiet one.
    pub recorder: Recorder,
    /// Run compressed programs with the reference grammar walker instead
    /// of the compiled segment programs. The two are behaviourally
    /// identical (same `RunResult`, trace, and `vm.*` telemetry — pinned
    /// by a differential proptest); the reference walker exists as the
    /// executable specification and for bisection.
    pub reference_walker: bool,
    /// Compiled-segment cache capacity in entries. The default path
    /// decodes each label-delimited segment on its first visit into a
    /// program keyed by stream offset, fuses it into superinstructions
    /// unless it holds a call, and caches it, so loop back-edges replay
    /// it without decoding again. Once the cache is full, a missing
    /// segment may evict an entry no visit has hit lately; a visit that
    /// finds no room decodes its segment as it runs. 0 keeps nothing.
    pub segment_cache_entries: usize,
    /// Cooperative-cancellation handle for this run. Every path debits
    /// fuel through one helper, which polls the token whenever the step
    /// count crosses a multiple of 65,536; a fired token stops the run
    /// with [`VmError::Cancelled`]. Defaults to [`CancelToken::never`].
    pub cancel: CancelToken,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            heap_size: 1 << 20,
            stack_size: 1 << 20,
            fuel: 200_000_000,
            max_call_depth: 200,
            input: Vec::new(),
            trace_limit: 0,
            recorder: Recorder::disabled(),
            reference_walker: false,
            segment_cache_entries: 1024,
            cancel: CancelToken::never(),
        }
    }
}

/// One executed operator, as recorded by [`VmConfig::trace_limit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Descriptor index of the procedure executing.
    pub proc: u32,
    /// The operator.
    pub op: Opcode,
    /// Its literal operand (0 for operand-less operators).
    pub operand: u32,
    /// Call depth at execution time.
    pub depth: u32,
}

/// The outcome of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Exit code if the program called `exit`/`abort`, else `None`.
    pub exit_code: Option<i32>,
    /// The entry procedure's return value (zero when `exit` was called).
    pub ret: Slot,
    /// Everything the program printed.
    pub output: Vec<u8>,
    /// Executed operator/derivation steps.
    pub steps: u64,
    /// The first [`VmConfig::trace_limit`] executed operators.
    pub trace: Vec<TraceEvent>,
}

/// Internal control signal: either a hard error or an `exit()` request
/// unwinding to `run`.
#[derive(Debug)]
pub(crate) enum Stop {
    Error(VmError),
    Exit(i32),
}

impl From<VmError> for Stop {
    fn from(e: VmError) -> Stop {
        Stop::Error(e)
    }
}

/// Which representation the VM executes.
enum Repr<'p> {
    /// Uncompressed bytecode, run by `interp1`.
    Plain,
    /// Compressed derivations, run by `interp_nt_fast`, or by
    /// `interp_nt` with `reference_walker` set.
    Compressed {
        grammar: &'p Grammar,
        start: Nt,
        byte_nt: Nt,
        reference_walker: bool,
    },
}

/// Frame context for the executing procedure.
pub(crate) struct FrameCtx {
    pub(crate) proc_idx: usize,
    pub(crate) args_base: u32,
    pub(crate) locals_base: u32,
}

/// A loaded program plus its execution state.
pub struct Vm<'p> {
    program: &'p Program,
    repr: Repr<'p>,
    pub(crate) mem: Memory,
    /// Resolved address per global-table entry.
    globals: Vec<u32>,
    pub(crate) output: Vec<u8>,
    pub(crate) input: VecDeque<u8>,
    pub(crate) rng_state: u64,
    pub(crate) arg_buf: Vec<u8>,
    heap_next: u32,
    heap_end: u32,
    stack_next: u32,
    stack_end: u32,
    fuel: u64,
    steps: u64,
    depth: usize,
    max_depth: usize,
    trace: Vec<TraceEvent>,
    trace_limit: usize,
    recorder: Recorder,
    /// Cached `recorder.is_enabled()`; hoisted at build time so the
    /// interpreter loops pay one branch, never an atomic load.
    telemetry_on: bool,
    /// Per-opcode dispatch counts indexed by opcode byte (256 entries
    /// when telemetry is on, empty otherwise).
    dispatch: Vec<u64>,
    calls: u64,
    rules_walked: u64,
    call_depth_peak: usize,
    walk_depth_peak: usize,
    operand_stack_peak: usize,
    /// Compiled-segment cache: `(proc, pc)` → the segment's program
    /// and its slot in `seg_ring`. Programs are `Arc`s so a replay can
    /// run one while `exec_op` borrows the VM mutably, even after it is
    /// evicted.
    seg_cache: SegKeyMap<(Arc<SegProgram>, usize)>,
    seg_cache_cap: usize,
    seg_cache_bytes: usize,
    /// The eviction clock: per slot, the cached key and whether a visit
    /// has hit it since the hand last passed; and the hand.
    seg_ring: Vec<(u64, bool)>,
    seg_hand: usize,
    /// Segment visits served from the cache, and segments decoded.
    seg_hits: u64,
    seg_misses: u64,
    /// Segment programs cached, and their superinstructions.
    seg_compiled: u64,
    seg_fused_ops: u64,
    /// Iterations of fuel-free decoding so far: once the cache is full
    /// it stays within a share of the steps executed
    /// ([`Vm::EVICTING_DECODE_SHARE`]), and it counts toward the
    /// cancellation stride.
    decode_work: u64,
    /// Whether a stream byte equal to [`escape::VERBATIM_MARKER`] can
    /// only mean a verbatim escape: true when the grammar's start
    /// non-terminal has at most 255 rules (the compressor reserves the
    /// 256th slot), so the marker never collides with a rule index.
    verbatim_ok: bool,
    /// Verbatim escapes executed, for `vm.verbatim.segments`.
    verbatim_segments: u64,
    /// The run's cooperative-cancellation handle.
    cancel: CancelToken,
}

impl<'p> Vm<'p> {
    /// Load an uncompressed program.
    ///
    /// # Errors
    ///
    /// Fails with [`VmError::UnknownNative`] if the global table names a
    /// routine the VM does not provide, and with
    /// [`VmError::LayoutOverflow`] if the program's [`Layout`] or a
    /// global's address does not fit the 32-bit address space.
    pub fn new(program: &'p Program, config: VmConfig) -> Result<Vm<'p>, VmError> {
        Vm::build(program, Repr::Plain, config)
    }

    /// Load a compressed program (the `program` field of a
    /// `CompressedProgram`) together with the expanded grammar it was
    /// encoded against. `start` and `byte_nt` are the grammar's start and
    /// `<byte>` non-terminals (`InitialGrammar::nt_start`/`nt_byte`).
    /// Nothing is precomputed from the grammar: each segment is decoded
    /// from it on first visit.
    ///
    /// # Errors
    ///
    /// Same as [`Vm::new`].
    pub fn new_compressed(
        program: &'p Program,
        grammar: &'p Grammar,
        start: Nt,
        byte_nt: Nt,
        config: VmConfig,
    ) -> Result<Vm<'p>, VmError> {
        let repr = Repr::Compressed {
            grammar,
            start,
            byte_nt,
            reference_walker: config.reference_walker,
        };
        Vm::build(program, repr, config)
    }

    fn build(program: &'p Program, repr: Repr<'p>, config: VmConfig) -> Result<Vm<'p>, VmError> {
        let verbatim_ok = match &repr {
            Repr::Compressed { grammar, start, .. } => {
                grammar.rules_of(*start).len() <= usize::from(escape::VERBATIM_MARKER)
            }
            Repr::Plain => false,
        };
        let layout = Layout::of(program, &config)?;

        // Data and bss are materialized up front; the heap and the frame
        // stack as the program touches them.
        let mut mem = Memory::new(layout.stack_base, layout.stack_end, layout.bss_end);
        if !program.data.is_empty() {
            mem.store_bytes(DATA_BASE, &program.data)?;
        }

        let offset_from = |base: u32, offset: u32| {
            let end = u64::from(base) + u64::from(offset);
            u32::try_from(end).map_err(|_| VmError::LayoutOverflow { end })
        };
        let mut globals = Vec::with_capacity(program.globals.len());
        for entry in &program.globals {
            let addr = match entry {
                GlobalEntry::Data { offset, .. } => offset_from(DATA_BASE, *offset)?,
                GlobalEntry::Bss { offset, .. } => offset_from(layout.bss_base, *offset)?,
                GlobalEntry::Proc { proc_index } => offset_from(TRAMP_BASE, *proc_index)?,
                GlobalEntry::Native { name } => {
                    let native = Native::resolve(name)
                        .ok_or_else(|| VmError::UnknownNative { name: name.clone() })?;
                    let idx = Native::ALL
                        .iter()
                        .position(|&n| n == native)
                        .expect("registry contains resolved natives");
                    NATIVE_BASE + idx as u32
                }
            };
            globals.push(addr);
        }

        Ok(Vm {
            program,
            repr,
            mem,
            globals,
            output: Vec::new(),
            input: config.input.iter().copied().collect(),
            rng_state: 1,
            arg_buf: Vec::new(),
            heap_next: layout.heap_base,
            heap_end: layout.heap_end,
            stack_next: layout.stack_base,
            stack_end: layout.stack_end,
            fuel: config.fuel,
            steps: 0,
            depth: 0,
            max_depth: config.max_call_depth,
            trace: Vec::new(),
            trace_limit: config.trace_limit,
            telemetry_on: config.recorder.is_enabled(),
            dispatch: if config.recorder.is_enabled() {
                vec![0; 256]
            } else {
                Vec::new()
            },
            recorder: config.recorder,
            calls: 0,
            rules_walked: 0,
            call_depth_peak: 0,
            walk_depth_peak: 0,
            operand_stack_peak: 0,
            seg_cache: SegKeyMap::default(),
            seg_cache_cap: config.segment_cache_entries,
            seg_cache_bytes: 0,
            seg_ring: Vec::new(),
            seg_hand: 0,
            seg_hits: 0,
            seg_misses: 0,
            seg_compiled: 0,
            seg_fused_ops: 0,
            decode_work: 0,
            verbatim_ok,
            verbatim_segments: 0,
            cancel: config.cancel,
        })
    }

    /// Host stack bytes for the interpreter thread. The interpreters
    /// recurse on the host stack for procedure calls (like the paper's C
    /// interpreters), so deep VM recursion needs head-room, especially
    /// in debug builds.
    const HOST_STACK_BYTES: usize = 32 << 20;

    /// Run the program from its entry procedure with no arguments.
    ///
    /// # Errors
    ///
    /// Any runtime fault; an `exit()` call is a normal completion.
    pub fn run(&mut self) -> Result<RunResult, VmError> {
        // Run on a dedicated thread with a generous stack: VM calls
        // recurse on the host stack, and debug-build frames are large.
        // The interpreter thread gets its own trace lane; the caller's
        // trace attribution and fault plan are carried across explicitly
        // (thread-locals don't cross `thread::scope`).
        let trace_ctx = trace::current();
        let fault_ctx = faults::current();
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("pgr-vm".into())
                .stack_size(Self::HOST_STACK_BYTES)
                .spawn_scoped(scope, || {
                    let _trace = trace::scope_raw(trace_ctx);
                    let _faults = faults::scope(fault_ctx);
                    self.run_on_this_thread()
                })
                .expect("spawn interpreter thread")
                .join()
                .expect("interpreter thread never panics")
        })
    }

    fn run_on_this_thread(&mut self) -> Result<RunResult, VmError> {
        let recorder = self.recorder.clone();
        let _vm_span = recorder.trace_span("vm.run");
        let entry = self.program.entry as u16;
        let outcome = self.call_descriptor(entry);
        self.flush_telemetry();
        match outcome {
            Ok(ret) => Ok(RunResult {
                exit_code: None,
                ret,
                output: std::mem::take(&mut self.output),
                steps: self.steps,
                trace: std::mem::take(&mut self.trace),
            }),
            Err(Stop::Exit(code)) => Ok(RunResult {
                exit_code: Some(code),
                ret: Slot::ZERO,
                output: std::mem::take(&mut self.output),
                steps: self.steps,
                trace: std::mem::take(&mut self.trace),
            }),
            Err(Stop::Error(e)) => Err(e),
        }
    }

    /// Ship the accumulated `vm.*` counters and depth gauges to the
    /// recorder. Called once per run, on success and failure alike, so
    /// aborted programs still report the work they did.
    fn flush_telemetry(&mut self) {
        if !self.telemetry_on {
            return;
        }
        let mut batch = Metrics::new();
        batch.add(names::VM_STEPS, self.steps);
        batch.add(names::VM_CALLS, self.calls);
        batch.add(names::VM_RULES_WALKED, self.rules_walked);
        if matches!(self.repr, Repr::Compressed { .. }) {
            batch.add(names::VM_VERBATIM_SEGMENTS, self.verbatim_segments);
        }
        batch.gauge_max(names::VM_CALL_DEPTH_PEAK, self.call_depth_peak as u64);
        batch.gauge_max(names::VM_WALK_DEPTH_PEAK, self.walk_depth_peak as u64);
        batch.gauge_max(names::VM_OPERAND_STACK_PEAK, self.operand_stack_peak as u64);
        if let Repr::Compressed {
            reference_walker: false,
            ..
        } = self.repr
        {
            batch.add(names::VM_SEG_CACHE_HITS, self.seg_hits);
            batch.add(names::VM_SEG_CACHE_MISSES, self.seg_misses);
            batch.gauge_max(names::VM_SEG_CACHE_BYTES, self.seg_cache_bytes as u64);
            batch.gauge_max(names::VM_SEG_CACHE_ENTRIES, self.seg_cache.len() as u64);
            batch.add(names::VM_TIER2_COMPILED, self.seg_compiled);
            batch.add(names::VM_TIER2_FUSED_OPS, self.seg_fused_ops);
        }
        for (byte, &count) in self.dispatch.iter().enumerate() {
            if count > 0 {
                let label = Opcode::from_u8(byte as u8).map_or("unknown", Opcode::name);
                batch.add(names::vm_dispatch(label), count);
            }
        }
        self.recorder.record(batch);
    }

    /// Resolved address of a global-table entry.
    pub(crate) fn global_address(&self, index: u16) -> Option<u32> {
        self.globals.get(usize::from(index)).copied()
    }

    pub(crate) fn proc_name(&self, frame: &FrameCtx) -> String {
        self.program.procs[frame.proc_idx].name.clone()
    }

    /// Bump-allocate heap memory (8-byte aligned; zero-size requests get
    /// a distinct non-null address).
    pub(crate) fn heap_alloc(&mut self, size: u32) -> Result<u32, VmError> {
        let addr = self.heap_next;
        let end = u64::from(addr) + align8(u64::from(size.max(1)));
        if end > u64::from(self.heap_end) {
            return Err(VmError::HeapExhausted { requested: size });
        }
        // At or below `heap_end`, so it fits.
        self.heap_next = end as u32;
        Ok(addr)
    }

    /// Dispatch an indirect call: trampoline addresses reach bytecode,
    /// native addresses reach library routines.
    pub(crate) fn call_address(&mut self, addr: u32) -> Result<Slot, Stop> {
        if (TRAMP_BASE..TRAMP_BASE + self.program.procs.len() as u32).contains(&addr) {
            return self.call_descriptor((addr - TRAMP_BASE) as u16);
        }
        if (NATIVE_BASE..NATIVE_BASE + Native::ALL.len() as u32).contains(&addr) {
            let native = Native::ALL[(addr - NATIVE_BASE) as usize];
            let need = native.arg_bytes();
            if self.arg_buf.len() < need {
                return Err(Stop::Error(VmError::ArgUnderflow {
                    proc: format!("native {native:?}"),
                    need,
                    have: self.arg_buf.len(),
                }));
            }
            let args = self.arg_buf.split_off(self.arg_buf.len() - need);
            return match natives::call(self, native, &args) {
                Ok(NativeOutcome::Return(v)) => Ok(v),
                Ok(NativeOutcome::Exit(code)) => Err(Stop::Exit(code)),
                Err(e) => Err(Stop::Error(e)),
            };
        }
        Err(Stop::Error(VmError::BadCallTarget { addr }))
    }

    /// Call a bytecoded procedure by descriptor index. The callee's
    /// declared `arg_size` bytes are taken from the tail of the outgoing
    /// argument buffer — tail consumption is what lets calls nest inside
    /// argument lists.
    pub(crate) fn call_descriptor(&mut self, index: u16) -> Result<Slot, Stop> {
        let proc_idx = usize::from(index);
        let Some(proc) = self.program.procs.get(proc_idx) else {
            return Err(Stop::Error(VmError::BadDescriptor { index }));
        };
        if self.depth >= self.max_depth {
            return Err(Stop::Error(VmError::CallDepthExceeded {
                limit: self.max_depth,
            }));
        }
        let need = proc.arg_size as usize;
        if self.arg_buf.len() < need {
            return Err(Stop::Error(VmError::ArgUnderflow {
                proc: proc.name.clone(),
                need,
                have: self.arg_buf.len(),
            }));
        }
        let args_from = self.arg_buf.len() - need;

        // Laid out in 64 bits, so no frame size can wrap the address
        // space; every bound then lies at or below `stack_end`.
        let args_base = align8(u64::from(self.stack_next));
        let locals_base = args_base + align8(need as u64);
        let frame_end = locals_base + align8(u64::from(proc.frame_size));
        if frame_end > u64::from(self.stack_end) {
            return Err(Stop::Error(VmError::StackOverflow));
        }
        let (args_base, locals_base, frame_end) =
            (args_base as u32, locals_base as u32, frame_end as u32);
        // Deterministic frames: zero the whole region, then copy args.
        self.mem
            .fill(args_base, frame_end - args_base, 0)
            .map_err(Stop::Error)?;
        self.mem
            .store_bytes(args_base, &self.arg_buf[args_from..])
            .map_err(Stop::Error)?;
        self.arg_buf.truncate(args_from);

        let saved_stack = self.stack_next;
        self.stack_next = frame_end;
        self.depth += 1;
        if self.telemetry_on {
            self.calls += 1;
            if self.depth > self.call_depth_peak {
                self.call_depth_peak = self.depth;
            }
        }
        let frame = FrameCtx {
            proc_idx,
            args_base,
            locals_base,
        };
        // Per-call begin/end trace events, named by procedure so the
        // chrome://tracing flame graph reads like a call tree. Opened
        // after every validation early-return so pairs stay balanced.
        let call_name = (self.telemetry_on && self.recorder.is_tracing())
            .then(|| format!("vm.call {}", proc.name));
        if let Some(name) = &call_name {
            self.recorder.trace_begin(name);
        }
        let result = match self.repr {
            Repr::Plain => self.interp1(&frame),
            Repr::Compressed {
                grammar,
                start,
                byte_nt,
                reference_walker: true,
            } => self.interp_nt(&frame, grammar, start, byte_nt),
            Repr::Compressed {
                grammar,
                start,
                byte_nt,
                reference_walker: false,
            } => self.interp_nt_fast(&frame, grammar, start, byte_nt),
        };
        if let Some(name) = &call_name {
            self.recorder.trace_end(name);
        }
        self.depth -= 1;
        self.stack_next = saved_stack;
        result
    }

    fn record(&mut self, proc_idx: usize, op: Opcode, operand: u32) {
        if self.trace.len() < self.trace_limit {
            self.trace.push(TraceEvent {
                proc: proc_idx as u32,
                op,
                operand,
                depth: self.depth as u32,
            });
        }
    }

    /// Steps between cancellation polls: frequent enough that a fired
    /// deadline stops a spinning program within well under a
    /// millisecond, rare enough that an armed token's clock read never
    /// shows in profiles.
    const CANCEL_STRIDE_MASK: u64 = (1 << 16) - 1;

    /// Burn `n` fuel — the one place every execution path debits fuel.
    /// When the budget runs short, the steps that fit are still counted
    /// before `OutOfFuel`, exactly like `n` single-step burns dying
    /// mid-window. The run's [`CancelToken`] is polled only when the
    /// step count crosses a multiple of 65,536, so an armed deadline
    /// costs a clock read per stride, not per step or per replay.
    #[inline]
    fn burn_fuel(&mut self, n: u64) -> Result<(), Stop> {
        if self.fuel < n {
            self.steps += self.fuel;
            self.fuel = 0;
            return Err(Stop::Error(VmError::OutOfFuel));
        }
        let before = self.steps;
        self.fuel -= n;
        self.steps += n;
        if self.steps > before | Self::CANCEL_STRIDE_MASK && self.cancel.is_cancelled() {
            return Err(Stop::Error(VmError::Cancelled {
                elapsed_ms: self.cancel.elapsed_ms(),
            }));
        }
        Ok(())
    }

    /// Shared [`Flow::Branch`] tail of every interpreter loop: resolve a
    /// branch label to its code offset through the procedure's
    /// out-of-line label table.
    fn branch_target(proc: &Procedure, label: u16) -> Result<usize, Stop> {
        match proc.labels.get(usize::from(label)) {
            Some(&target) => Ok(target as usize),
            None => Err(Stop::Error(VmError::BadLabel {
                proc: proc.name.clone(),
                index: label,
            })),
        }
    }

    /// Execute a verbatim escape in a compressed stream: `pc` sits on
    /// the marker byte (the caller has verified it and burnt that
    /// iteration's fuel), the next two bytes give the raw payload length
    /// little-endian, and the payload is plain canonical bytecode run
    /// exactly as [`Vm::interp1`] would — one fuel per instruction,
    /// identical telemetry, trace, and error shapes. Shared by both
    /// compressed paths so the escape cannot diverge between them.
    ///
    /// Returns where control goes next: the stream offset after the
    /// payload (fall-through), a taken branch's label target, or out of
    /// the procedure.
    fn run_verbatim(
        &mut self,
        frame: &FrameCtx,
        pc: usize,
        stack: &mut Vec<Slot>,
    ) -> Result<Replay, Stop> {
        let program = self.program;
        let proc = &program.procs[frame.proc_idx];
        let code = &proc.code;
        let overrun = |offset: usize| {
            Stop::Error(VmError::CorruptDerivation {
                proc: proc.name.clone(),
                offset,
                detail: "verbatim escape overruns the stream",
            })
        };
        let Some(len) = escape::decode_verbatim_header(&code[pc..]) else {
            return Err(overrun(pc));
        };
        let end = pc + escape::VERBATIM_HEADER + len;
        if end > code.len() {
            return Err(overrun(pc));
        }
        self.verbatim_segments += 1;
        let mut ip = pc + escape::VERBATIM_HEADER;
        while ip < end {
            self.burn_fuel(1)?;
            let byte = code[ip];
            let Some(op) = Opcode::from_u8(byte) else {
                return Err(Stop::Error(VmError::BadOpcode {
                    proc: proc.name.clone(),
                    offset: ip,
                }));
            };
            let n = op.operand_bytes();
            if ip + 1 + n > end {
                // An instruction split by the payload boundary: the
                // escape was not produced by the compressor.
                return Err(Stop::Error(VmError::BadOpcode {
                    proc: proc.name.clone(),
                    offset: ip,
                }));
            }
            let mut operands = [0u8; 4];
            operands[..n].copy_from_slice(&code[ip + 1..ip + 1 + n]);
            ip += 1 + n;
            if self.telemetry_on {
                self.dispatch[usize::from(byte)] += 1;
            }
            if self.trace_limit > 0 {
                self.record(frame.proc_idx, op, u32::from_le_bytes(operands));
            }
            let flow = self.exec_op(op, operands, frame, stack)?;
            if self.telemetry_on && stack.len() > self.operand_stack_peak {
                self.operand_stack_peak = stack.len();
            }
            match flow {
                Flow::Continue => {}
                Flow::Branch(label) => return Ok(Replay::Goto(Self::branch_target(proc, label)?)),
                Flow::Return(v) => return Ok(Replay::Returned(v)),
            }
        }
        Ok(Replay::Goto(end))
    }

    /// The initial interpreter: fetch an opcode and its literal operands
    /// from the code stream, execute, repeat (§5's `interp`/`interpret1`
    /// pair).
    fn interp1(&mut self, frame: &FrameCtx) -> Result<Slot, Stop> {
        let program = self.program;
        let proc = &program.procs[frame.proc_idx];
        let code = &proc.code;
        let mut pc = 0usize;
        let mut stack: Vec<Slot> = Vec::with_capacity(16);
        loop {
            self.burn_fuel(1)?;
            let Some(&byte) = code.get(pc) else {
                return Err(Stop::Error(VmError::FellOffEnd {
                    proc: proc.name.clone(),
                }));
            };
            let Some(op) = Opcode::from_u8(byte) else {
                return Err(Stop::Error(VmError::BadOpcode {
                    proc: proc.name.clone(),
                    offset: pc,
                }));
            };
            let n = op.operand_bytes();
            if pc + 1 + n > code.len() {
                return Err(Stop::Error(VmError::BadOpcode {
                    proc: proc.name.clone(),
                    offset: pc,
                }));
            }
            let mut operands = [0u8; 4];
            operands[..n].copy_from_slice(&code[pc + 1..pc + 1 + n]);
            pc += 1 + n;
            if self.telemetry_on {
                self.dispatch[usize::from(byte)] += 1;
            }
            if self.trace_limit > 0 {
                self.record(frame.proc_idx, op, u32::from_le_bytes(operands));
            }
            let flow = self.exec_op(op, operands, frame, &mut stack)?;
            if self.telemetry_on && stack.len() > self.operand_stack_peak {
                self.operand_stack_peak = stack.len();
            }
            match flow {
                Flow::Continue => {}
                Flow::Branch(label) => pc = Self::branch_target(proc, label)?,
                Flow::Return(v) => return Ok(v),
            }
        }
    }

    /// The **reference** compressed-bytecode interpreter (§5's
    /// `interpNT`): each stream byte selects a rule for the current
    /// non-terminal; the walk executes terminal operators (fetching
    /// literal operands from burnt-in rule bytes or the stream — the
    /// `GET` split) and recurses on non-terminals. A taken branch
    /// abandons the walk and restarts at the label's segment; a
    /// completed walk falls through to the next segment's derivation.
    ///
    /// This is the executable specification: [`Vm::interp_nt_fast`]
    /// must match it iteration for iteration (selected via
    /// [`VmConfig::reference_walker`], pinned by a differential
    /// proptest).
    fn interp_nt(
        &mut self,
        frame: &FrameCtx,
        grammar: &Grammar,
        start: Nt,
        byte_nt: Nt,
    ) -> Result<Slot, Stop> {
        let program = self.program;
        let proc = &program.procs[frame.proc_idx];
        let code = &proc.code;
        let corrupt = |offset: usize, detail: &'static str| {
            Stop::Error(VmError::CorruptDerivation {
                proc: proc.name.clone(),
                offset,
                detail,
            })
        };

        let mut pc = 0usize;
        let mut stack: Vec<Slot> = Vec::with_capacity(16);
        // The rule walk: (rule, position in its right-hand side).
        let mut walk: Vec<(pgr_grammar::RuleId, usize)> = Vec::with_capacity(32);

        loop {
            self.burn_fuel(1)?;
            if walk.is_empty() {
                // Start the next segment's derivation of <start>.
                if pc >= code.len() {
                    return Err(Stop::Error(VmError::FellOffEnd {
                        proc: proc.name.clone(),
                    }));
                }
                if self.verbatim_ok && code[pc] == escape::VERBATIM_MARKER {
                    // A verbatim escape instead of a derivation; the
                    // loop-top fuel above covers the marker iteration.
                    match self.run_verbatim(frame, pc, &mut stack)? {
                        Replay::Goto(next) => {
                            pc = next;
                            continue;
                        }
                        Replay::Returned(v) => return Ok(v),
                    }
                }
                let b = code[pc];
                pc += 1;
                let Some(&rule) = grammar.rules_of(start).get(usize::from(b)) else {
                    return Err(corrupt(pc - 1, "no such start rule"));
                };
                walk.push((rule, 0));
                if self.telemetry_on {
                    self.rules_walked += 1;
                    if walk.len() > self.walk_depth_peak {
                        self.walk_depth_peak = walk.len();
                    }
                }
                continue;
            }

            let (rule_id, pos) = *walk.last().expect("walk is non-empty");
            let rule = grammar.rule(rule_id);
            if pos >= rule.rhs.len() {
                walk.pop();
                continue;
            }
            match rule.rhs[pos] {
                Symbol::N(nt) => {
                    walk.last_mut().expect("walk is non-empty").1 = pos + 1;
                    if pc >= code.len() {
                        return Err(corrupt(pc, "stream ends inside a derivation"));
                    }
                    let b = code[pc];
                    pc += 1;
                    let Some(&child) = grammar.rules_of(nt).get(usize::from(b)) else {
                        return Err(corrupt(pc - 1, "no such rule for non-terminal"));
                    };
                    walk.push((child, 0));
                    if self.telemetry_on {
                        self.rules_walked += 1;
                        if walk.len() > self.walk_depth_peak {
                            self.walk_depth_peak = walk.len();
                        }
                    }
                }
                Symbol::T(Terminal::Byte(_)) => {
                    return Err(corrupt(pc, "literal byte not owned by an opcode"));
                }
                Symbol::T(Terminal::Op(op)) => {
                    // Fetch the operator's literal operands: each comes
                    // either burnt into the rule or from the stream via a
                    // <byte> expansion (§5's GET).
                    let n = op.operand_bytes();
                    let mut operands = [0u8; 4];
                    let mut p = pos + 1;
                    for slot in operands.iter_mut().take(n) {
                        match rule.rhs.get(p) {
                            Some(Symbol::T(Terminal::Byte(b))) => *slot = *b,
                            Some(Symbol::N(nt)) if *nt == byte_nt => {
                                if pc >= code.len() {
                                    return Err(corrupt(pc, "stream ends inside operands"));
                                }
                                *slot = code[pc];
                                pc += 1;
                            }
                            _ => return Err(corrupt(pc, "operand layout violated")),
                        }
                        p += 1;
                    }
                    walk.last_mut().expect("walk is non-empty").1 = p;

                    if self.telemetry_on {
                        self.dispatch[usize::from(op as u8)] += 1;
                    }
                    if self.trace_limit > 0 {
                        self.record(frame.proc_idx, op, u32::from_le_bytes(operands));
                    }
                    let flow = self.exec_op(op, operands, frame, &mut stack)?;
                    if self.telemetry_on && stack.len() > self.operand_stack_peak {
                        self.operand_stack_peak = stack.len();
                    }
                    match flow {
                        Flow::Continue => {}
                        Flow::Branch(label) => {
                            pc = Self::branch_target(proc, label)?;
                            walk.clear();
                        }
                        Flow::Return(v) => return Ok(v),
                    }
                }
            }
        }
    }

    /// The fast compressed-bytecode interpreter: runs each segment as a
    /// compiled [`SegProgram`] through [`Vm::replay`]. A segment's first
    /// visit decodes it fuel-free from `grammar`, compiles the program
    /// and caches it; later visits take it from the cache. Once the cache
    /// is full, a new program may evict a cold entry ([`Vm::claim_slot`]);
    /// otherwise, and with the cache off, the visit decodes its segment
    /// one step at a time as it runs, so the decode costs no more than
    /// the fuel its steps burn. Fuel, results, errors, traces and `vm.*`
    /// telemetry match [`Vm::interp_nt`] (DESIGN.md §5e).
    fn interp_nt_fast(
        &mut self,
        frame: &FrameCtx,
        grammar: &Grammar,
        start: Nt,
        byte_nt: Nt,
    ) -> Result<Slot, Stop> {
        let program = self.program;
        let proc = &program.procs[frame.proc_idx];
        let code = &proc.code;
        let mut pc = 0usize;
        let mut stack: Vec<Slot> = Vec::with_capacity(16);
        let mut dec = SegDecoder::default();
        loop {
            let next = if pc >= code.len() {
                // The segment-start iteration finds no stream left.
                self.burn_fuel(1)?;
                return Err(Stop::Error(VmError::FellOffEnd {
                    proc: proc.name.clone(),
                }));
            } else if self.verbatim_ok && code[pc] == escape::VERBATIM_MARKER {
                // A verbatim escape: burn the marker iteration's fuel
                // (the reference walker's segment-start burn) and execute
                // the raw payload. Escapes bypass the segment cache —
                // they are already decoded.
                self.burn_fuel(1)?;
                self.run_verbatim(frame, pc, &mut stack)?
            } else {
                let key = seg_key(frame.proc_idx, pc);
                let cached = match self.seg_cache.is_empty() {
                    true => None,
                    false => self
                        .seg_cache
                        .get(&key)
                        .map(|(p, slot)| (Arc::clone(p), *slot)),
                };
                if let Some((prog, slot)) = cached {
                    self.seg_hits += 1;
                    self.seg_ring[slot].1 = true;
                    self.replay(frame, proc, &prog, &mut stack)?
                } else if let Some(slot) = self.claim_slot(key) {
                    self.seg_misses += 1;
                    let mut prog = SegProgram::decode(&mut dec, grammar, start, byte_nt, code, pc);
                    prog.compile(proc, &self.globals);
                    let work = prog.tail.total_fuel;
                    let prog = self.cache_segment(key, slot, prog);
                    self.count_decode(work)?;
                    self.replay(frame, proc, &prog, &mut stack)?
                } else {
                    self.seg_misses += 1;
                    dec.start(grammar, start, code, pc);
                    self.run_decoding(frame, proc, &mut dec, grammar, byte_nt, &mut stack)?
                }
            };
            match next {
                Replay::Goto(target) => pc = target,
                Replay::Returned(v) => return Ok(v),
            }
        }
    }

    /// A slot of the eviction clock for `key`'s program: a new one while
    /// the cache has room. Once it is full, the hand moves one slot per
    /// miss: an entry hit since the hand last passed stays and loses its
    /// mark, and an unmarked one is evicted for `key`, but only while all
    /// fuel-free decoding so far is at most one iteration per
    /// [`Vm::EVICTING_DECODE_SHARE`] steps executed. So a hot working set
    /// larger than the cache keeps most of itself cached instead of
    /// churning. `None`: the visit runs uncached.
    fn claim_slot(&mut self, key: u64) -> Option<usize> {
        if self.seg_ring.len() < self.seg_cache_cap {
            self.seg_ring.push((key, false));
            return Some(self.seg_ring.len() - 1);
        }
        if self.seg_ring.is_empty() || self.decode_work > self.steps / Self::EVICTING_DECODE_SHARE {
            return None;
        }
        let slot = self.seg_hand;
        self.seg_hand = (slot + 1) % self.seg_ring.len();
        let (old, hit) = &mut self.seg_ring[slot];
        if std::mem::take(hit) {
            return None;
        }
        let (evicted, _) = self.seg_cache.remove(old).expect("ring keys are cached");
        self.seg_cache_bytes -= evicted.bytes();
        *old = key;
        Some(slot)
    }

    /// Once the segment cache is full, fuel-free decoding may take at
    /// most one iteration per this many steps executed; past that a miss
    /// decodes as it runs. A working set that fits the cache is soon
    /// cached again, while a run that keeps missing spends almost all its
    /// time executing.
    const EVICTING_DECODE_SHARE: u64 = 8;

    /// Publish a decoded, compiled program as its segment's cache entry
    /// in ring slot `slot`.
    fn cache_segment(&mut self, key: u64, slot: usize, prog: SegProgram) -> Arc<SegProgram> {
        self.seg_compiled += 1;
        self.seg_fused_ops += prog.ops.len() as u64;
        self.seg_cache_bytes += prog.bytes();
        let prog = Arc::new(prog);
        self.seg_cache.insert(key, (Arc::clone(&prog), slot));
        prog
    }

    /// Count `work` iterations of a fuel-free decode toward the
    /// cancellation stride: a run that decodes many long segments polls
    /// its [`CancelToken`] as often as one that executes that many steps.
    fn count_decode(&mut self, work: u64) -> Result<(), Stop> {
        let before = self.decode_work;
        self.decode_work += work;
        if self.decode_work > before | Self::CANCEL_STRIDE_MASK && self.cancel.is_cancelled() {
            return Err(Stop::Error(VmError::Cancelled {
                elapsed_ms: self.cancel.elapsed_ms(),
            }));
        }
        Ok(())
    }

    /// Run a cached segment program. A fused program runs its
    /// superinstructions when the remaining fuel covers all of it;
    /// otherwise, and for programs that are not fused, the source steps
    /// run one at a time. Either way the fuel, step count, result, error,
    /// trace and telemetry match the reference walk's.
    ///
    /// Always inlined into `interp_nt_fast`: out of line, its call cost
    /// the benchmark's compressed sieve about 3%.
    #[inline(always)]
    fn replay(
        &mut self,
        frame: &FrameCtx,
        proc: &Procedure,
        prog: &SegProgram,
        stack: &mut Vec<Slot>,
    ) -> Result<Replay, Stop> {
        if !prog.ops.is_empty() && self.fuel >= prog.tail.total_fuel {
            self.run_fused(frame, proc, prog, stack)
        } else {
            self.run_steps(frame, proc, prog, stack)
        }
    }

    /// Run `prog`'s source steps one at a time through [`Vm::run_step`].
    fn run_steps(
        &mut self,
        frame: &FrameCtx,
        proc: &Procedure,
        prog: &SegProgram,
        stack: &mut Vec<Slot>,
    ) -> Result<Replay, Stop> {
        let mut charged = 0u64;
        let mut rules = 0u32;
        for step in &prog.steps {
            if let Some(out) = self.run_step(frame, proc, step, &mut charged, &mut rules, stack)? {
                return Ok(out);
            }
        }
        self.burn_fuel(prog.tail.total_fuel - charged)?;
        self.end_segment(proc, &prog.tail)
    }

    /// Run the segment `dec` has started, each step as soon as it is
    /// decoded, so a visit that leaves early decodes no further.
    fn run_decoding(
        &mut self,
        frame: &FrameCtx,
        proc: &Procedure,
        dec: &mut SegDecoder,
        grammar: &Grammar,
        byte_nt: Nt,
        stack: &mut Vec<Slot>,
    ) -> Result<Replay, Stop> {
        let mut charged = 0u64;
        let mut rules = 0u32;
        while let Some(step) = dec.next_step(grammar, byte_nt, &proc.code) {
            if let Some(out) = self.run_step(frame, proc, &step, &mut charged, &mut rules, stack)? {
                return Ok(out);
            }
        }
        let tail = dec.tail();
        self.burn_fuel(tail.total_fuel - charged)?;
        self.end_segment(proc, &tail)
    }

    /// Run one source step through `exec_op`, debiting its window just
    /// before it: a callee sees exactly the fuel the walk would leave it,
    /// and running short stops at the walk's step count. `charged` and
    /// `rules` are the segment's fuel debited and rules counted so far.
    /// The step's telemetry and trace event are added before it runs, so
    /// a callee's events follow its caller's. Returns where control goes
    /// when the step leaves the segment.
    #[inline(always)]
    fn run_step(
        &mut self,
        frame: &FrameCtx,
        proc: &Procedure,
        step: &SegStep,
        charged: &mut u64,
        rules: &mut u32,
        stack: &mut Vec<Slot>,
    ) -> Result<Option<Replay>, Stop> {
        self.burn_fuel(step.fuel_through - *charged)?;
        *charged = step.fuel_through;
        if self.telemetry_on {
            self.rules_walked += u64::from(step.rules_through - *rules);
            self.walk_depth_peak = self.walk_depth_peak.max(step.depth_peak as usize);
            self.dispatch[usize::from(step.op as u8)] += 1;
        }
        *rules = step.rules_through;
        if self.trace_limit > 0 {
            self.record(frame.proc_idx, step.op, u32::from_le_bytes(step.operands));
        }
        let flow = self.exec_op(step.op, step.operands, frame, stack)?;
        if self.telemetry_on && stack.len() > self.operand_stack_peak {
            self.operand_stack_peak = stack.len();
        }
        match flow {
            Flow::Continue => Ok(None),
            Flow::Branch(label) => Ok(Some(Replay::Goto(Self::branch_target(proc, label)?))),
            Flow::Return(v) => Ok(Some(Replay::Returned(v))),
        }
    }

    /// Run `prog`'s superinstructions. The caller guarantees
    /// `fuel >= total_fuel`, and no step consumes fuel of its own (a
    /// fused program holds no call), so the whole fuel is debited up
    /// front; any side exit — taken branch, return, or fault — refunds
    /// the unexecuted remainder through the fuel prefix sums.
    ///
    /// Telemetry and tracing never change which handlers run: the
    /// counts and trace events of the steps that ran are added in bulk
    /// from the program's windows when the replay leaves.
    #[inline(always)]
    fn run_fused(
        &mut self,
        frame: &FrameCtx,
        proc: &Procedure,
        prog: &SegProgram,
        stack: &mut Vec<Slot>,
    ) -> Result<Replay, Stop> {
        self.burn_fuel(prog.tail.total_fuel)?;
        let observed = self.telemetry_on || self.trace_limit > 0;
        let entry_height = stack.len();
        // Leave the program after source step `$at` dispatched, the
        // first `$done` steps completed (their stack effect applied):
        // refund the fuel debited for later windows and, in an observed
        // run, add the telemetry of the steps that ran.
        macro_rules! leave {
            ($at:expr, $done:expr, $out:expr) => {{
                let at: usize = $at;
                let refund = prog.tail.total_fuel - prog.fuel_through(at);
                self.fuel += refund;
                self.steps -= refund;
                if observed {
                    self.account_exit(frame.proc_idx, prog, at + 1, entry_height, $done);
                }
                return $out;
            }};
        }
        macro_rules! underflow {
            ($op:expr, $at:expr) => {{
                let at: usize = $at;
                leave!(
                    at,
                    at,
                    Err(Stop::Error(VmError::StackUnderflow {
                        proc: proc.name.clone(),
                        opcode: $op,
                    }))
                )
            }};
        }
        for sop in prog.ops.iter() {
            let last = sop.last as usize;
            match sop.fused {
                Fused::Push { imm } => stack.push(Slot::from_u(imm)),
                Fused::PushLocal { off } => stack.push(Slot::from_u(frame.locals_base + off)),
                Fused::PushArg { off } => stack.push(Slot::from_u(frame.args_base + off)),
                // Frames live on the stack region, which `call_descriptor`
                // materialized when it pushed this one.
                Fused::LoadLocal { off } => {
                    match self.mem.load_stack_u32(frame.locals_base + off) {
                        Ok(v) => stack.push(Slot::from_u(v)),
                        Err(e) => leave!(last, last, Err(Stop::Error(e))),
                    }
                }
                Fused::LoadArg { off } => match self.mem.load_stack_u32(frame.args_base + off) {
                    Ok(v) => stack.push(Slot::from_u(v)),
                    Err(e) => leave!(last, last, Err(Stop::Error(e))),
                },
                Fused::StoreLocal { off } => {
                    let Some(v) = stack.pop() else {
                        underflow!(Opcode::ASGNU, last)
                    };
                    if let Err(e) = self.mem.store_stack_u32(frame.locals_base + off, v.u()) {
                        leave!(last, last, Err(Stop::Error(e)));
                    }
                }
                Fused::StoreArg { off } => {
                    let Some(v) = stack.pop() else {
                        underflow!(Opcode::ASGNU, last)
                    };
                    if let Err(e) = self.mem.store_stack_u32(frame.args_base + off, v.u()) {
                        leave!(last, last, Err(Stop::Error(e)));
                    }
                }
                Fused::LoadGlobal { addr } => match self.mem.load_u32(addr) {
                    Ok(v) => stack.push(Slot::from_u(v)),
                    Err(e) => leave!(last, last, Err(Stop::Error(e))),
                },
                Fused::StoreGlobal { addr } => {
                    let Some(v) = stack.pop() else {
                        underflow!(Opcode::ASGNU, last)
                    };
                    if let Err(e) = self.mem.store_u32(addr, v.u()) {
                        leave!(last, last, Err(Stop::Error(e)));
                    }
                }
                Fused::AluImm { op, imm } => {
                    let Some(a) = stack.pop() else {
                        underflow!(op, last)
                    };
                    stack.push(alu_imm(op, a, imm));
                }
                Fused::CmpBr { cmp, target } => {
                    // The comparison is the second-to-last step; an
                    // underflow there (either pop — the operator pops
                    // b first, like `exec_op`) charges its step, while
                    // a taken branch charges through the BrTrue.
                    let Some(b) = stack.pop() else {
                        underflow!(cmp, last - 1)
                    };
                    let Some(a) = stack.pop() else {
                        underflow!(cmp, last - 1)
                    };
                    if cmp_eval(cmp, a, b) {
                        leave!(last, last + 1, Ok(Replay::Goto(target as usize)));
                    }
                }
                Fused::CmpImmBr { cmp, imm, target } => {
                    let Some(a) = stack.pop() else {
                        underflow!(cmp, last - 1)
                    };
                    if cmp_eval(cmp, a, Slot::from_u(imm)) {
                        leave!(last, last + 1, Ok(Replay::Goto(target as usize)));
                    }
                }
                Fused::BrTruePop { target } => {
                    let Some(flag) = stack.pop() else {
                        underflow!(Opcode::BrTrue, last)
                    };
                    if flag.u() != 0 {
                        leave!(last, last + 1, Ok(Replay::Goto(target as usize)));
                    }
                }
                Fused::Jump { target } => {
                    leave!(last, last + 1, Ok(Replay::Goto(target as usize)))
                }
                Fused::Exec { op, operands } => match self.exec_op(op, operands, frame, stack) {
                    Ok(Flow::Continue) => {}
                    // The walk notes the stack before resolving the
                    // label, so even a bad label completes the step.
                    Ok(Flow::Branch(label)) => match Self::branch_target(proc, label) {
                        Ok(t) => leave!(last, last + 1, Ok(Replay::Goto(t))),
                        Err(e) => leave!(last, last + 1, Err(e)),
                    },
                    Ok(Flow::Return(v)) => leave!(last, last + 1, Ok(Replay::Returned(v))),
                    Err(stop) => leave!(last, last, Err(stop)),
                },
            }
        }
        if observed {
            let n = prog.steps.len();
            self.account_exit(frame.proc_idx, prog, n, entry_height, n);
        }
        self.end_segment(proc, &prog.tail)
    }

    /// Leave a segment whose execution got past its last step and paid
    /// its tail: add the tail window's telemetry, then fall through to
    /// the next segment or raise the fault tail.
    fn end_segment(&mut self, proc: &Procedure, tail: &SegTail) -> Result<Replay, Stop> {
        if self.telemetry_on {
            self.rules_walked += u64::from(tail.rules);
            self.walk_depth_peak = self.walk_depth_peak.max(tail.depth as usize);
        }
        match tail.end {
            SegEnd::FallThrough(next) => Ok(Replay::Goto(next as usize)),
            SegEnd::Fault { offset, detail } => Err(Stop::Error(VmError::CorruptDerivation {
                proc: proc.name.clone(),
                offset: offset as usize,
                detail,
            })),
        }
    }

    /// Add the telemetry of a fused replay that leaves after `ran`
    /// source steps of `prog` dispatched, `done` of them completed, from
    /// a stack `entry_height` deep at entry.
    #[cold]
    fn account_exit(
        &mut self,
        proc_idx: usize,
        prog: &SegProgram,
        ran: usize,
        entry_height: usize,
        done: usize,
    ) {
        self.account(proc_idx, prog, 0, ran);
        if self.telemetry_on && done > 0 {
            let peak = entry_height as i64 + i64::from(prog.steps[done - 1].stack_peak);
            self.operand_stack_peak = self.operand_stack_peak.max(peak as usize);
        }
    }

    /// Add the dispatch counts, rules walked, walk-depth peak and trace
    /// events of source steps `from..to` of `prog`, which ran.
    fn account(&mut self, proc_idx: usize, prog: &SegProgram, from: usize, to: usize) {
        if from >= to {
            return;
        }
        let steps = &prog.steps[from..to];
        if self.telemetry_on {
            let last = &prog.steps[to - 1];
            self.rules_walked += u64::from(last.rules_through - prog.rules_before(from));
            self.walk_depth_peak = self.walk_depth_peak.max(last.depth_peak as usize);
            for s in steps {
                self.dispatch[usize::from(s.op as u8)] += 1;
            }
        }
        let room = self.trace_limit.saturating_sub(self.trace.len());
        for s in steps.iter().take(room) {
            self.record(proc_idx, s.op, u32::from_le_bytes(s.operands));
        }
    }

    /// Bytes of the address space materialized so far: data and bss,
    /// plus the heap and frame stack the program has written.
    pub fn materialized_bytes(&self) -> usize {
        self.mem.materialized()
    }

    /// Activity of the compiled segment programs (all zeros for plain
    /// and reference-walker runs, and with the segment cache off). Live
    /// regardless of telemetry, so serving hosts can surface it without
    /// enabling a recorder. `deopts` is always 0.
    pub fn tier2_stats(&self) -> Tier2Stats {
        Tier2Stats {
            compiled: self.seg_compiled,
            fused_ops: self.seg_fused_ops,
            hits: self.seg_hits,
            deopts: 0,
        }
    }
}

/// Where a segment replay handed control: the next segment's stream
/// offset (fall-through or taken branch), or out of the procedure.
enum Replay {
    Goto(usize),
    Returned(Slot),
}

fn seg_key(proc_idx: usize, pc: usize) -> u64 {
    ((proc_idx as u64) << 32) | pc as u64
}

/// Evaluate a fused integer comparison. Mirrors the `cmp!` arms of
/// [`exec::exec_op`]; [`pgr_native::fuse`] only emits the operators
/// listed here.
#[inline]
fn cmp_eval(cmp: Opcode, a: Slot, b: Slot) -> bool {
    match cmp {
        Opcode::EQU => a.u() == b.u(),
        Opcode::NEU => a.u() != b.u(),
        Opcode::LTU => a.u() < b.u(),
        Opcode::LEU => a.u() <= b.u(),
        Opcode::GTU => a.u() > b.u(),
        Opcode::GEU => a.u() >= b.u(),
        Opcode::LTI => a.i() < b.i(),
        Opcode::LEI => a.i() <= b.i(),
        Opcode::GTI => a.i() > b.i(),
        Opcode::GEI => a.i() >= b.i(),
        other => unreachable!("non-fusable comparison {other:?}"),
    }
}

/// Apply a fused ALU operator to `a` with the burnt-in immediate as the
/// right operand. Mirrors the `bin_u!`/`bin_i!` arms of
/// [`exec::exec_op`]; [`pgr_native::fuse`] never fuses an immediate
/// into DIV/MOD (their divide-by-zero fault is data-dependent).
#[inline]
fn alu_imm(op: Opcode, a: Slot, imm: u32) -> Slot {
    match op {
        Opcode::ADDU => Slot::from_u(a.u().wrapping_add(imm)),
        Opcode::SUBU => Slot::from_u(a.u().wrapping_sub(imm)),
        Opcode::MULU => Slot::from_u(a.u().wrapping_mul(imm)),
        Opcode::MULI => Slot::from_i(a.i().wrapping_mul(imm as i32)),
        Opcode::BANDU => Slot::from_u(a.u() & imm),
        Opcode::BORU => Slot::from_u(a.u() | imm),
        Opcode::BXORU => Slot::from_u(a.u() ^ imm),
        Opcode::LSHI => Slot::from_i(a.i().wrapping_shl(imm & 31)),
        Opcode::LSHU => Slot::from_u(a.u().wrapping_shl(imm & 31)),
        Opcode::RSHI => Slot::from_i(a.i().wrapping_shr(imm & 31)),
        Opcode::RSHU => Slot::from_u(a.u().wrapping_shr(imm & 31)),
        other => unreachable!("non-fusable ALU operator {other:?}"),
    }
}
