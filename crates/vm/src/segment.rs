//! Compiled segment programs: the one replay form of compressed
//! execution.
//!
//! The first walk of a label-delimited segment (keyed by procedure and
//! segment-start `pc`) records, per executed operator, the resolved
//! opcode and operand bytes together with the derivation-walk window
//! that led up to it: fuel burnt, rules selected and walk-depth peak
//! since the previous operator. When the walk seals the recording, the
//! trace is lowered once through [`pgr_native::fuse`] into a
//! [`SegProgram`] of superinstructions, and that program is the whole
//! segment-cache entry: later entries at the same `pc` (loop back-edges,
//! the hot case) run it through `Vm::replay` in `machine.rs` instead of
//! walking the derivation again.
//!
//! A program keeps, per source step, running totals of the recorded
//! windows: fuel, rules walked, walk-depth peak, and the operand-stack
//! height peak implied by the operators' static stack effects. Those
//! totals let the replay
//!
//! * debit a call-free program's fuel in one subtraction and refund the
//!   unexecuted remainder on any side exit (taken branch, return,
//!   fault), landing on the exact source step the walk would have
//!   reached;
//! * add the `vm.*` telemetry and trace events of the steps that ran in
//!   bulk, so an observed run executes the same superinstructions as a
//!   quiet one.
//!
//! A program containing a call stays unfused (every superinstruction is
//! one `Exec` step) and debits each step's window just before the step,
//! because callee fuel is data-dependent: the callee must see exactly
//! the fuel the reference walk would leave it. DESIGN.md §5e states the
//! equivalence contract; `crates/vm/tests/differential.rs` pins it.

use pgr_bytecode::{Opcode, Procedure};
use pgr_native::fuse::{self, Fused, SuperOp};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for segment keys (`proc_idx << 32 | pc`).
/// These maps sit on the per-replay hot path and their keys are
/// VM-internal, so SipHash's flood resistance buys nothing — Fibonacci
/// hashing mixes the low pc bits well and costs one multiply.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SegKeyHasher(u64);

impl Hasher for SegKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("segment keys hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(17);
    }
}

/// A `HashMap` keyed by segment key, using [`SegKeyHasher`].
pub(crate) type SegKeyMap<V> = HashMap<u64, V, BuildHasherDefault<SegKeyHasher>>;

/// One source step of a compiled segment: the resolved operator plus
/// running totals of the walk windows through this step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegStep {
    /// The operator.
    pub(crate) op: Opcode,
    /// Fully resolved operand bytes (stream operands are a pure function
    /// of the segment's `pc`, so they resolve at record time).
    pub(crate) operands: [u8; 4],
    /// Fuel the walk burns from the segment start through this step's
    /// own dispatch.
    pub(crate) fuel_through: u64,
    /// Rules the walk selects from the segment start through this step.
    pub(crate) rules_through: u32,
    /// Walk-depth peak from the segment start through this step.
    pub(crate) depth_peak: u32,
    /// Peak operand-stack height, relative to the height at segment
    /// entry, after each step from the first through this one.
    pub(crate) stack_peak: i32,
}

/// A recorded segment lowered to superinstructions, with the per-step
/// ledger that keeps fused execution byte-identical to the walk.
#[derive(Debug)]
pub(crate) struct SegProgram {
    /// The superinstructions, in execution order; each covers the source
    /// steps after its predecessor's `last` through its own.
    pub(crate) ops: Box<[SuperOp]>,
    /// The source steps.
    pub(crate) steps: Box<[SegStep]>,
    /// Fuel of a fall-through replay (every window plus the trailing
    /// frame pops); a replay is entered only when this much remains.
    pub(crate) total_fuel: u64,
    /// Rules selected after the last step.
    pub(crate) tail_rules: u32,
    /// Walk-depth peak after the last step.
    pub(crate) tail_depth: u32,
    /// Stream offset of the next segment on fall-through.
    pub(crate) end_pc: u32,
    /// Whether any step is a call: such programs stay unfused and debit
    /// fuel per step.
    pub(crate) has_calls: bool,
}

impl SegProgram {
    /// Fuel burnt through source step `i` inclusive.
    #[inline]
    pub(crate) fn fuel_through(&self, i: usize) -> u64 {
        self.steps[i].fuel_through
    }

    /// Rules selected before source step `i`'s window.
    #[inline]
    pub(crate) fn rules_before(&self, i: usize) -> u32 {
        if i == 0 {
            0
        } else {
            self.steps[i - 1].rules_through
        }
    }

    /// Approximate resident size in bytes (the `vm.segment_cache.bytes`
    /// gauge).
    pub(crate) fn bytes(&self) -> usize {
        size_of::<SegProgram>()
            + self.ops.len() * size_of::<SuperOp>()
            + self.steps.len() * size_of::<SegStep>()
    }

    /// Number of superinstructions.
    pub(crate) fn fused_ops(&self) -> usize {
        self.ops.len()
    }
}

/// Accumulates a segment's steps and walk windows while the fast path
/// walks it for real. Inactive recorders make every hook a single
/// predictable branch.
#[derive(Default)]
pub(crate) struct SegRecorder {
    pub(crate) active: bool,
    pub(crate) key: u64,
    steps: Vec<SegStep>,
    /// Running totals over the walk so far.
    fuel: u64,
    rules: u32,
    depth: u32,
    /// Operand-stack height relative to segment entry, and its peak.
    height: i32,
    stack_peak: i32,
    /// Rules and depth peak since the last recorded step.
    win_rules: u32,
    win_depth: u32,
}

impl SegRecorder {
    pub(crate) fn begin(&mut self, key: u64) {
        *self = SegRecorder {
            active: true,
            key,
            steps: std::mem::take(&mut self.steps),
            stack_peak: i32::MIN,
            ..SegRecorder::default()
        };
        self.steps.clear();
    }

    /// Count one derivation-walk iteration (one unit of fuel).
    #[inline]
    pub(crate) fn tick(&mut self) {
        if self.active {
            self.fuel += 1;
        }
    }

    /// Count one rule selection at the given walk depth.
    #[inline]
    pub(crate) fn rule(&mut self, depth: usize) {
        if self.active {
            self.rules += 1;
            self.win_rules += 1;
            self.win_depth = self.win_depth.max(depth as u32);
        }
    }

    /// Close the current window into a recorded step.
    #[inline]
    pub(crate) fn step(&mut self, op: Opcode, operands: [u8; 4]) {
        if self.active {
            let kind = op.kind();
            self.height += i32::from(kind.pushes()) - kind.pops() as i32;
            self.stack_peak = self.stack_peak.max(self.height);
            self.depth = self.depth.max(self.win_depth);
            self.steps.push(SegStep {
                op,
                operands,
                fuel_through: self.fuel,
                rules_through: self.rules,
                depth_peak: self.depth,
                stack_peak: self.stack_peak,
            });
            self.win_rules = 0;
            self.win_depth = 0;
        }
    }

    /// Stop recording and drop what was recorded.
    pub(crate) fn abandon(&mut self) {
        self.active = false;
        self.steps.clear();
    }

    /// Stop recording and compile the segment, which falls through to
    /// `end_pc`. Branch labels resolve through `proc`'s label table and
    /// global indices through the load-time `globals` table; a trace
    /// containing a call compiles to one `Exec` per step.
    pub(crate) fn seal(&mut self, end_pc: usize, proc: &Procedure, globals: &[u32]) -> SegProgram {
        self.active = false;
        let steps = std::mem::take(&mut self.steps).into_boxed_slice();
        let has_calls = steps
            .iter()
            .any(|s| s.op.is_local_call() || s.op.is_indirect_call());
        let ops = if has_calls {
            steps
                .iter()
                .enumerate()
                .map(|(i, s)| SuperOp {
                    fused: Fused::Exec {
                        op: s.op,
                        operands: s.operands,
                    },
                    last: i as u32,
                })
                .collect()
        } else {
            fuse::fuse_steps(
                &steps,
                |s| (s.op, s.operands),
                |label| proc.labels.get(usize::from(label)).copied(),
                |idx| globals.get(usize::from(idx)).copied(),
            )
        };
        SegProgram {
            ops: ops.into_boxed_slice(),
            steps,
            total_fuel: self.fuel,
            tail_rules: self.win_rules,
            tail_depth: self.win_depth,
            end_pc: end_pc as u32,
            has_calls,
        }
    }
}

/// Activity of the compiled segment programs, for the serve stats
/// window and the benchmark ([`crate::Vm::tier2_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tier2Stats {
    /// Segment programs compiled (one per recorded segment).
    pub compiled: u64,
    /// Superinstructions across all compiled programs.
    pub fused_ops: u64,
    /// Replays served by compiled programs.
    pub hits: u64,
    /// Always 0: telemetry and tracing run the same compiled programs,
    /// so no replay falls back to a slower loop.
    pub deopts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use Opcode::*;

    /// Record `ops` with one walk iteration and one rule per step, plus
    /// one trailing frame pop.
    fn record(ops: &[(Opcode, u8)]) -> SegProgram {
        let mut rec = SegRecorder::default();
        rec.begin(7);
        for (depth, &(op, operand)) in ops.iter().enumerate() {
            rec.tick();
            rec.rule(depth + 1);
            rec.step(op, [operand, 0, 0, 0]);
        }
        rec.tick();
        let mut proc = Procedure::new("t");
        proc.labels = vec![40];
        rec.seal(9, &proc, &[])
    }

    #[test]
    fn running_totals_anchor_each_step() {
        let prog = record(&[(LIT1, 1), (LIT1, 2), (ADDU, 0), (POPU, 0)]);
        let fuel: Vec<_> = prog.steps.iter().map(|s| s.fuel_through).collect();
        assert_eq!(fuel, [1, 2, 3, 4]);
        let rules: Vec<_> = prog.steps.iter().map(|s| s.rules_through).collect();
        assert_eq!(rules, [1, 2, 3, 4]);
        let depth: Vec<_> = prog.steps.iter().map(|s| s.depth_peak).collect();
        assert_eq!(depth, [1, 2, 3, 4]);
        // Heights after each step: 1, 2, 1, 0.
        let stack: Vec<_> = prog.steps.iter().map(|s| s.stack_peak).collect();
        assert_eq!(stack, [1, 2, 2, 2]);
        assert_eq!(prog.total_fuel, 5);
        assert_eq!(prog.rules_before(2), 2);
        assert_eq!(prog.end_pc, 9);
        assert!(!prog.has_calls);
        // LIT1 2; ADDU fuses to one superinstruction.
        assert_eq!(prog.fused_ops(), 3);
    }

    #[test]
    fn popping_segments_start_below_zero() {
        // A segment that consumes values pushed by its predecessor.
        let prog = record(&[(POPU, 0), (BrTrue, 0)]);
        let stack: Vec<_> = prog.steps.iter().map(|s| s.stack_peak).collect();
        assert_eq!(stack, [-1, -1]);
    }

    #[test]
    fn call_carrying_segments_stay_unfused() {
        let prog = record(&[(LIT1, 1), (ARGU, 0), (LocalCALLU, 0), (LIT1, 2), (ADDU, 0)]);
        assert!(prog.has_calls);
        assert_eq!(prog.fused_ops(), 5);
        for (i, sop) in prog.ops.iter().enumerate() {
            assert_eq!(sop.last as usize, i);
            assert!(matches!(sop.fused, Fused::Exec { .. }));
        }
    }
}
