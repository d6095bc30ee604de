//! Compiled segment programs: the one executable form of compressed
//! code.
//!
//! Decoding a label-delimited segment (keyed by procedure and
//! segment-start `pc`) is a pure function of its stream bytes; only
//! control flow through it is dynamic. So on a segment's first visit the
//! VM decodes it once, fuel-free, into a [`SegProgram`]: per operator,
//! the resolved opcode and operand bytes together with the
//! derivation-walk window that leads up to it (fuel, rules selected and
//! walk-depth peak since the previous operator), plus a tail window that
//! ends the segment. `Vm::replay` in `machine.rs` runs that program on
//! this visit and every later one.
//!
//! A [`SegDecoder`] reads the [`Grammar`] with the same checks and the
//! same fuel as the reference walker `interp_nt`: one unit each for the
//! segment start, a rule selection, a frame pop and an operator
//! dispatch, whose operands are gathered in that iteration. It stops at
//! each operator, so a visit the segment cache has no room for runs each
//! step as soon as it is decoded; [`SegProgram::decode`] drains it into
//! a whole program. It shares no code with the walker, which stays the
//! independent specification. A derivation that completes ends in a
//! fall-through to the next segment; one that meets corruption ends in
//! a *fault tail* carrying the walker's `CorruptDerivation` offset and
//! detail, raised only when execution gets past every step before it.
//!
//! A program keeps, per source step, running totals of the windows:
//! fuel, rules walked, walk-depth peak, and the operand-stack height
//! peak implied by the operators' static stack effects. Those totals
//! let the replay
//!
//! * debit a fused program's fuel in one subtraction and refund the
//!   unexecuted remainder on any side exit (taken branch, return,
//!   fault), landing on the exact source step the walk would have
//!   reached;
//! * add the `vm.*` telemetry and trace events of the steps that ran in
//!   bulk, so an observed run executes the same superinstructions as a
//!   quiet one.
//!
//! [`SegProgram::compile`] lowers a cached, call-free program through
//! [`pgr_native::fuse`] into superinstructions. A program containing a
//! call is not fused: callee fuel is data-dependent, so the replay runs
//! it step by step and debits each step's window just before the step,
//! and the callee sees exactly the fuel the reference walk would leave
//! it. DESIGN.md §5e states the equivalence contract;
//! `crates/vm/tests/differential.rs` pins it.

use pgr_bytecode::{Opcode, Procedure};
use pgr_grammar::{Grammar, Nt, RuleId, Symbol, Terminal};
use pgr_native::fuse::{self, SuperOp};
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
    /// of the segment's `pc`, so they resolve at decode time).
    pub(crate) operands: [u8; 4],
    /// Fuel the walk burns from the segment start through this step's
    /// own dispatch.
    pub(crate) fuel_through: u64,
    /// Rules the walk selects from the segment start through this step.
    pub(crate) rules_through: u32,
    /// Walk-depth peak from the segment start through this step.
    pub(crate) depth_peak: u32,
    /// Peak operand-stack height, relative to the height at segment
    /// entry, after each step from the first through this one. Set by
    /// [`SegProgram::decode`]; 0 in a step run as soon as it is decoded.
    pub(crate) stack_peak: i32,
}

/// Where control goes once execution gets past a segment's last step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegEnd {
    /// The derivation completes and the next segment starts at this
    /// stream offset.
    FallThrough(u32),
    /// The derivation is corrupt here: the reference walker's
    /// `CorruptDerivation` offset and detail.
    Fault { offset: u32, detail: &'static str },
}

/// The walk window after a segment's last step, and what follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegTail {
    /// Fuel from the segment start through its end: the trailing frame
    /// pops of a fall-through, or the faulting iteration of a fault
    /// tail. A fused replay is entered only when this much remains.
    pub(crate) total_fuel: u64,
    /// Rules selected after the last step.
    pub(crate) rules: u32,
    /// Walk-depth peak after the last step.
    pub(crate) depth: u32,
    /// What follows the last step.
    pub(crate) end: SegEnd,
}

/// A decoded segment, with the per-step ledger that keeps its replay
/// byte-identical to the walk.
#[derive(Debug)]
pub(crate) struct SegProgram {
    /// The superinstructions, in execution order; each covers the source
    /// steps after its predecessor's `last` through its own. Empty when
    /// the program runs step by step: it holds a call or has no steps.
    pub(crate) ops: Vec<SuperOp>,
    /// The source steps.
    pub(crate) steps: Vec<SegStep>,
    /// The window after the last step.
    pub(crate) tail: SegTail,
}

impl SegProgram {
    /// Decode the whole segment of `code` that starts at `pc` (which the
    /// caller has checked is in bounds and not a verbatim escape) with
    /// `dec`. `start` and `byte_nt` are the grammar's start and `<byte>`
    /// non-terminals. Nothing executes and no fuel is burnt: the fuel
    /// each step and the tail would burn is recorded instead.
    pub(crate) fn decode(
        dec: &mut SegDecoder,
        grammar: &Grammar,
        start: Nt,
        byte_nt: Nt,
        code: &[u8],
        pc: usize,
    ) -> SegProgram {
        dec.start(grammar, start, code, pc);
        let mut steps = Vec::new();
        // Operand-stack height relative to segment entry, and its peak.
        let mut height = 0i32;
        let mut stack_peak = i32::MIN;
        while let Some(mut step) = dec.next_step(grammar, byte_nt, code) {
            let kind = step.op.kind();
            height += i32::from(kind.pushes()) - kind.pops() as i32;
            stack_peak = stack_peak.max(height);
            step.stack_peak = stack_peak;
            steps.push(step);
        }
        SegProgram {
            ops: Vec::new(),
            steps,
            tail: dec.tail(),
        }
    }

    /// Prepare a decoded program for the segment cache: lower a
    /// call-free program into superinstructions, resolving branch labels
    /// through `proc`'s label table and global indices through the
    /// load-time `globals` table, and trim its buffers to size.
    pub(crate) fn compile(&mut self, proc: &Procedure, globals: &[u32]) {
        let has_calls = self
            .steps
            .iter()
            .any(|s| s.op.is_local_call() || s.op.is_indirect_call());
        if !has_calls {
            self.ops = fuse::fuse_steps(
                &self.steps,
                |s| (s.op, s.operands),
                |label| proc.labels.get(usize::from(label)).copied(),
                |idx| globals.get(usize::from(idx)).copied(),
            );
        }
        self.ops.shrink_to_fit();
        self.steps.shrink_to_fit();
    }

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
}

/// The derivation walk of one segment, decoded one operator at a time.
/// [`SegProgram::decode`] drains it into a whole program; a segment the
/// cache has no room for runs each step as soon as it is decoded, so
/// decoding costs no more than the fuel the steps burn.
///
/// It reads the [`Grammar`] with the same checks and fuel as the
/// reference walker `interp_nt`: one unit each for the segment start, a
/// rule selection, a frame pop and an operator dispatch, whose operands
/// are gathered in that iteration.
#[derive(Debug, Default)]
pub(crate) struct SegDecoder {
    /// The rule walk: (rule, position in its right-hand side).
    walk: Vec<(RuleId, usize)>,
    /// The next stream byte.
    pc: usize,
    /// Running totals since the segment start: fuel, rules selected and
    /// walk-depth peak through the last step.
    fuel: u64,
    rules: u32,
    depth: u32,
    /// The open window: rules selected and walk-depth peak since the
    /// last step.
    win_rules: u32,
    win_depth: u32,
    /// Set once the walk completes or meets corruption.
    end: Option<SegEnd>,
}

impl SegDecoder {
    /// Begin the segment of `code` that starts at `pc`, which the caller
    /// has checked is in bounds and not a verbatim escape: the
    /// segment-start iteration selects its `<start>` rule.
    pub(crate) fn start(&mut self, grammar: &Grammar, start: Nt, code: &[u8], pc: usize) {
        self.walk.clear();
        self.pc = pc + 1;
        self.fuel = 1;
        self.rules = 0;
        self.depth = 0;
        self.win_rules = 0;
        self.win_depth = 0;
        self.end = None;
        match grammar.rules_of(start).get(usize::from(code[pc])) {
            Some(&rule) => {
                self.walk.push((rule, 0));
                self.rules = 1;
                self.win_rules = 1;
                self.win_depth = 1;
            }
            None => self.fault(pc, "no such start rule"),
        }
    }

    /// Walk on to the next operator and return it with its running
    /// totals; `None` once the segment has ended, and [`SegDecoder::tail`]
    /// then says how.
    #[inline]
    pub(crate) fn next_step(
        &mut self,
        grammar: &Grammar,
        byte_nt: Nt,
        code: &[u8],
    ) -> Option<SegStep> {
        while let Some(top) = self.walk.last_mut() {
            self.fuel += 1;
            let rhs = &grammar.rule(top.0).rhs;
            let Some(&sym) = rhs.get(top.1) else {
                self.walk.pop();
                continue;
            };
            match sym {
                Symbol::N(nt) => {
                    top.1 += 1;
                    let Some(&b) = code.get(self.pc) else {
                        self.fault(self.pc, "stream ends inside a derivation");
                        return None;
                    };
                    self.pc += 1;
                    let Some(&child) = grammar.rules_of(nt).get(usize::from(b)) else {
                        self.fault(self.pc - 1, "no such rule for non-terminal");
                        return None;
                    };
                    self.walk.push((child, 0));
                    self.rules += 1;
                    self.win_rules += 1;
                    self.win_depth = self.win_depth.max(self.walk.len() as u32);
                }
                Symbol::T(Terminal::Byte(_)) => {
                    self.fault(self.pc, "literal byte not owned by an opcode");
                    return None;
                }
                Symbol::T(Terminal::Op(op)) => {
                    // Each operand byte is burnt into the rule or read
                    // from the stream through a <byte> (§5's GET).
                    let mut operands = [0u8; 4];
                    let mut p = top.1 + 1;
                    for slot in operands.iter_mut().take(op.operand_bytes()) {
                        match rhs.get(p) {
                            Some(Symbol::T(Terminal::Byte(b))) => *slot = *b,
                            Some(Symbol::N(nt)) if *nt == byte_nt => {
                                let Some(&b) = code.get(self.pc) else {
                                    self.fault(self.pc, "stream ends inside operands");
                                    return None;
                                };
                                *slot = b;
                                self.pc += 1;
                            }
                            _ => {
                                self.fault(self.pc, "operand layout violated");
                                return None;
                            }
                        }
                        p += 1;
                    }
                    top.1 = p;
                    self.depth = self.depth.max(self.win_depth);
                    self.win_rules = 0;
                    self.win_depth = 0;
                    return Some(SegStep {
                        op,
                        operands,
                        fuel_through: self.fuel,
                        rules_through: self.rules,
                        depth_peak: self.depth,
                        stack_peak: 0,
                    });
                }
            }
        }
        self.end.get_or_insert(SegEnd::FallThrough(self.pc as u32));
        None
    }

    /// The window after the last step, once [`SegDecoder::next_step`]
    /// has returned `None`.
    pub(crate) fn tail(&self) -> SegTail {
        SegTail {
            total_fuel: self.fuel,
            rules: self.win_rules,
            depth: self.win_depth,
            end: self.end.expect("the segment has ended"),
        }
    }

    /// End the segment in a fault tail: the walk stops here.
    fn fault(&mut self, offset: usize, detail: &'static str) {
        self.walk.clear();
        self.end = Some(SegEnd::Fault {
            offset: offset as u32,
            detail,
        });
    }
}

/// Activity of the compiled segment programs, for the serve stats
/// window and the benchmark ([`crate::Vm::tier2_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tier2Stats {
    /// Segment programs cached (a segment evicted and cached again
    /// counts each time).
    pub compiled: u64,
    /// Superinstructions across all cached programs.
    pub fused_ops: u64,
    /// Segment visits served from the cache.
    pub hits: u64,
    /// Always 0: telemetry and tracing run the same compiled programs,
    /// so no replay falls back to a slower loop.
    pub deopts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_grammar::RuleOrigin;
    use std::iter::repeat_n;
    use Opcode::*;

    /// The operators of the test grammar's statements: `<start>` rule
    /// `i + 1` is `<start> ::= <start> OPS[i] <byte>^n`.
    const OPS: [Opcode; 6] = [LIT1, POPU, ADDU, BrTrue, ARGU, LocalCALLU];
    /// `<start>` rule of a literal byte no operator owns.
    const BYTE_RULE: u8 = OPS.len() as u8 + 1;
    /// `<start>` rule of an operand slot that holds an operator.
    const LAYOUT_RULE: u8 = OPS.len() as u8 + 2;

    /// A grammar of flat `<start> ::= <start> body` statements over a
    /// 256-rule `<byte>`, with `<start>`'s rule 0 the ε rule.
    fn grammar() -> (Grammar, Nt, Nt) {
        let o = RuleOrigin::Original;
        let mut g = Grammar::new();
        let start = g.add_nt("start");
        let byte = g.add_nt("byte");
        for b in 0..=255u8 {
            g.add_rule(byte, vec![Symbol::byte(b)], o);
        }
        g.add_rule(start, Vec::new(), o);
        let mut bodies: Vec<Vec<Symbol>> = OPS
            .iter()
            .map(|&op| {
                let mut rhs = vec![Symbol::op(op)];
                rhs.extend(repeat_n(Symbol::N(byte), op.operand_bytes()));
                rhs
            })
            .collect();
        bodies.push(vec![Symbol::byte(7)]);
        bodies.push(vec![Symbol::op(LIT1), Symbol::op(POPU)]);
        for body in bodies {
            let mut rhs = vec![Symbol::N(start)];
            rhs.extend(body);
            g.add_rule(start, rhs, o);
        }
        (g, start, byte)
    }

    /// The stream of a segment of `(operator, first operand byte)`
    /// statements: `<start>` rules outermost first, ε, then each
    /// statement's operand bytes in execution order.
    fn stream(stmts: &[(Opcode, u8)]) -> Vec<u8> {
        let rule = |op: &Opcode| OPS.iter().position(|o| o == op).unwrap() as u8 + 1;
        let mut out: Vec<u8> = stmts.iter().rev().map(|(op, _)| rule(op)).collect();
        out.push(0);
        for &(op, v) in stmts {
            let n = op.operand_bytes();
            out.extend([v].into_iter().chain(repeat_n(0, n)).take(n));
        }
        out
    }

    fn decode(code: &[u8], pc: usize) -> SegProgram {
        let (g, start, byte) = grammar();
        SegProgram::decode(&mut SegDecoder::default(), &g, start, byte, code, pc)
    }

    #[test]
    fn running_totals_anchor_each_step() {
        let code = stream(&[(LIT1, 1), (LIT1, 2), (ADDU, 0), (POPU, 0)]);
        let mut prog = decode(&code, 0);
        // Five rule selections and the ε pop come before the first
        // dispatch; each later step adds a frame pop and its dispatch.
        let fuel: Vec<_> = prog.steps.iter().map(|s| s.fuel_through).collect();
        assert_eq!(fuel, [7, 9, 11, 13]);
        assert!(prog
            .steps
            .iter()
            .all(|s| s.rules_through == 5 && s.depth_peak == 5));
        // Heights after each step: 1, 2, 1, 0.
        let stack: Vec<_> = prog.steps.iter().map(|s| s.stack_peak).collect();
        assert_eq!(stack, [1, 2, 2, 2]);
        assert_eq!(prog.steps[1].operands, [2, 0, 0, 0]);
        // The tail is the last frame pop.
        assert_eq!(
            prog.tail,
            SegTail {
                total_fuel: 14,
                rules: 0,
                depth: 0,
                end: SegEnd::FallThrough(code.len() as u32),
            }
        );
        assert_eq!(prog.rules_before(2), 5);
        prog.compile(&Procedure::new("t"), &[]);
        // LIT1 2; ADDU fuses to one superinstruction.
        assert_eq!(prog.ops.len(), 3);
    }

    #[test]
    fn popping_segments_start_below_zero() {
        // A segment that consumes values pushed by its predecessor.
        let prog = decode(&stream(&[(POPU, 0), (BrTrue, 0)]), 0);
        let stack: Vec<_> = prog.steps.iter().map(|s| s.stack_peak).collect();
        assert_eq!(stack, [-1, -1]);
    }

    #[test]
    fn call_carrying_segments_stay_unfused() {
        let code = stream(&[(LIT1, 1), (ARGU, 0), (LocalCALLU, 0), (LIT1, 2), (ADDU, 0)]);
        let mut prog = decode(&code, 0);
        prog.compile(&Procedure::new("t"), &[]);
        assert_eq!(prog.steps.len(), 5);
        assert!(prog.ops.is_empty(), "a call-carrying program was fused");
    }

    #[test]
    fn a_segment_decodes_from_its_own_pc() {
        let first = stream(&[(LIT1, 3), (POPU, 0)]);
        let mut code = first.clone();
        code.extend(stream(&[(LIT1, 9), (POPU, 0)]));
        let prog = decode(&code, first.len());
        assert_eq!(prog.steps[0].operands, [9, 0, 0, 0]);
        assert_eq!(prog.tail.end, SegEnd::FallThrough(code.len() as u32));
    }

    #[test]
    fn the_decoder_reads_no_further_than_the_next_operator() {
        let code = stream(&[(LIT1, 4), (POPU, 0), (LIT1, 5), (POPU, 0)]);
        let (g, start, byte) = grammar();
        let mut dec = SegDecoder::default();
        dec.start(&g, start, &code, 0);
        let first = dec.next_step(&g, byte, &code).unwrap();
        // Four rule bytes, ε, then LIT1's operand: nothing past it.
        assert_eq!((first.op, first.operands[0], dec.pc), (LIT1, 4, 6));
        let mut steps = vec![first];
        steps.extend(std::iter::from_fn(|| dec.next_step(&g, byte, &code)));
        let whole = decode(&code, 0);
        let key = |s: &SegStep| {
            (
                s.op,
                s.operands,
                s.fuel_through,
                s.rules_through,
                s.depth_peak,
            )
        };
        assert!(steps.iter().map(key).eq(whole.steps.iter().map(key)));
        assert_eq!(dec.tail(), whole.tail);
    }

    #[test]
    fn corrupt_derivations_end_in_a_fault_tail() {
        // (steps, fuel through the faulting iteration, rules selected
        // after the last step, end)
        let tail = |code: &[u8]| {
            let p = decode(code, 0);
            (p.steps.len(), p.tail.total_fuel, p.tail.rules, p.tail.end)
        };
        let fault = |offset, detail| SegEnd::Fault { offset, detail };
        assert_eq!(tail(&[200]), (0, 1, 0, fault(0, "no such start rule")));
        assert_eq!(
            tail(&[2, 200]),
            (0, 2, 1, fault(1, "no such rule for non-terminal"))
        );
        assert_eq!(
            tail(&[2, 1]),
            (0, 3, 2, fault(2, "stream ends inside a derivation"))
        );
        // POPU runs, then LIT1's operand is missing.
        let code = stream(&[(POPU, 0), (LIT1, 5)]);
        assert_eq!(
            tail(&code[..code.len() - 1]),
            (1, 7, 0, fault(3, "stream ends inside operands"))
        );
        assert_eq!(
            tail(&[BYTE_RULE, 0]),
            (0, 4, 2, fault(2, "literal byte not owned by an opcode"))
        );
        assert_eq!(
            tail(&[LAYOUT_RULE, 0]),
            (0, 4, 2, fault(2, "operand layout violated"))
        );
    }
}
