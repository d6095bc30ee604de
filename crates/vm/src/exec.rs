//! Shared operator semantics.
//!
//! Both interpreters execute the same operators; they differ only in how
//! they fetch opcodes and literal operands. `interp1` reads both from the
//! code stream; `interp_nt` reads opcodes from rule right-hand sides and
//! operands from either burnt-in rule bytes or the compressed stream
//! (§5). This module is the single `switch` body they share — the
//! equivalent of the paper's `interpret1`/`interpret2` cases.

use crate::error::VmError;
use crate::machine::{FrameCtx, Stop, Vm};
use crate::value::Slot;
use pgr_bytecode::Opcode;

/// What an executed operator asks the driving loop to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flow {
    /// Fall through to the next operator.
    Continue,
    /// Transfer control to the label-table entry.
    Branch(u16),
    /// Return from the current procedure with a value.
    Return(Slot),
}

impl<'p> Vm<'p> {
    /// Execute one operator against the evaluation stack.
    ///
    /// `operands` holds the operator's literal bytes (already fetched by
    /// the caller); `frame` locates the current procedure's argument and
    /// local areas.
    ///
    /// # Errors
    ///
    /// Runtime faults ([`VmError`]) and `exit()` requests propagate as
    /// [`Stop`].
    pub(crate) fn exec_op(
        &mut self,
        op: Opcode,
        operands: [u8; 4],
        frame: &FrameCtx,
        stack: &mut Vec<Slot>,
    ) -> Result<Flow, Stop> {
        use Opcode::*;

        macro_rules! pop {
            () => {
                stack.pop().ok_or_else(|| {
                    Stop::from(VmError::StackUnderflow {
                        proc: self.proc_name(frame),
                        opcode: op,
                    })
                })?
            };
        }
        macro_rules! bin_u {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!().u();
                let $a = pop!().u();
                stack.push(Slot::from_u($e));
            }};
        }
        macro_rules! bin_i {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!().i();
                let $a = pop!().i();
                stack.push(Slot::from_i($e));
            }};
        }
        macro_rules! bin_f {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!().f();
                let $a = pop!().f();
                stack.push(Slot::from_f($e));
            }};
        }
        macro_rules! bin_d {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!().d();
                let $a = pop!().d();
                stack.push(Slot::from_d($e));
            }};
        }
        macro_rules! cmp {
            ($view:ident, |$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!().$view();
                let $a = pop!().$view();
                stack.push(Slot::from_u(u32::from($e)));
            }};
        }
        macro_rules! nonzero_i {
            ($v:expr) => {{
                let v = $v;
                if v == 0 {
                    return Err(Stop::from(VmError::DivideByZero {
                        proc: self.proc_name(frame),
                    }));
                }
                v
            }};
        }

        let operand_u16 = u16::from_le_bytes([operands[0], operands[1]]);
        let operand_u32 = u32::from_le_bytes(operands);

        match op {
            // ---- binary value operators (<v2>) ------------------------
            ADDD => bin_d!(|a, b| a + b),
            DIVD => bin_d!(|a, b| a / b),
            MULD => bin_d!(|a, b| a * b),
            SUBD => bin_d!(|a, b| a - b),
            ADDF => bin_f!(|a, b| a + b),
            DIVF => bin_f!(|a, b| a / b),
            MULF => bin_f!(|a, b| a * b),
            SUBF => bin_f!(|a, b| a - b),
            DIVI => bin_i!(|a, b| a.wrapping_div(nonzero_i!(b))),
            MODI => bin_i!(|a, b| a.wrapping_rem(nonzero_i!(b))),
            MULI => bin_i!(|a, b| a.wrapping_mul(b)),
            ADDU => bin_u!(|a, b| a.wrapping_add(b)),
            DIVU => bin_u!(|a, b| a / nonzero_i!(b)),
            MODU => bin_u!(|a, b| a % nonzero_i!(b)),
            MULU => bin_u!(|a, b| a.wrapping_mul(b)),
            SUBU => bin_u!(|a, b| a.wrapping_sub(b)),
            BANDU => bin_u!(|a, b| a & b),
            BORU => bin_u!(|a, b| a | b),
            BXORU => bin_u!(|a, b| a ^ b),
            EQD => cmp!(d, |a, b| a == b),
            GED => cmp!(d, |a, b| a >= b),
            GTD => cmp!(d, |a, b| a > b),
            LED => cmp!(d, |a, b| a <= b),
            LTD => cmp!(d, |a, b| a < b),
            NED => cmp!(d, |a, b| a != b),
            EQF => cmp!(f, |a, b| a == b),
            GEF => cmp!(f, |a, b| a >= b),
            GTF => cmp!(f, |a, b| a > b),
            LEF => cmp!(f, |a, b| a <= b),
            LTF => cmp!(f, |a, b| a < b),
            NEF => cmp!(f, |a, b| a != b),
            GEI => cmp!(i, |a, b| a >= b),
            GTI => cmp!(i, |a, b| a > b),
            LEI => cmp!(i, |a, b| a <= b),
            LTI => cmp!(i, |a, b| a < b),
            EQU => cmp!(u, |a, b| a == b),
            GEU => cmp!(u, |a, b| a >= b),
            GTU => cmp!(u, |a, b| a > b),
            LEU => cmp!(u, |a, b| a <= b),
            LTU => cmp!(u, |a, b| a < b),
            NEU => cmp!(u, |a, b| a != b),
            LSHI => bin_i!(|a, b| a.wrapping_shl(b as u32 & 31)),
            LSHU => bin_u!(|a, b| a.wrapping_shl(b & 31)),
            RSHI => bin_i!(|a, b| a.wrapping_shr(b as u32 & 31)),
            RSHU => bin_u!(|a, b| a.wrapping_shr(b & 31)),

            // ---- unary value operators (<v1>) -------------------------
            BCOMU => {
                let a = pop!().u();
                stack.push(Slot::from_u(!a));
            }
            CALLD | CALLF | CALLU | CALLV => {
                let addr = pop!().u();
                let ret = self.call_address(addr)?;
                if op != CALLV {
                    stack.push(ret);
                }
            }
            CVDF => {
                let v = pop!().d();
                stack.push(Slot::from_f(v as f32));
            }
            CVDI => {
                let v = pop!().d();
                stack.push(Slot::from_i(v as i32));
            }
            CVFD => {
                let v = pop!().f();
                stack.push(Slot::from_d(f64::from(v)));
            }
            CVFI => {
                let v = pop!().f();
                stack.push(Slot::from_i(v as i32));
            }
            CVID => {
                let v = pop!().i();
                stack.push(Slot::from_d(f64::from(v)));
            }
            CVIF => {
                let v = pop!().i();
                stack.push(Slot::from_f(v as f32));
            }
            CVI1I4 => {
                let v = pop!().u();
                stack.push(Slot::from_i(i32::from(v as u8 as i8)));
            }
            CVI2I4 => {
                let v = pop!().u();
                stack.push(Slot::from_i(i32::from(v as u16 as i16)));
            }
            CVU1U4 => {
                let v = pop!().u();
                stack.push(Slot::from_u(v & 0xFF));
            }
            CVU2U4 => {
                let v = pop!().u();
                stack.push(Slot::from_u(v & 0xFFFF));
            }
            INDIRC => {
                let p = pop!().u();
                stack.push(Slot::from_u(u32::from(self.mem.load_u8(p)?)));
            }
            INDIRS => {
                let p = pop!().u();
                stack.push(Slot::from_u(u32::from(self.mem.load_u16(p)?)));
            }
            INDIRU => {
                let p = pop!().u();
                stack.push(Slot::from_u(self.mem.load_u32(p)?));
            }
            INDIRF => {
                let p = pop!().u();
                stack.push(Slot::from_f(self.mem.load_f32(p)?));
            }
            INDIRD => {
                let p = pop!().u();
                stack.push(Slot::from_d(self.mem.load_f64(p)?));
            }
            NEGD => {
                let v = pop!().d();
                stack.push(Slot::from_d(-v));
            }
            NEGF => {
                let v = pop!().f();
                stack.push(Slot::from_f(-v));
            }
            NEGI => {
                let v = pop!().i();
                stack.push(Slot::from_i(v.wrapping_neg()));
            }

            // ---- value leaves (<v0>) ----------------------------------
            ADDRFP => stack.push(Slot::from_u(frame.args_base + u32::from(operand_u16))),
            ADDRLP => stack.push(Slot::from_u(frame.locals_base + u32::from(operand_u16))),
            ADDRGP => {
                let addr = self.global_address(operand_u16).ok_or_else(|| {
                    Stop::from(VmError::BadGlobal {
                        proc: self.proc_name(frame),
                        index: operand_u16,
                    })
                })?;
                stack.push(Slot::from_u(addr));
            }
            LocalCALLD | LocalCALLF | LocalCALLU | LocalCALLV => {
                let ret = self.call_descriptor(operand_u16)?;
                if op != LocalCALLV {
                    stack.push(ret);
                }
            }
            LIT1 | LIT2 | LIT3 | LIT4 => stack.push(Slot::from_u(operand_u32)),

            // ---- binary statements (<x2>) -----------------------------
            ASGNB => {
                let p = pop!().u();
                let q = pop!().u();
                let size = u32::from(operand_u16);
                if size > 0 {
                    self.mem.copy(p, q, size)?;
                }
            }
            ASGNC => {
                let p = pop!().u();
                let v = pop!().u();
                self.mem.store_u8(p, v as u8)?;
            }
            ASGNS => {
                let p = pop!().u();
                let v = pop!().u();
                self.mem.store_u16(p, v as u16)?;
            }
            ASGNU => {
                let p = pop!().u();
                let v = pop!().u();
                self.mem.store_u32(p, v)?;
            }
            ASGNF => {
                let p = pop!().u();
                let v = pop!();
                self.mem.store_u32(p, v.u())?; // float bits
            }
            ASGND => {
                let p = pop!().u();
                let v = pop!();
                self.mem.store_u64(p, v.bits())?;
            }

            // ---- unary statements (<x1>) ------------------------------
            ARGB => {
                let addr = pop!().u();
                let size = u32::from(operand_u16);
                let bytes = self.mem.load_bytes(addr, size)?;
                self.arg_buf.extend_from_slice(&bytes);
            }
            ARGD => {
                let v = pop!();
                self.arg_buf.extend_from_slice(&v.bits().to_le_bytes());
            }
            ARGF | ARGU => {
                let v = pop!();
                self.arg_buf.extend_from_slice(&v.u().to_le_bytes());
            }
            BrTrue => {
                let flag = pop!().u();
                if flag != 0 {
                    return Ok(Flow::Branch(operand_u16));
                }
            }
            POPD | POPF | POPU => {
                let _ = pop!();
            }
            RETD | RETF | RETU => {
                let v = pop!();
                return Ok(Flow::Return(v));
            }

            // ---- leaf statements (<x0>) -------------------------------
            JUMPV => return Ok(Flow::Branch(operand_u16)),
            RETV => return Ok(Flow::Return(Slot::ZERO)),

            LABELV => {} // branch-target marker: a no-op when executed
        }
        Ok(Flow::Continue)
    }
}
