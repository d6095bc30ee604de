//! VM error type.

use pgr_bytecode::Opcode;
use std::fmt;

/// A runtime failure inside either interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A memory access outside the mapped address space.
    BadAddress {
        /// Faulting address.
        addr: u32,
        /// Access width in bytes.
        size: u32,
    },
    /// The code stream did not decode (uncompressed interpreter).
    BadOpcode {
        /// Procedure name.
        proc: String,
        /// Byte offset of the bad opcode.
        offset: usize,
    },
    /// The evaluation stack ran dry (ill-formed code; the validator
    /// rejects this statically).
    StackUnderflow {
        /// Procedure name.
        proc: String,
        /// The operator that underflowed.
        opcode: Opcode,
    },
    /// Integer division or remainder by zero.
    DivideByZero {
        /// Procedure name.
        proc: String,
    },
    /// The instruction budget was exhausted.
    OutOfFuel,
    /// The run's `CancelToken` fired (the request deadline passed or
    /// the owner cancelled it). Like `OutOfFuel`, a resource decision:
    /// the program may well have completed given more time.
    Cancelled {
        /// Milliseconds between the token's creation (request arrival)
        /// and the cancellation check that fired.
        elapsed_ms: u64,
    },
    /// Call depth exceeded the configured limit.
    CallDepthExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// An indirect call's target is neither a trampoline nor a native.
    BadCallTarget {
        /// The popped address.
        addr: u32,
    },
    /// A branch named a label-table entry that does not exist.
    BadLabel {
        /// Procedure name.
        proc: String,
        /// The missing label index.
        index: u16,
    },
    /// A `LocalCALL` named a descriptor that does not exist.
    BadDescriptor {
        /// The missing descriptor index.
        index: u16,
    },
    /// A global-table entry names a native routine the VM does not
    /// provide (load-time error).
    UnknownNative {
        /// The unresolvable name.
        name: String,
    },
    /// `ADDRGP` referenced a global-table entry that does not exist.
    BadGlobal {
        /// Procedure name.
        proc: String,
        /// The missing global index.
        index: u16,
    },
    /// Control ran past the end of a procedure's code.
    FellOffEnd {
        /// Procedure name.
        proc: String,
    },
    /// The heap bump allocator is out of space.
    HeapExhausted {
        /// The allocation size that failed.
        requested: u32,
    },
    /// The frame stack region is out of space.
    StackOverflow,
    /// The image's data and bss, with the configured heap and stack (or
    /// one global's address), end past the 32-bit address space
    /// (load-time error).
    LayoutOverflow {
        /// Where the layout would end, as a 64-bit address.
        end: u64,
    },
    /// Fewer outgoing-argument bytes than the callee expects.
    ArgUnderflow {
        /// Callee name.
        proc: String,
        /// Bytes the callee expects.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A compressed stream byte named a rule its non-terminal does not
    /// have, or a rule violated the operand-layout invariant.
    CorruptDerivation {
        /// Procedure name.
        proc: String,
        /// Stream offset near the corruption.
        offset: usize,
        /// What went wrong.
        detail: &'static str,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::BadAddress { addr, size } => {
                write!(f, "bad {size}-byte access at {addr:#x}")
            }
            VmError::BadOpcode { proc, offset } => {
                write!(f, "{proc}+{offset}: undecodable opcode")
            }
            VmError::StackUnderflow { proc, opcode } => {
                write!(f, "{proc}: stack underflow at {opcode}")
            }
            VmError::DivideByZero { proc } => write!(f, "{proc}: division by zero"),
            VmError::OutOfFuel => write!(f, "instruction budget exhausted"),
            VmError::Cancelled { elapsed_ms } => {
                write!(f, "run cancelled after {elapsed_ms} ms")
            }
            VmError::CallDepthExceeded { limit } => {
                write!(f, "call depth exceeded {limit}")
            }
            VmError::BadCallTarget { addr } => write!(f, "bad call target {addr:#x}"),
            VmError::BadLabel { proc, index } => write!(f, "{proc}: no label {index}"),
            VmError::BadDescriptor { index } => write!(f, "no procedure descriptor {index}"),
            VmError::UnknownNative { name } => write!(f, "unknown native routine {name:?}"),
            VmError::BadGlobal { proc, index } => write!(f, "{proc}: no global {index}"),
            VmError::FellOffEnd { proc } => write!(f, "{proc}: control ran off the end"),
            VmError::HeapExhausted { requested } => {
                write!(f, "heap exhausted allocating {requested} bytes")
            }
            VmError::StackOverflow => write!(f, "frame stack overflow"),
            VmError::LayoutOverflow { end } => write!(
                f,
                "image layout ends at {end:#x}, past the 32-bit address space"
            ),
            VmError::ArgUnderflow { proc, need, have } => {
                write!(
                    f,
                    "{proc}: needs {need} argument bytes, caller passed {have}"
                )
            }
            VmError::CorruptDerivation {
                proc,
                offset,
                detail,
            } => {
                write!(f, "{proc}+{offset}: corrupt compressed stream: {detail}")
            }
        }
    }
}

impl std::error::Error for VmError {}
