//! # pgr-vm
//!
//! The two interpreters of *Bytecode Compression via Profiled Grammar
//! Rewriting* (Evans & Fraser, PLDI 2001, §5), plus the execution
//! substrate they share and the interpreter *generator*.
//!
//! * The **initial interpreter** (`interp1`) executes uncompressed
//!   bytecode: an infinite fetch loop around a switch with one case per
//!   operator, manipulating a small execution stack of machine-type
//!   unions.
//! * The **compressed-bytecode interpreter** (`interp_nt`) "adds another
//!   level of interpretation": each compressed byte selects a rule of the
//!   current non-terminal; the interpreter advances across the rule's
//!   right-hand side, executing terminals and recursing on non-terminals.
//!   Literal operands may be split between the rule (burnt-in bytes) and
//!   the instruction stream — the `GET` logic of §5. By default each
//!   segment is decoded once, on its first visit, into a compiled
//!   program ([`segment`]) that one replay routine runs on that visit
//!   and every later one, quiet or observed; the reference rule walker
//!   stays selectable via [`VmConfig::reference_walker`] as the
//!   executable specification.
//!
//! Both interpreters share one operator semantics ([`exec`]) over one
//! machine model ([`Vm`]): a little-endian memory holding data, BSS,
//! a bump-allocated heap and a frame stack, materialized as the program
//! touches it ([`memory`]); a global-address table
//! resolved at load time (the "linker" of §3); trampoline-style indirect
//! calls that reach bytecode and native library routines through the same
//! mechanism (Appendix 3); and out-of-line label tables for branches.
//!
//! The [`cgen`] module emits C source for both interpreters and the rule
//! tables, and prices them with the deterministic size model used by the
//! §6 interpreter-size experiments.
//!
//! ## Example
//!
//! ```
//! use pgr_bytecode::asm::assemble;
//! use pgr_vm::{Vm, VmConfig};
//!
//! // print 'A' and return 7
//! let prog = assemble(
//!     "proc main frame=0 args=0\n\
//!      \tLIT1 65\n\tARGU\n\tADDRGP 0\n\tCALLU\n\tPOPU\n\
//!      \tLIT1 7\n\tRETU\nendproc\n\
//!      native putchar\n\
//!      entry main\n",
//! ).unwrap();
//! let mut vm = Vm::new(&prog, VmConfig::default()).unwrap();
//! let result = vm.run().unwrap();
//! assert_eq!(result.output, b"A");
//! assert_eq!(result.ret.u(), 7);
//! ```

#![warn(missing_docs)]

pub mod cgen;
pub mod error;
pub mod exec;
pub mod machine;
pub mod memory;
pub mod natives;
pub mod segment;
pub mod value;

pub use error::VmError;
pub use machine::{Layout, RunResult, TraceEvent, Vm, VmConfig};
pub use segment::Tier2Stats;
pub use value::Slot;
