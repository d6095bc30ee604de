//! # pgr-grammar
//!
//! Context-free grammar machinery for *Bytecode Compression via Profiled
//! Grammar Rewriting* (Evans & Fraser, PLDI 2001, §4.1 and Appendix 2).
//!
//! The compression scheme is "based on a grammar that describes the set of
//! legal instruction sequences"; programs are represented by their leftmost
//! derivations. This crate provides:
//!
//! * [`Terminal`], [`Nt`], [`Symbol`] — the symbol alphabet: terminals are
//!   opcodes and literal bytes, non-terminals are small indices,
//! * [`Grammar`], [`Rule`], [`RuleId`] — a mutable rule arena that keeps
//!   per-non-terminal rule order (a rule's *index* within its non-terminal
//!   is its compressed encoding byte),
//! * [`initial::InitialGrammar`] — the paper's Appendix 2 grammar for the
//!   initial bytecode, with opcode→rule lookup tables and a tokenizer,
//! * [`postfix`] — the one postfix stack parser over symbols: a segment's
//!   tokens give its tree of Appendix 2 rules, a rule's right-hand side
//!   gives the tree fragment (pattern) the rule stands for, and
//!   [`postfix::admit`] decides which grammars the compressor accepts,
//! * [`forest`] — parse forests built by that parser from training code
//!   (restarting at every `LABELV`, §4.1),
//! * [`shared`] — the hash-consed training forest the expander works on:
//!   one class per distinct subtree, with its instance count,
//! * [`derivation`] — leftmost derivations: extraction from parse trees,
//!   expansion back to terminal strings, and byte encoding/decoding,
//! * [`encode`] — the compact binary grammar serialization whose byte size
//!   is reported by the interpreter-size experiments (§6),
//! * [`file`] — the `.pgrg` container (`GrammarFile`): the canonical
//!   on-disk form the CLI writes and the registry content-addresses.

#![warn(missing_docs)]

pub mod derivation;
pub mod encode;
pub mod file;
pub mod forest;
pub mod grammar;
pub mod initial;
pub mod postfix;
pub mod shared;
pub mod symbol;
pub mod tables;
pub mod typed;

pub use derivation::Derivation;
pub use file::{GrammarFile, GrammarFileError};
pub use forest::{Forest, NodeId};
pub use grammar::{Grammar, Rule, RuleId, RuleOrigin};
pub use initial::InitialGrammar;
pub use shared::{ClassId, SharedForest};
pub use symbol::{Nt, Symbol, Terminal};
pub use tables::{PackedSym, RuleTable};
