//! The end-to-end pipeline facade: train → compress → decompress.

use crate::canonical::{canonicalize_program, CanonError};
use crate::compress::{
    decompress_program, CompressError, CompressedProgram, CompressionStats, DecompressError,
};
use crate::engine::{Compressor, CompressorConfig};
use crate::expander::{expand_with, ExpanderConfig, ExpansionStats};
use pgr_bytecode::{validate_program_with, Program, ValidateError};
use pgr_grammar::encode::grammar_size;
use pgr_grammar::forest::ForestParseError;
use pgr_grammar::initial::{tokenize_segment, TokenizeError};
use pgr_grammar::{Forest, Grammar, InitialGrammar, Nt};
use pgr_telemetry::{names, Metrics, Recorder};
use std::fmt;

/// Training configuration.
#[derive(Debug, Clone, Default)]
pub struct TrainConfig {
    /// Expander knobs (rule budget, frequency threshold, …).
    pub expander: ExpanderConfig,
    /// Telemetry destination for `train.*` counters and the
    /// `train`/`train.ingest`/`train.expand` spans. Defaults to the
    /// shared disabled recorder (no overhead).
    pub recorder: Recorder,
}

/// An error while training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// A training program failed validation.
    Validate(ValidateError),
    /// A training program failed canonicalization.
    Canon(CanonError),
    /// A training segment failed to tokenize.
    Tokenize(TokenizeError),
    /// A training segment is not well-formed postfix code.
    Parse(ForestParseError),
    /// [`ExpanderConfig::max_rules_per_nt`] is above 256, so rule
    /// indices would not fit one byte.
    RuleCap(usize),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Validate(e) => write!(f, "{e}"),
            TrainError::Canon(e) => write!(f, "{e}"),
            TrainError::Tokenize(e) => write!(f, "{e}"),
            TrainError::Parse(e) => write!(f, "{e}"),
            TrainError::RuleCap(cap) => write!(
                f,
                "rule cap {cap} is above 256: rule indices must fit one byte"
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Validate(e) => Some(e),
            TrainError::Canon(e) => Some(e),
            TrainError::Tokenize(e) => Some(e),
            TrainError::Parse(e) => Some(e),
            TrainError::RuleCap(_) => None,
        }
    }
}

/// The product of training: the expanded grammar and everything needed to
/// compress, decompress, and generate interpreters.
#[derive(Debug, Clone)]
pub struct Trained {
    initial: InitialGrammar,
    expanded: Grammar,
    /// What the expansion run did.
    pub stats: ExpansionStats,
}

impl Trained {
    /// The expanded (ambiguous) grammar.
    pub fn expanded(&self) -> &Grammar {
        &self.expanded
    }

    /// The initial grammar and its non-terminal handles. Its rule ids are
    /// valid in [`Trained::expanded`] too (expansion only adds rules).
    pub fn initial(&self) -> &InitialGrammar {
        &self.initial
    }

    /// The start non-terminal.
    pub fn start(&self) -> Nt {
        self.initial.nt_start
    }

    /// Serialized size of the expanded grammar in bytes (the table the
    /// compressed-bytecode interpreter carries, §6).
    pub fn grammar_size(&self) -> usize {
        grammar_size(&self.expanded)
    }

    /// Build a reusable compression engine over the expanded grammar with
    /// default [`CompressorConfig`]. Prefer this (and keep the engine
    /// around) when compressing more than one program: its pattern table
    /// is built once.
    pub fn compressor(&self) -> Compressor<'_> {
        Compressor::new(&self.expanded, self.start())
    }

    /// Build a reusable compression engine with explicit configuration
    /// (thread count, batch size, fallback, timing collection).
    pub fn compressor_with(&self, config: CompressorConfig) -> Compressor<'_> {
        Compressor::with_config(&self.expanded, self.start(), config)
    }

    /// Build a reusable compression engine that reports `compress.*` and
    /// `tiler.*` metrics into `recorder`.
    pub fn compressor_with_recorder(
        &self,
        config: CompressorConfig,
        recorder: Recorder,
    ) -> Compressor<'_> {
        Compressor::with_recorder(&self.expanded, self.start(), config, recorder)
    }

    /// Compress a program; returns the compressed image and size stats.
    ///
    /// This is a convenience wrapper that builds a single-use
    /// [`Compressor`]; batch callers should build one via
    /// [`Trained::compressor`] and reuse it.
    ///
    /// # Errors
    ///
    /// See [`CompressError`].
    pub fn compress(
        &self,
        program: &Program,
    ) -> Result<(CompressedProgram, CompressionStats), CompressError> {
        self.compressor().compress(program)
    }

    /// Decompress a compressed program back to (canonical) bytecode.
    ///
    /// # Errors
    ///
    /// See [`DecompressError`].
    pub fn decompress(&self, compressed: &CompressedProgram) -> Result<Program, DecompressError> {
        decompress_program(&self.expanded, self.start(), compressed)
    }
}

/// Train an expanded grammar from sample programs (paper §2: the corpus
/// "is assumed to represent statistically the populations of the programs
/// to be coded in the new bytecode").
///
/// # Errors
///
/// Fails if the rule cap is above 256 or any training program is
/// invalid; see [`TrainError`].
pub fn train(programs: &[&Program], config: &TrainConfig) -> Result<Trained, TrainError> {
    let cap = config.expander.max_rules_per_nt;
    if cap > 256 {
        return Err(TrainError::RuleCap(cap));
    }
    let recorder = &config.recorder;
    let _train_span = recorder.span("train");
    let initial = InitialGrammar::build();
    let mut expanded = initial.grammar.clone();
    let mut forest = Forest::new();

    let mut segments = 0u64;
    let mut tokens_total = 0u64;
    {
        let _ingest_span = recorder.span("ingest");
        for &program in programs {
            validate_program_with(program, recorder).map_err(TrainError::Validate)?;
            let canon = canonicalize_program(program).map_err(TrainError::Canon)?;
            for proc in &canon.procs {
                for range in proc.segments().expect("canonical code decodes") {
                    let tokens =
                        tokenize_segment(&proc.code[range]).map_err(TrainError::Tokenize)?;
                    segments += 1;
                    tokens_total += tokens.len() as u64;
                    forest
                        .add_segment(&initial, &tokens)
                        .map_err(TrainError::Parse)?;
                }
            }
        }
    }

    let stats = {
        let _expand_span = recorder.span("expand");
        // The trainer always reserves the start non-terminal's last
        // one-byte rule index for the verbatim-escape marker, so every
        // trained grammar supports graceful degradation on unparseable
        // segments (at worst one forgone inlined rule).
        let mut expander = config.expander.clone();
        expander.escape_reserve = Some(initial.nt_start);
        expand_with(&mut expanded, &mut forest, &expander, recorder)
    };
    if recorder.is_enabled() {
        let mut batch = Metrics::new();
        batch.add(names::TRAIN_PROGRAMS, programs.len() as u64);
        batch.add(names::TRAIN_SEGMENTS, segments);
        batch.add(names::TRAIN_TOKENS, tokens_total);
        recorder.record(batch);
    }
    Ok(Trained {
        initial,
        expanded,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_bytecode::asm::assemble;
    use pgr_bytecode::Opcode;

    /// A training program with strong regularities: many `x = x + 1`
    /// statements on locals, spread over procedures of varying length so
    /// intermediate inlined rules stay in use (a corpus of identical
    /// giant blocks would subsume them all into one monster rule).
    fn training_program() -> Program {
        let mut src = String::new();
        for p in 0..20usize {
            src.push_str(&format!("proc f{p} frame=64 args=0\n"));
            for i in 0..(1 + (p * 3) % 7) {
                let off = ((i * 4 + p) % 8) * 4;
                src.push_str(&format!(
                    "\tADDRLP {off}\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP {off}\n\tASGNU\n"
                ));
            }
            // Odd procedures get a counting loop, so the corpus also has
            // segments that do not end in RETV and branchy statements.
            if p % 2 == 1 {
                src.push_str("\tlabel 0\n");
                let off = (p % 8) * 4;
                src.push_str(&format!(
                    "\tADDRLP {off}\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP {off}\n\tASGNU\n"
                ));
                src.push_str(&format!(
                    "\tADDRLP {off}\n\tINDIRU\n\tLIT1 {}\n\tLTU\n\tBrTrue 0\n",
                    40 + p
                ));
            }
            src.push_str("\tRETV\nendproc\n");
        }
        src.push_str("entry f0\n");
        assemble(&src).unwrap()
    }

    /// A differently-shaped test program drawn from the same "statistics".
    fn test_program() -> Program {
        let mut src = String::from("proc f frame=32 args=4\n");
        for i in 0..6 {
            let off = (i % 2) * 4 + 8;
            src.push_str(&format!(
                "\tADDRLP {off}\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP {off}\n\tASGNU\n"
            ));
        }
        src.push_str("\tlabel 0\n\tLIT1 3\n\tPOPU\n\tBrTrue 0\n\tRETV\nendproc\nentry f\n");
        // BrTrue pops; make it well-formed: LIT1 3 BrTrue 0 — rewrite:
        let src = src.replace("\tLIT1 3\n\tPOPU\n\tBrTrue 0\n", "\tLIT1 3\n\tBrTrue 0\n");
        assemble(&src).unwrap()
    }

    #[test]
    fn training_then_compression_shrinks_similar_programs() {
        let train_prog = training_program();
        let trained = train(&[&train_prog], &TrainConfig::default()).unwrap();
        assert!(trained.stats.rules_added > 0);

        let test = test_program();
        let (cp, stats) = trained.compress(&test).unwrap();
        assert!(
            stats.compressed_code < stats.original_code,
            "expected compression, got {} -> {}",
            stats.original_code,
            stats.compressed_code
        );
        let back = trained.decompress(&cp).unwrap();
        assert_eq!(back, canonicalize_program(&test).unwrap());
    }

    #[test]
    fn training_program_compresses_best_on_itself() {
        let train_prog = training_program();
        let trained = train(&[&train_prog], &TrainConfig::default()).unwrap();
        let (_, stats) = trained.compress(&train_prog).unwrap();
        // The greedy forest shrink bounds the self-compression size from
        // above: the encoder finds an optimal derivation, which
        // can only match or beat the contracted training forest.
        assert!(stats.compressed_code <= trained.stats.derivation_after);
        assert!(stats.ratio() < 0.5);
    }

    #[test]
    fn grammar_size_grows_with_training() {
        let train_prog = training_program();
        let trained = train(&[&train_prog], &TrainConfig::default()).unwrap();
        let untrained = train(&[], &TrainConfig::default()).unwrap();
        assert!(trained.grammar_size() > untrained.grammar_size());
        assert_eq!(untrained.stats.rules_added, 0);
    }

    #[test]
    fn training_reports_metrics_and_spans() {
        let train_prog = training_program();
        let recorder = Recorder::new();
        let config = TrainConfig {
            recorder: recorder.clone(),
            ..TrainConfig::default()
        };
        let trained = train(&[&train_prog], &config).unwrap();

        let m = recorder.snapshot();
        assert_eq!(m.counter(names::TRAIN_PROGRAMS), 1);
        assert!(m.counter(names::TRAIN_SEGMENTS) > 0);
        assert!(m.counter(names::TRAIN_TOKENS) > 0);
        assert_eq!(
            m.counter(names::TRAIN_RULES_ADDED),
            trained.stats.rules_added as u64
        );
        assert_eq!(
            m.counter(names::TRAIN_CONTRACTIONS),
            trained.stats.contractions as u64
        );
        assert!(m.counter(names::TRAIN_INLINE_ITERATIONS) > 0);
        assert!(m.gauge(names::TRAIN_RULES_PER_NT_PEAK).unwrap_or(0) > 0);
        assert!(m.counter(names::BYTECODE_VALIDATE_PROCS) > 0);
        // The span hierarchy nests ingest and expand under train.
        for span in ["train", "train.ingest", "train.expand"] {
            assert!(m.span_stat(span).is_some(), "missing span {span}");
        }
    }

    #[test]
    fn invalid_training_input_is_rejected() {
        let mut bad = training_program();
        bad.procs[0].code = vec![Opcode::ADDU as u8];
        let err = train(&[&bad], &TrainConfig::default()).unwrap_err();
        assert!(matches!(err, TrainError::Validate(_)));
        // So is a rule cap that one-byte rule indices cannot hold.
        let config = TrainConfig {
            expander: ExpanderConfig {
                max_rules_per_nt: 257,
                ..ExpanderConfig::default()
            },
            ..TrainConfig::default()
        };
        let err = train(&[&training_program()], &config).unwrap_err();
        assert_eq!(err, TrainError::RuleCap(257));
    }

    #[test]
    fn branchy_programs_roundtrip() {
        let src = "proc main frame=4 args=0\n\
                   \tLIT1 1\n\tBrTrue 1\n\
                   \tlabel 0\n\
                   \tADDRLP 0\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP 0\n\tASGNU\n\
                   \tLIT1 1\n\tBrTrue 0\n\
                   \tlabel 1\n\
                   \tRETV\nendproc\nentry main\n";
        let prog = assemble(src).unwrap();
        let train_prog = training_program();
        let trained = train(&[&train_prog], &TrainConfig::default()).unwrap();
        let (cp, _) = trained.compress(&prog).unwrap();
        assert_eq!(cp.program.procs[0].labels.len(), 2);
        let back = trained.decompress(&cp).unwrap();
        assert_eq!(back, canonicalize_program(&prog).unwrap());
    }
}
