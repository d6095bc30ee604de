//! The compressor's tiler against its reference spec, the Earley parser.
//!
//! `pgr::core::tile` finds each segment's shortest derivation as a
//! minimum-cost tiling of the segment's unique postfix parse; the
//! paper's cost-weighted Earley parser (`pgr::earley`) searches the
//! ambiguous expanded grammar directly. For every segment checked here
//! the tiler's derivation must expand back to the segment and be exactly
//! as long as Earley's. The two may pick different derivations where
//! several shortest ones tie; the tiler takes the lexicographically
//! smallest, which a brute-force enumeration of every tiling confirms
//! on small segments.
//!
//! Grammars are trained with rule caps 8-256, with subsumed-rule removal
//! on and off. The gzip, lcc and gcc corpora are `#[ignore]`d: run them
//! with
//! `cargo test --release --test tiler_reference -- --include-ignored`.

use pgr::bytecode::Program;
use pgr::core::tile::{PatternNode, TileScratch, Tiler};
use pgr::core::{
    canonicalize_program, train, Compressor, CompressorConfig, ExpanderConfig, NoParse,
    TrainConfig, Trained,
};
use pgr::corpus::synth::{self, Flavor, SynthConfig};
use pgr::corpus::{compile_sample, corpus, CorpusName, SAMPLES};
use pgr::earley::{ChartArena, ShortestParser};
use pgr::grammar::initial::tokenize_segment;
use pgr::grammar::{
    Forest, Grammar, GrammarFile, InitialGrammar, NodeId, RuleId, RuleOrigin, Terminal,
};
use proptest::prelude::*;

const CAPS: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// Each cap with subsumed-rule removal on and off.
fn matrix(caps: &[usize]) -> Vec<(usize, bool)> {
    caps.iter()
        .flat_map(|&cap| [(cap, true), (cap, false)])
        .collect()
}

fn train_with(programs: &[Program], cap: usize, remove_subsumed: bool) -> Trained {
    let config = TrainConfig {
        expander: ExpanderConfig {
            max_rules_per_nt: cap,
            remove_subsumed,
            ..ExpanderConfig::default()
        },
        ..TrainConfig::default()
    };
    train(&programs.iter().collect::<Vec<_>>(), &config).expect("corpus programs train")
}

/// Every straight-line segment of the canonicalized programs, tokenized:
/// exactly what the compressor encodes.
fn segments(programs: &[Program]) -> Vec<Vec<Terminal>> {
    let mut out = Vec::new();
    for program in programs {
        let canon = canonicalize_program(program).expect("corpus programs canonicalize");
        for proc in &canon.procs {
            for range in proc.segments().expect("canonical code decodes") {
                out.push(tokenize_segment(&proc.code[range]).expect("segment tokenizes"));
            }
        }
    }
    out
}

fn tile(
    tiler: &Tiler,
    scratch: &mut TileScratch,
    tokens: &[Terminal],
) -> Result<pgr::grammar::Derivation, NoParse> {
    tiler.tile(scratch, tokens, None)
}

/// Train on `train_set` once per `(cap, remove_subsumed)` in `runs` and
/// check every segment of `inputs` against Earley. Returns how many
/// segments had a shortest derivation other than the one Earley chose.
fn check(
    label: &str,
    train_set: &[Program],
    inputs: &[Vec<Terminal>],
    runs: &[(usize, bool)],
) -> usize {
    let mut differ = 0;
    for &(cap, removal) in runs {
        let trained = train_with(train_set, cap, removal);
        let (grammar, start) = (trained.expanded(), trained.start());
        let tiler = Tiler::new(grammar, start);
        let parser = ShortestParser::new(grammar);
        let (mut scratch, mut arena) = (TileScratch::new(), ChartArena::new());
        for (i, tokens) in inputs.iter().enumerate() {
            let got = tile(&tiler, &mut scratch, tokens).unwrap_or_else(|e| {
                panic!("{label} cap {cap} removal {removal}: segment {i}: {e}")
            });
            let want = parser.parse_into(&mut arena, start, tokens).unwrap();
            assert_eq!(
                got.expand(grammar, start).as_ref(),
                Ok(tokens),
                "{label} cap {cap} removal {removal}: segment {i} does not expand back"
            );
            assert_eq!(
                got.len(),
                want.len(),
                "{label} cap {cap} removal {removal}: segment {i} is not shortest"
            );
            differ += usize::from(got != want);
        }
    }
    differ
}

fn samples() -> Vec<Program> {
    SAMPLES
        .iter()
        .map(|(name, _)| compile_sample(name))
        .collect()
}

#[test]
fn every_sample_segment_matches_the_reference() {
    let programs = samples();
    check("samples", &programs, &segments(&programs), &matrix(&CAPS));
}

#[test]
fn seeded_synthetic_programs_match_the_reference() {
    let runs = matrix(&CAPS);
    for seed in 0..24u64 {
        let program = synth::generate(&SynthConfig {
            seed: 0x711e_0000 + seed,
            functions: 2 + seed as usize % 3,
            flavor: if seed % 2 == 0 {
                Flavor::Compiler
            } else {
                Flavor::Numeric
            },
        });
        let run = runs[seed as usize % runs.len()];
        let programs = [program];
        check(
            &format!("synth seed {seed}"),
            &programs,
            &segments(&programs),
            &[run],
        );
    }
}

#[test]
#[ignore = "slow: the reference parses every corpus segment once per grammar"]
fn large_corpora_match_the_reference() {
    for name in [CorpusName::Gzip, CorpusName::Lcc, CorpusName::Gcc] {
        let programs = corpus(name).programs;
        let differ = check(
            name.label(),
            &programs,
            &segments(&programs),
            &matrix(&CAPS),
        );
        println!("{}: {differ} segment(s) with a different tie", name.label());
    }
}

/// A rule's pattern built from its provenance instead of its right-hand
/// side: an original rule is one node over holes; an inlined rule is its
/// parent's pattern with the child's pattern in the slot-th hole.
fn provenance_pattern(grammar: &Grammar, rule: RuleId) -> Vec<PatternNode> {
    let r = grammar.rule(rule);
    match r.origin {
        RuleOrigin::Original => {
            let mut nodes = vec![PatternNode::Rule(rule)];
            nodes.extend(std::iter::repeat_n(PatternNode::Hole, r.arity()));
            nodes
        }
        RuleOrigin::Inlined {
            parent,
            slot,
            child,
        } => {
            let mut nodes = provenance_pattern(grammar, parent);
            let at = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| **n == PatternNode::Hole)
                .nth(slot as usize)
                .map(|(i, _)| i)
                .expect("the slot is a hole of the parent");
            nodes.splice(at..=at, provenance_pattern(grammar, child));
            nodes
        }
    }
}

#[test]
fn patterns_from_right_hand_sides_equal_provenance_patterns() {
    let programs = samples();
    for (cap, removal) in matrix(&[8, 64, 256]) {
        let trained = train_with(&programs, cap, removal);
        let grammar = trained.expanded();
        let tiler = Tiler::new(grammar, trained.start());
        let mut inlined = 0;
        for i in 0..grammar.rule_slots() {
            let rule = RuleId(i as u32);
            if !grammar.rule(rule).alive {
                assert_eq!(tiler.pattern(rule), None);
                continue;
            }
            inlined += usize::from(grammar.rule(rule).origin != RuleOrigin::Original);
            assert_eq!(
                tiler.pattern(rule),
                Some(provenance_pattern(grammar, rule)),
                "cap {cap} removal {removal}: {}",
                grammar.display_rule(rule)
            );
        }
        assert!(inlined > 0, "cap {cap}: training inlined nothing");
    }
}

#[test]
fn grammars_round_tripped_through_pgrg_compress_identically() {
    let programs = samples();
    let trained = train_with(&programs, 256, true);
    let ig = trained.initial();
    let bytes = GrammarFile::new(trained.expanded().clone(), ig.nt_start, ig.nt_byte).to_bytes();
    let decoded = GrammarFile::from_bytes(&bytes).expect("a trained grammar is admitted");
    let config = CompressorConfig::default().threads(1);
    let original = Compressor::with_config(trained.expanded(), ig.nt_start, config);
    let reloaded = Compressor::with_config(&decoded.grammar, decoded.start, config);
    for (program, (name, _)) in programs.iter().zip(SAMPLES) {
        let (want, _) = original.compress(program).unwrap();
        let (got, _) = reloaded.compress(program).unwrap();
        assert_eq!(got, want, "{name}: images differ after a .pgrg round trip");
    }
}

/// Every derivation of the subtree at `node` as encoded bytes, by trying
/// every live rule's provenance pattern there; `None` once more than
/// `limit` derivations turn up.
fn all_tilings(
    forest: &Forest,
    patterns: &[(u8, Vec<PatternNode>)],
    node: NodeId,
    limit: usize,
) -> Option<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    for (byte, pattern) in patterns {
        // Match the pattern at `node`, collecting the nodes under holes.
        let mut stack = vec![node];
        let mut holes = Vec::new();
        let matched = pattern.iter().all(|p| {
            let n = stack.pop().expect("pattern and tree have the same shape");
            match p {
                PatternNode::Hole => {
                    holes.push(n);
                    true
                }
                PatternNode::Rule(r) if *r == forest.node(n).rule => {
                    let first = stack.len();
                    stack.extend(forest.children(n));
                    stack[first..].reverse();
                    true
                }
                PatternNode::Rule(_) => false,
            }
        });
        if !matched {
            continue;
        }
        let mut partial = vec![vec![*byte]];
        for &h in &holes {
            let below = all_tilings(forest, patterns, h, limit)?;
            let mut next = Vec::new();
            for prefix in &partial {
                for tail in &below {
                    next.push([prefix.as_slice(), tail].concat());
                }
            }
            if next.len() > limit {
                return None;
            }
            partial = next;
        }
        out.extend(partial);
        if out.len() > limit {
            return None;
        }
    }
    Some(out)
}

#[test]
fn brute_force_tilings_confirm_the_tie_break() {
    let programs = samples();
    let inputs: Vec<Vec<Terminal>> = segments(&programs)
        .into_iter()
        .filter(|t| t.len() <= 8)
        .collect();
    let ig = InitialGrammar::build();
    let (mut checked, mut ties) = (0, 0);
    for (cap, removal) in [(8, true), (16, false), (256, true)] {
        let trained = train_with(&programs, cap, removal);
        let grammar = trained.expanded();
        let index_map = grammar.rule_index_map();
        let patterns: Vec<(u8, Vec<PatternNode>)> = (0..grammar.nt_count())
            .flat_map(|nt| grammar.rules_of(pgr::grammar::Nt(nt as u16)).to_vec())
            .map(|rule| {
                (
                    index_map[rule.index()] as u8,
                    provenance_pattern(grammar, rule),
                )
            })
            .collect();
        let tiler = Tiler::new(grammar, trained.start());
        let mut scratch = TileScratch::new();
        for tokens in &inputs {
            let mut forest = Forest::new();
            let root = forest.add_segment(&ig, tokens).unwrap();
            let Some(all) = all_tilings(&forest, &patterns, root, 20_000) else {
                continue;
            };
            let shortest = all.iter().map(Vec::len).min().unwrap();
            let best = all.iter().filter(|d| d.len() == shortest).min().unwrap();
            let got = tile(&tiler, &mut scratch, tokens)
                .unwrap()
                .to_bytes(&index_map);
            assert_eq!(&got, best, "cap {cap} removal {removal}: {tokens:?}");
            checked += 1;
            ties += usize::from(all.iter().filter(|d| d.len() == shortest).count() > 1);
        }
    }
    assert!(checked >= 100, "only {checked} segments were small enough");
    assert!(ties > 0, "no segment had tied shortest derivations");
}

/// An opcode or literal-byte token, opcodes more often, so random strings
/// are near-misses of postfix code rather than byte soup.
fn arb_token() -> impl Strategy<Value = Terminal> {
    prop_oneof![
        3 => any::<u8>().prop_map(|i| {
            let ops = pgr::bytecode::Opcode::ALL;
            Terminal::Op(ops[usize::from(i) % ops.len()])
        }),
        1 => any::<u8>().prop_map(Terminal::Byte),
    ]
}

/// The proptest's grammar and both encoders, built once per thread.
struct Fixture {
    trained: Trained,
    tiler: Tiler,
    parser: ShortestParser,
}

thread_local! {
    static FIXTURE: Fixture = {
        let trained = train_with(&[compile_sample("8q")], 64, true);
        let tiler = Tiler::new(trained.expanded(), trained.start());
        let parser = ShortestParser::new(trained.expanded());
        Fixture { trained, tiler, parser }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Malformed token strings: the tiler and Earley agree on which have
    /// no derivation, and on the length of the rest.
    #[test]
    fn both_reject_the_same_malformed_token_strings(
        tokens in prop::collection::vec(arb_token(), 0..10usize)
    ) {
        FIXTURE.with(|f| {
            let got = tile(&f.tiler, &mut TileScratch::new(), &tokens);
            let want = f.parser.parse(f.trained.start(), &tokens);
            match (got, want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got.len(), want.len()),
                (
                    Err(NoParse::NoDerivation { .. }),
                    Err(pgr::earley::NoParse::NoDerivation { .. }),
                ) => {}
                (got, want) => panic!("{tokens:?}: tiler {got:?}, Earley {want:?}"),
            }
            Ok(())
        })?;
    }
}
