//! Cross-training (the point of Table 1's two grammar columns):
//! "Predictably, lcc and gcc each compress somewhat better with their own
//! grammar, but the other inputs compress about as well with either
//! grammar."
//!
//! ```text
//! cargo run --release --example cross_training
//! ```
//!
//! Trains one grammar per corpus, then compresses every corpus under
//! every grammar — a full matrix rather than the paper's two columns.

use pgr::core::{train, TrainConfig, Trained};
use pgr::corpus::{corpus, Corpus, CorpusName};

fn compress_under(trained: &Trained, c: &Corpus) -> (usize, usize) {
    // One engine per (grammar, corpus) pass: its pattern table is built
    // once.
    let engine = trained.compressor();
    let mut original = 0;
    let mut compressed = 0;
    for p in &c.programs {
        let (_, stats) = engine.compress(p).expect("corpora are in the language");
        original += stats.original_code;
        compressed += stats.compressed_code;
    }
    (original, compressed)
}

fn main() {
    let corpora: Vec<Corpus> = CorpusName::ALL.iter().map(|&n| corpus(n)).collect();
    let grammars: Vec<(&str, Trained)> = corpora
        .iter()
        .map(|c| {
            (
                c.name.label(),
                train(&c.refs(), &TrainConfig::default()).expect("trains"),
            )
        })
        .collect();

    print!("{:>18}", "input \\ grammar");
    for (name, _) in &grammars {
        print!("{name:>12}");
    }
    println!();

    for c in &corpora {
        print!("{:>10} ({:>6}B)", c.name.label(), c.code_size());
        let mut best: Option<(usize, f64)> = None;
        for (gi, (_, trained)) in grammars.iter().enumerate() {
            let (original, compressed) = compress_under(trained, c);
            let ratio = 100.0 * compressed as f64 / original as f64;
            if best.is_none_or(|(_, b)| ratio < b) {
                best = Some((gi, ratio));
            }
            print!("{ratio:>11.1}%");
        }
        let (best_gi, _) = best.expect("at least one grammar");
        println!("   <- best: {}", grammars[best_gi].0);
    }

    println!(
        "\nEach big corpus should prefer its own grammar (the diagonal), while the\n\
         small inputs (gzip, 8q) compress comparably under either big grammar —\n\
         exactly Table 1's observation."
    );
}
