//! Regenerate the paper's §6 tables.
//!
//! ```text
//! cargo run -p pgr-bench --release --bin tables -- all
//! cargo run -p pgr-bench --release --bin tables -- e1 e4 a3
//! ```

use pgr_bench::experiments::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| {
        args.is_empty() || args.iter().any(|a| a == name) || args.iter().any(|a| a == "all")
    };

    if want("e1") {
        print_e1();
    }
    if want("e2") {
        print_e2();
    }
    if want("e3") {
        print_e3();
    }
    if want("e4") {
        print_e4();
    }
    if want("e5") {
        print_e5();
    }
    if want("e6") {
        print_e6();
    }
    if want("a1") {
        print_a1();
    }
    if want("a2") {
        print_a2();
    }
    if want("a3") {
        print_a3();
    }
    if want("a4") {
        print_a4();
    }
    if want("a5") {
        print_a5();
    }
    if want("metrics") {
        print_metrics();
    }
}

fn print_metrics() {
    println!("== metrics: instrumented train + self-compress (gzip corpus) ==");
    let m = pgr_bench::telemetry::pipeline_metrics();
    match pgr_bench::telemetry::dump("pipeline", &m) {
        Ok(Some(path)) => println!("wrote {}", path.display()),
        Ok(None) => print!("{}", m.render_table()),
        Err(e) => eprintln!("metrics dump failed: {e}"),
    }
    println!();
}

fn print_e1() {
    println!("== E1: Table 1 — compressed sizes under gcc- and lcc-trained grammars ==");
    println!("(paper: gcc 1,423,370->41%/33%; lcc 199,497->38%/29%; gzip 47,066->42%/41%; 8q 436->35%/32%)");
    let (rows, g_gcc, g_lcc) = e1();
    println!(
        "{:>6} {:>10} | {:>10} {:>6} | {:>10} {:>6}",
        "input", "original", "on gcc", "ratio", "on lcc", "ratio"
    );
    for r in &rows {
        println!(
            "{:>6} {:>10} | {:>10} {:>6} | {:>10} {:>6}",
            r.input,
            r.original,
            r.on_gcc,
            pct(r.on_gcc, r.original),
            r.on_lcc,
            pct(r.on_lcc, r.original),
        );
    }
    println!("grammar sizes: gcc-trained {g_gcc} B, lcc-trained {g_lcc} B (paper: 10,525 B)\n");
}

fn print_e2() {
    println!("== E2: interpreter sizes (lcc-trained grammar) ==");
    println!("(paper: initial 7,855 B; compressed 18,962 B; grammar 10,525 B)");
    let s = e2();
    println!(
        "initial {} B; compressed {} B (delta {} B); grammar {} B ({} of the delta)\n",
        s.initial,
        s.compressed,
        s.delta(),
        s.grammar,
        pct(s.grammar, s.delta()),
    );
}

fn print_e3() {
    println!("== E3: gzip calibration (LZSS+Huffman stand-in) ==");
    println!("(paper: gzip compresses the inputs to 31-44%, larger inputs better)");
    for (name, original, compressed) in e3() {
        println!(
            "{:>6} {:>10} -> {:>10}  ({})",
            name,
            original,
            compressed,
            pct(compressed, original)
        );
    }
    println!();
}

fn print_e4() {
    println!("== E4: Table 2 — whole-executable sizes, lcc corpus ==");
    println!("(paper: uncompressed 292,039; compressed 161,386; x86 240,522)");
    for row in e4() {
        println!("{:>24}: {:>10} B", row.representation, row.bytes);
    }
    println!();
}

fn print_e5() {
    println!("== E5: optimizer interaction ==");
    println!(
        "(paper analogue: MSVC unopt 236,181 vs space-opt 161,716; optimized code is less regular)"
    );
    let [(bc0, n0, c0), (bc1, n1, c1)] = e5();
    println!(
        "unoptimized: bytecode {bc0} B, native {n0} B, self-compressed {c0} B ({})",
        pct(c0, bc0)
    );
    println!(
        "optimized:   bytecode {bc1} B, native {n1} B, self-compressed {c1} B ({})\n",
        pct(c1, bc1)
    );
}

fn print_e6() {
    println!("== E6: remaining overheads (compressed lcc image) ==");
    println!("(paper: label tables 9,628 B; global tables 3,940 B; trampolines 1,674 B; grammar slack 1,863 B)");
    let (s, grammar, slack) = e6();
    println!("compressed code  {:>8} B", s.code);
    println!("label tables     {:>8} B", s.label_tables);
    println!("global table     {:>8} B", s.global_table);
    println!("descriptors      {:>8} B", s.descriptors);
    println!("trampolines      {:>8} B", s.trampolines);
    println!("data + bss       {:>8} B", s.data + s.bss);
    println!("grammar          {:>8} B", grammar);
    println!("  (straightforward recoding would save {slack} B; paper: 1,863 B)");
    println!(
        "  (inlining branch offsets and global addresses would save ~{} B; \"much of that overhead\")\n",
        e6_inline_estimate()
    );
}

fn print_a1() {
    println!("== A1: rule-cap sweep (lcc corpus, self-compressed) ==");
    println!("(the paper fixes 256 so each derivation step is one byte)");
    for (cap, compressed, grammar) in a1(&[32, 64, 128, 256]) {
        println!("cap {cap:>4}: compressed {compressed:>8} B, grammar {grammar:>7} B");
    }
    println!();
}

fn print_a2() {
    println!("== A2: grammar hygiene — subsumed-rule removal (lcc corpus) ==");
    let [(r1, g1, c1), (r2, g2, c2)] = a2();
    println!("removal on:   {r1:>5} live rules, grammar {g1:>7} B, compressed {c1:>8} B");
    println!("removal off:  {r2:>5} live rules, grammar {g2:>7} B, compressed {c2:>8} B\n");
}

fn print_a3() {
    println!("== A3: baseline shoot-out (self-trained, totals incl. tables) ==");
    println!(
        "{:>6} {:>9} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6}",
        "input", "orig", "grammar", "", "superop", "", "tunstall", "", "huffman", "", "lzss+h", ""
    );
    for r in a3() {
        println!(
            "{:>6} {:>9} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6}",
            r.input,
            r.original,
            r.grammar,
            pct(r.grammar, r.original),
            r.superop,
            pct(r.superop, r.original),
            r.tunstall,
            pct(r.tunstall, r.original),
            r.huffman,
            pct(r.huffman, r.original),
            r.lzss,
            pct(r.lzss, r.original),
        );
    }
    println!();
}

fn print_a5() {
    println!("== A5: typed initial grammar (lcc corpus, self-compressed) ==");
    println!("(paper: a grammar tracking stack datatypes \"did not do significantly better\")");
    let ((ub, ug), (tb, tg)) = a5();
    println!("untyped: compressed {ub:>8} B, grammar {ug:>7} B");
    println!("typed:   compressed {tb:>8} B, grammar {tg:>7} B\n");
}

fn print_a4() {
    println!(
        "== A4: greedy (training forest) vs optimal (shortest derivation) encoding, lcc self =="
    );
    let (greedy, optimal) = a4();
    println!(
        "greedy {greedy} B, optimal {optimal} B (optimal saves {})\n",
        pct(greedy.saturating_sub(optimal), greedy)
    );
}
